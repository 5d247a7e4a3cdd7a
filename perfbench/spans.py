"""Span timer that wraps natmt's public functions from outside the package.

`Tracer.install()` replaces selected module functions and class methods with
wrappers that count calls and accumulate wall time and self time (wall time
minus the time of spans nested inside). A function bound under the same name
in several modules (``from .data import pad_block``) is patched in every one,
and methods are patched on their class, so calls made through instances are
seen too. Recording happens only inside `Tracer.call`, so the benchmark's
correctness checks, which call the same functions, are not counted.
`Timer` is the untraced counterpart with the same `call` interface.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Timer:
    """Times calls made by the benchmark; `timed_s` sums their wall time."""

    def __init__(self):
        self.timed_s = 0.0

    def call(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        self.timed_s += dt
        return out, dt

    def snapshot(self) -> dict[str, float]:
        return {}


def _decode_shape(counts, prefix, args, kwargs):
    # decode_logits(self, memory, src_len, ids, lengths): ids is [rows, width]
    ids = args[3] if len(args) > 3 else kwargs.get("tgt_in", kwargs.get("dec_ids"))
    counts[prefix + ".rows"] += ids.shape[0]
    counts[prefix + ".positions"] += ids.shape[0] * ids.shape[1]


def _matmul_flop(counts, args, kwargs):
    a, b = args[:2]
    counts["tensor.matmul_flop"] += 2.0 * a.data.size * b.shape[-1]


def _npd_candidates(counts, args, kwargs):
    fert_list = args[1]
    counts["nat.npd.candidates"] += len(fert_list)
    counts["nat.npd.distinct"] += len({tuple(int(x) for x in f) for f in fert_list})


class Tracer(Timer):
    """Per-span call counts and self time, plus shape-derived counters."""

    def __init__(self):
        super().__init__()
        self.stats = defaultdict(lambda: [0, 0.0])   # span -> [calls, self s]
        self.counts = defaultdict(float)
        self.top_s = 0.0          # wall time of spans with no enclosing span
        self._stack: list[float] = []   # child time of each open span
        self._recording = [False]
        self._undo: list[tuple[object, str, object]] = []

    def call(self, fn, *args):
        self._recording[0] = True
        try:
            return super().call(fn, *args)
        finally:
            self._recording[0] = False

    # -- patching ----------------------------------------------------------

    def _wrapper(self, fn, span, count):
        st = self.stats[span]
        counts, stack, recording = self.counts, self._stack, self._recording

        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            if count is not None:
                count(counts, args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[0] += 1
                st[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt

        return traced

    def _patch_function(self, fn, span, count=None):
        wrapped = self._wrapper(fn, span, count)
        for name, mod in list(sys.modules.items()):
            if name != "natmt" and not name.startswith("natmt."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr, span, count=None):
        fn = vars(cls)[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, span, count))

    def install(self) -> None:
        """Patch natmt; `uninstall` restores every original binding."""
        from natmt import (aligner, checkpoint, data, layers, nat, optim,
                           pipeline, synth, teacher, tensor)

        if self._undo:
            raise RuntimeError("tracer already installed")
        for op in (tensor.add, tensor.mul, tensor.neg, tensor.relu, tensor.exp,
                   tensor.reshape, tensor.transpose, tensor.tsum, tensor.tmean,
                   tensor.softmax, tensor.log_softmax, tensor.layer_norm,
                   tensor.embedding, tensor.cross_entropy):
            self._patch_function(op, "tensor.op")
        self._patch_function(tensor.matmul, "tensor.op", _matmul_flop)
        self._patch_function(tensor.backward, "tensor.backward")

        methods = [
            (teacher.TeacherModel, "decode_logits", "teacher.decode_logits",
             lambda c, a, k: _decode_shape(c, "teacher.decode_logits", a, k)),
            (teacher.TeacherModel, "encode", "teacher.encode", None),
            (nat.NatModel, "decode_logits", "nat.decode_logits",
             lambda c, a, k: _decode_shape(c, "nat.decode_logits", a, k)),
            (nat.NatModel, "encode", "nat.encode", None),
            (nat.NatModel, "fertility_logits", "nat.fertility", None),
            (layers.Encoder, "__call__", "layers.encoder", None),
            (layers.MultiHeadAttention, "__call__", "layers.attention", None),
            (layers.FFNBlock, "__call__", "layers.ffn", None),
            (layers.LayerNorm, "__call__", "layers.layernorm", None),
            (optim.AdamWarmup, "step", "optim.step", None),
        ]
        for cls, attr, span, count in methods:
            self._patch_method(cls, attr, span, count)

        functions = [
            (layers.attention_bias, "layers.attention_bias", None),
            (teacher.score_candidates, "teacher.score_candidates", None),
            (nat.fertility_dist_batch, "nat.fertility", None),
            (nat.sample_fertilities, "nat.sample", None),
            (nat.npd_over_candidates, "nat.npd", _npd_candidates),
            (pipeline.rkl_value, "pipeline.rkl_value", None),
            (pipeline.fertility_log_prob, "pipeline.fertility_log_prob", None),
            (data.pad_block, "data.pad_block", None),
            (data.make_batches, "data.make_batches", None),
            (aligner.em_train, "aligner.em_train", None),
            (aligner.corpus_fertilities, "aligner.corpus_fertilities", None),
            (checkpoint.save_checkpoint, "checkpoint.save", None),
            (checkpoint.load_checkpoint, "checkpoint.load", None),
            (synth.gen_copy_corpus, "synth.gen", None),
            (synth.gen_planted_dictionary, "synth.gen", None),
            (synth.gen_synth_multimodal, "synth.gen", None),
        ]
        for fn, span, count in functions:
            self._patch_function(fn, span, count)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- report ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat running totals, for deltas around calls: span calls, self
        ms, shape counters, timed and top-level seconds."""
        flat = {f"{span}.calls": float(c) for span, (c, _) in self.stats.items()}
        flat.update({f"{span}.ms": s * 1e3 for span, (_, s) in self.stats.items()})
        flat.update(self.counts)
        flat.update(timed_s=self.timed_s, top_s=self.top_s)
        return flat


def layer_metrics(totals: dict[str, float], units: float) -> dict[str, float]:
    """Per unit of work (sentence, pair, step round or set-up pass) from a
    snapshot or a sum of snapshot deltas; `ms` entries are self time and
    `other.ms` is timed time outside every span."""
    out = {k: v / units for k, v in totals.items() if k not in ("timed_s", "top_s")}
    out["tensor.op_calls"] = out.pop("tensor.op.calls", 0.0)
    out["tensor.op_ms"] = out.pop("tensor.op.ms", 0.0)
    out["tensor.matmul_gflop"] = out.pop("tensor.matmul_flop", 0.0) / 1e9
    cands = totals.get("nat.npd.candidates", 0.0)
    out["nat.npd.distinct_frac"] = totals["nat.npd.distinct"] / cands if cands else 0.0
    out["other.ms"] = (totals["timed_s"] - totals["top_s"]) * 1e3 / units
    return out

"""Strategy specs and the one batch-size-one decode entry point; the
single-sentence decoding benchmark (wall-clock, instrumented decoder-pass
counts) and plot-ready report emitters."""

from __future__ import annotations

import statistics
from time import perf_counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import nat as N
from . import teacher as AR
from .bleu import bleu
from .data import DataError, integer


# the widest beam and the most npd samples a strategy spec may ask for: npd
# translates all its samples in one padded block, and a beam step expands
# each survivor into up to as many candidates, so far larger counts exhaust
# memory
STRATEGY_CEILING = 1024


@dataclass
class SentenceStat:
    src_len: int
    out_len: int
    wall: float                 # seconds, median over repeats
    passes: int


@dataclass
class BenchReport:
    sentences: dict[str, list[SentenceStat]]
    mean: dict[str, float]
    median: dict[str, float]
    baseline: str

    def speedup(self, name: str) -> float:
        return self.mean[self.baseline] / self.mean[name]


def parse_strategy(spec: str) -> tuple[str, int | None]:
    """'greedy', 'beam:4', 'npd:10' -> (kind, numeric argument), the
    argument from 1 to `STRATEGY_CEILING`."""
    kind, _, arg = spec.partition(":")
    if kind not in ("greedy", "beam", "argmax", "average", "npd"):
        raise DataError(f"unknown decoding strategy {spec!r}")
    if not arg:
        return kind, {"beam": 4, "npd": 10}.get(kind)
    if kind not in ("beam", "npd"):
        raise DataError(f"strategy {kind!r} takes no argument in {spec!r}")
    try:
        n = integer(arg)
    except ValueError:
        raise DataError(f"bad strategy argument in {spec!r}") from None
    if n < 1:
        raise DataError(f"strategy argument must be positive in {spec!r}")
    if n > STRATEGY_CEILING:
        raise DataError(f"strategy argument must be at most {STRATEGY_CEILING} "
                        f"in {spec!r}")
    return kind, n


def decoder(spec: str, teacher_model, nat_model,
            seed: int = 0) -> Callable[[Sequence[int]], N.DecodeResult]:
    """The one map from a strategy spec to a batch-size-one decode
    ``src_ids -> DecodeResult``; refuses a missing model before anything is
    decoded. Teacher strategies report no fertility."""
    kind, arg = parse_strategy(spec)
    if kind in ("argmax", "average", "npd") and nat_model is None:
        raise DataError(f"strategy {spec!r} needs a parallel model")
    if kind in ("greedy", "beam", "npd") and teacher_model is None:
        raise DataError(f"strategy {spec!r} needs a teacher model")
    if kind == "greedy":
        return lambda src: N.DecodeResult(AR.greedy_decode(src, teacher_model), None)
    if kind == "beam":
        return lambda src: N.DecodeResult(AR.beam_decode(src, teacher_model, b=arg), None)
    if kind == "argmax":
        return lambda src: N.decode_argmax(src, nat_model)
    if kind == "average":
        return lambda src: N.decode_average(src, nat_model)
    return lambda src: N.decode_npd(src, nat_model, teacher_model, arg, seed)


def _runner(spec: str, teacher_model, nat_model, seed: int) -> Callable:
    """Returns src_ids -> (output tokens, decoder passes)."""
    decode = decoder(spec, teacher_model, nat_model, seed)
    models = [m for m in (teacher_model, nat_model) if m is not None]

    def run(src):
        for m in models:
            m.reset_passes()
        out = decode(src).output
        return out, sum(m.decoder_passes for m in models)

    return run


def bench_latency(testset: Sequence[Sequence[int]],
                  teacher_model=None, nat_model=None,
                  strategies: Sequence[str] = ("beam:4", "greedy", "argmax"),
                  repeats: int = 3, seed: int = 0) -> BenchReport:
    """Times each strategy on every sentence alone (no minibatching); the
    first sentence is decoded once untimed to warm caches. Per-sentence
    wall-clock is the median over ``repeats`` runs of ``perf_counter``.
    Speedups are relative to the first strategy."""
    if not testset:
        raise ValueError("empty benchmark set")
    if repeats < 1:
        raise ValueError("need at least one timed repeat")
    strategies = list(strategies)

    sentences: dict[str, list[SentenceStat]] = {}
    for spec in strategies:
        run = _runner(spec, teacher_model, nat_model, seed)
        run(testset[0])  # warm-up, untimed
        stats = []
        for src in testset:
            walls = []
            for _ in range(repeats):
                t0 = perf_counter()
                out, passes = run(src)
                walls.append(perf_counter() - t0)
            stats.append(SentenceStat(len(src), len(out),
                                      statistics.median(walls), passes))
        sentences[spec] = stats
    mean = {s: statistics.fmean(r.wall for r in recs)
            for s, recs in sentences.items()}
    med = {s: statistics.median(r.wall for r in recs)
           for s, recs in sentences.items()}
    return BenchReport(sentences, mean, med, strategies[0])


def latency_slope(stats: Sequence[SentenceStat], x: str = "src_len") -> float:
    """Least-squares slope of wall-clock against sentence length."""
    xs = np.array([getattr(r, x) for r in stats], dtype=np.float64)
    ys = np.array([r.wall for r in stats], dtype=np.float64)
    if len(xs) < 2 or np.ptp(xs) == 0:
        raise ValueError("need at least two distinct lengths for a slope")
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# report emitters
# ---------------------------------------------------------------------------

def write_tsv(path: str | Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(c) for c in row) + "\n")


def write_latency_tsv(report: BenchReport, path: str | Path) -> None:
    """Plot-ready per-sentence (length, latency) pairs per strategy."""
    rows = []
    for spec, recs in report.sentences.items():
        for r in recs:
            rows.append((spec, r.src_len, r.out_len,
                         f"{r.wall:.6f}", r.passes))
    write_tsv(path, ("strategy", "src_len", "out_len", "wall_s", "passes"), rows)


def npd_quality_curve(testset, refs, nat_model, teacher_model,
                      sample_counts: Sequence[int], seed: int = 0):
    """Corpus BLEU and mean winning teacher score per noisy-decoding sample
    budget; rows are plot-ready."""
    rows = []
    for s in sample_counts:
        decode = decoder(f"npd:{s}", teacher_model, nat_model, seed)
        results = [decode(src) for src in testset]
        rows.append((s, bleu([r.output for r in results], refs),
                     statistics.fmean(r.teacher_score for r in results)))
    return rows


def write_npd_curve_tsv(rows, path: str | Path) -> None:
    write_tsv(path, ("samples", "bleu", "mean_teacher_score"),
              ((s, f"{b:.2f}", f"{m:.4f}") for s, b, m in rows))


def write_learning_curve_tsv(records: Sequence[dict], path: str | Path) -> None:
    """Flattens training-log records into step/phase/loss columns."""
    rows = [(r["step"], r["phase"], f"{r['loss']:.6f}", f"{r['wall']:.3f}")
            for r in records]
    write_tsv(path, ("step", "phase", "loss", "wall_s"), rows)

"""Model and training configuration dataclasses."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .data import DataError, at_least


# the floor and ceiling of each model size: n_layer 0 is an embedding-only
# model, and fertility classes 0 and 1 are the least; a ceiling refuses a
# size far past any trainable model, naming its key, before numpy is asked
# for an array of that size
SIZE_LIMITS = dict(d_model=(1, 4096), d_hidden=(1, 16384), n_layer=(0, 64),
                   n_head=(1, 4096), max_len=(1, 4096), max_fertility=(2, 1024))


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by the teacher and the parallel decoder.

    ``max_fertility`` is the number of fertility classes; class c encodes the
    integer fertility c, so values range over 0 .. max_fertility-1. Attention
    logits are scaled by 1/sqrt(d_head) per head and token embeddings by
    sqrt(d_model).
    """

    d_model: int = 64
    d_hidden: int = 256
    n_layer: int = 2
    n_head: int = 2
    src_vocab: int = 0
    tgt_vocab: int = 0
    max_len: int = 64
    max_fertility: int = 50

    def __post_init__(self):
        for key, (least, most) in SIZE_LIMITS.items():
            value = getattr(self, key)
            at_least(key, value, least)
            if value > most:
                raise DataError(f"{key} must be at most {most}, got {value}")
        if self.d_model % self.n_head != 0:
            raise DataError(
                f"d_model={self.d_model} must be divisible by n_head={self.n_head}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_head

    @property
    def attn_scale(self) -> float:
        return 1.0 / math.sqrt(self.d_head)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Raises DataError unless `d` is a dict holding exactly the config's
        keys, each with an integer value (every field is an int; a bool is
        not one)."""
        if not isinstance(d, dict):
            raise DataError(f"config is not an object: {d!r}")
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(d) - names), sorted(names - set(d))
        if unknown or missing:
            raise DataError(f"config keys unknown {unknown}, missing {missing}")
        for key, value in d.items():
            if type(value) is not int:
                raise DataError(f"config key {key} must be an integer, got {value!r}")
        return cls(**d)


@dataclass
class TrainConfig:
    """Knobs for a training run; ``lr_scale=None`` means d_model^-0.5."""

    steps: int = 1000
    batch_size: int = 32
    lr_scale: float | None = None
    warmup: int = 746
    seed: int = 0
    lam: float = 0.25               # fine-tuning interpolation weight
    finetune_terms: tuple[str, ...] = ("rl", "bp", "kd")
    log_every: int = 25

    def __post_init__(self):
        for key, least in dict(steps=1, batch_size=1, warmup=1, seed=0,
                               log_every=1).items():
            at_least(key, getattr(self, key), least)
        if self.lr_scale is not None and not self.lr_scale > 0:
            raise DataError(f"lr_scale must be positive, got {self.lr_scale}")
        if not 0.0 <= self.lam <= 1.0:
            raise DataError(f"lam must lie in [0, 1], got {self.lam}")
        terms = set(self.finetune_terms)    # rl and bp weigh lam, kd 1 - lam
        bad = terms - {"rl", "bp", "kd"}
        if bad:
            raise DataError(f"finetune_terms holds unknown terms {sorted(bad)}")
        if not (terms - {"kd"} and self.lam > 0 or "kd" in terms and self.lam < 1):
            raise DataError(f"no term of finetune_terms {sorted(terms)} carries weight "
                            f"at lam {self.lam}: rl and bp need lam > 0, kd lam < 1")

    def scale_for(self, cfg: ModelConfig) -> float:
        return self.lr_scale if self.lr_scale is not None else cfg.d_model ** -0.5

"""Model and training configuration dataclasses."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields


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
        if self.d_model % self.n_head != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by n_head={self.n_head}")
        if self.max_fertility < 2:
            raise ValueError("need at least fertility classes 0 and 1")

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
        """Raises ValueError unless `d` holds exactly the config's keys."""
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(d) - names), sorted(names - set(d))
        if unknown or missing:
            raise ValueError(f"config keys unknown {unknown}, missing {missing}")
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
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        bad = set(self.finetune_terms) - {"rl", "bp", "kd"}
        if bad:
            raise ValueError(f"unknown fine-tuning terms: {sorted(bad)}")

    def scale_for(self, cfg: ModelConfig) -> float:
        return self.lr_scale if self.lr_scale is not None else cfg.d_model ** -0.5

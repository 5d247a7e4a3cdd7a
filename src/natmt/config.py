"""Model and training configuration dataclasses."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by the teacher and the parallel decoder.

    ``max_fertility`` is the number of fertility classes; class c encodes the
    integer fertility c, so values range over 0 .. max_fertility-1.
    """

    d_model: int = 64
    d_hidden: int = 256
    n_layer: int = 2
    n_head: int = 2
    src_vocab: int = 0
    tgt_vocab: int = 0
    max_len: int = 64
    max_fertility: int = 50
    scale_per_head: bool = True     # False reproduces sqrt(d_model) attention scaling
    pos_attn_projections: bool = True
    use_pos_attn: bool = True
    scale_embeddings: bool = True   # multiply embeddings by sqrt(d_model)

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
        d = self.d_head if self.scale_per_head else self.d_model
        return 1.0 / math.sqrt(d)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
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
    kd_includes_fertility: bool = True
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

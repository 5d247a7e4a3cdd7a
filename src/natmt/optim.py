"""Adam with the inverse-sqrt schedule and linear warmup used for all training."""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE, Tensor


def warmup_rate(t: int, scale: float, warmup: int) -> float:
    """Learning rate at step t: scale * min(t^-0.5, t * warmup^-1.5)."""
    if t < 1:
        raise ValueError("schedule is defined for t >= 1")
    return scale * min(t ** -0.5, t * warmup ** -1.5)


class AdamWarmup:
    """Adam over named parameters with warmup-then-decay learning rate.

    The step counter is incremented before the rate is computed, so the first
    update uses t=1. Moments are stored in float32 alongside the parameters.
    """

    def __init__(self, params, scale: float, warmup: int = 746,
                 beta1: float = 0.9, beta2: float = 0.98, eps: float = 1e-9):
        self.params: list[tuple[str, Tensor]] = list(params)
        self.scale = float(scale)
        self.warmup = int(warmup)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    @property
    def lr(self) -> float:
        """The rate of the latest step."""
        return warmup_rate(self.t, self.scale, self.warmup)

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the rate used."""
        self.t += 1
        lr = self.lr
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ValueError(f"grad shape {p.grad.shape} != param shape "
                                 f"{p.data.shape} for {name}")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (lr * mhat / (np.sqrt(vhat) + self.eps)).astype(DTYPE)
        return lr

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

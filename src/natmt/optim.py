"""Adam with the inverse-sqrt schedule and linear warmup used for all training."""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import DTYPE, Tensor

BETA1, BETA2, EPS = 0.9, 0.98, 1e-9   # the Transformer's Adam settings


def warmup_rate(t: int, scale: float, warmup: int) -> float:
    """Learning rate at step t: scale * min(t^-0.5, t * warmup^-1.5)."""
    if t < 1:
        raise ValueError("schedule is defined for t >= 1")
    return scale * min(t ** -0.5, t * warmup ** -1.5)


class AdamWarmup:
    """Adam over named parameters with warmup-then-decay learning rate.

    The step counter is incremented before the rate is computed, so the first
    update uses t=1. The moments live in two flat float32 buffers with one
    slice per parameter, in list order; ``m[name]`` and ``v[name]`` are views
    of them shaped like the parameter. A step gathers the gradients of each
    run of consecutive parameters that have one into a preallocated buffer
    and updates the run with in-place float32 ufuncs, so it allocates no
    array of the parameters' size. ``grad_norm`` is the global L2 norm of the
    gradients the latest step applied.
    """

    def __init__(self, params, scale: float, warmup: int = 746):
        self.params: list[tuple[str, Tensor]] = list(params)
        self.scale = float(scale)
        self.warmup = int(warmup)
        self.t = 0
        self.grad_norm = 0.0
        bounds = np.cumsum([0] + [p.data.size for _, p in self.params]).tolist()
        self._spans = list(zip(bounds, bounds[1:]))
        self._m = np.zeros(bounds[-1], dtype=DTYPE)
        self._v = np.zeros(bounds[-1], dtype=DTYPE)
        self._g = np.empty(bounds[-1], dtype=DTYPE)     # gathered gradients
        self._tmp = np.empty(bounds[-1], dtype=DTYPE)
        self.m = {name: self._m[a:b].reshape(p.shape)
                  for (name, p), (a, b) in zip(self.params, self._spans)}
        self.v = {name: self._v[a:b].reshape(p.shape)
                  for (name, p), (a, b) in zip(self.params, self._spans)}

    @property
    def lr(self) -> float:
        """The rate of the latest step."""
        return warmup_rate(self.t, self.scale, self.warmup)

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the rate used."""
        for name, p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ValueError(f"grad shape {p.grad.shape} != param shape "
                                 f"{p.data.shape} for {name}")
        # runs of consecutive parameters that have a gradient
        runs = [list(run) for has, run in itertools.groupby(
            range(len(self.params)), lambda i: self.params[i][1].grad is not None)
            if has]
        self.t += 1
        lr = self.lr
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        sq = 0.0
        for run in runs:
            lo, hi = self._spans[run[0]][0], self._spans[run[-1]][1]
            g, tmp = self._g[lo:hi], self._tmp[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            np.concatenate([self.params[i][1].grad for i in run], axis=None, out=g)
            sq += float(np.dot(g, g))
            # the per-parameter formulas, in the same order, element for element:
            # m = BETA1*m + (1-BETA1)*g;  v = BETA2*v + (1-BETA2)*g*g;
            # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
            m *= BETA1
            np.multiply(g, 1 - BETA1, out=tmp)
            m += tmp
            v *= BETA2
            np.multiply(g, 1 - BETA2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, bc1, out=g)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            g *= lr
            g /= tmp
            for i in run:
                (a, b), p = self._spans[i], self.params[i][1]
                p.data -= self._g[a:b].reshape(p.data.shape)
        self.grad_norm = sq ** 0.5
        return lr

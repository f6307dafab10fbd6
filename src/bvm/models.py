"""Model functions mapping parameter vectors to output paths on a grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InputGrid",
    "ModelFunction",
    "basis_model",
    "polynomial_model",
    "damped_oscillator_model",
]


@dataclass(frozen=True)
class InputGrid:
    """Strictly increasing comparison locations x_1 < ... < x_N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one point")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def linspace(cls, lo: float, hi: float, n: int) -> "InputGrid":
        return cls(np.linspace(lo, hi, n))

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class ModelFunction:
    """Pure map from a parameter vector to an output path.

    ``evaluate`` accepts a single parameter vector ``(p,)`` or a stack
    ``(K, p)`` and returns the matching ``(N,)`` path or ``(K, N)`` paths.
    ``_fn`` must return a new array on every call: a push-forward hands
    its paths to a caller that may write to them.
    """

    name: str
    param_names: tuple
    _fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def evaluate(self, params, grid: InputGrid) -> np.ndarray:
        theta = np.asarray(params, dtype=float)
        single = theta.ndim == 1
        if single:
            theta = theta[None, :]
        if theta.shape[1] != len(self.param_names):
            raise ValueError(
                f"model '{self.name}' expects {len(self.param_names)} parameters, got {theta.shape[1]}"
            )
        out = np.asarray(self._fn(theta, grid.points), dtype=float)
        if out.shape != (theta.shape[0], len(grid)):
            raise ValueError("model output shape must be (draws, grid length)")
        return out[0] if single else out


def basis_model(name: str, param_names: Sequence[str], basis: Sequence[Callable]) -> ModelFunction:
    """Linear-in-coefficients model y(x) = sum_j theta_j * g_j(x)."""
    if len(param_names) != len(basis):
        raise ValueError("one basis function per parameter")
    fns = tuple(basis)

    def _fn(theta, x):
        design = np.stack([np.asarray(g(x), dtype=float) for g in fns])  # (p, N)
        return theta @ design

    return ModelFunction(name=name, param_names=tuple(param_names), _fn=_fn)


def polynomial_model(powers: Sequence[int], name: str | None = None) -> ModelFunction:
    """y(x) = sum_j theta_j * x**powers[j]."""
    powers = tuple(int(p) for p in powers)
    label = name or "poly_" + "_".join(str(p) for p in powers)
    return basis_model(
        label,
        [f"c{p}" for p in powers],
        [lambda x, p=p: x**p for p in powers],
    )


# Points per row tile of the oscillator: two float64 tiles of 256 KB each
# stay in a core's L2 cache between the ufunc passes over them.
OSCILLATOR_TILE = 32_768


def damped_oscillator_model() -> ModelFunction:
    """y(x; a,b,c,d,f,g) = a + b*x*exp(-c*cos(d*x)) + f*sin(g*x)."""

    def _fn(theta, x):
        out = np.empty((theta.shape[0], x.size))
        rows = max(1, OSCILLATOR_TILE // x.size)
        t = np.empty((min(rows, theta.shape[0]), x.size))
        for start in range(0, theta.shape[0], rows):
            a, b, c, d, f, g = (theta[start : start + rows, i : i + 1] for i in range(6))
            y = out[start : start + rows]
            u = t[: len(y)]
            # The ufuncs of the expression above, on the same operands in
            # the same order, written into the tile's rows of the output and
            # one reused tile instead of ten temporaries; each value passes
            # through the same ufuncs, so tiling moves no bit.
            # tests/test_golden.py pins the bits of this order.
            np.multiply(d, x, out=y)
            np.cos(y, out=y)
            np.multiply(-c, y, out=y)
            np.exp(y, out=y)
            np.multiply(b, x, out=u)
            np.multiply(u, y, out=y)
            np.add(a, y, out=y)
            np.multiply(g, x, out=u)
            np.sin(u, out=u)
            np.multiply(f, u, out=u)
            np.add(y, u, out=y)
        return out

    return ModelFunction(name="damped_oscillator", param_names=("a", "b", "c", "d", "f", "g"), _fn=_fn)

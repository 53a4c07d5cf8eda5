"""Density profiles on the continuum torus.

A profile assigns a density in (0, 1) to every point of [0,1)^d.  Closed
forms ("constant", "cosine") are kept as callables so the same profile can
be sampled on the particle torus and on PDE grids without interpolation
error; explicit grids are supported for CSV input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, as_number, as_string, require


# side of the evaluation grid `validate_profile` checks a profile on
CHECK_RESOLUTION = 64
DRIFT_TOL = 1e-10  # largest |q . grad rho| a profile may have


@dataclass
class Profile:
    """Density profile on the continuum torus, a closed form or a grid."""

    dimension: int
    func: Optional[Callable] = None
    grid: Optional[np.ndarray] = None  # values on a uniform periodic grid

    def __post_init__(self):
        if (self.func is None) == (self.grid is None):
            raise ConfigError("profile needs exactly one of func or grid")
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=np.float64)
            if self.grid.ndim != self.dimension:
                raise ConfigError("profile grid dimensionality mismatch")

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of torus points."""
        pts = np.mod(np.asarray(points, dtype=np.float64), 1.0)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dimension:
            raise ConfigError("points have wrong dimension")
        if self.func is not None:
            return np.asarray(self.func(pts), dtype=np.float64)
        return _interp_periodic(self.grid, pts, self.grid.shape[0])

    def sample_grid(self, m: int) -> np.ndarray:
        """Values on the uniform m^d grid with nodes at multiples of 1/m.

        The grid is evaluated one slab of axis 0 at a time, so no (m^d, d)
        point array is built.  Every profile is evaluated point by point,
        so the values are those of one call on the whole grid.
        """
        d = self.dimension
        out = np.empty((m,) * d)
        points = np.empty((m ** (d - 1), d))
        points[:, 1:] = np.indices(out.shape[1:]).reshape(d - 1, len(points)).T / m
        for i in range(m):
            points[:, 0] = i / m
            out[i] = self.values_at(points).reshape(out.shape[1:])
        return out

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Profile":
        if not 0.0 <= value <= 1.0:
            raise ConfigError("constant profile value outside [0, 1]")
        return cls(dimension, func=lambda pts: np.full(len(pts), value))

    @classmethod
    def cosine(cls, dimension: int, base: float, amplitude: float, axis: int) -> "Profile":
        """base + amplitude * cos(2 pi u_axis)."""
        if not 0 <= axis < dimension:
            raise ConfigError("cosine axis outside dimension")
        lo, hi = base - abs(amplitude), base + abs(amplitude)
        if lo < 0.0 or hi > 1.0:
            raise ConfigError("cosine profile leaves [0, 1]")

        def f(pts, _a=axis, _b=base, _amp=amplitude):
            return _b + _amp * np.cos(2.0 * math.pi * pts[:, _a])

        return cls(dimension, func=f)

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "Profile":
        grid = np.asarray(grid, dtype=np.float64)
        return cls(grid.ndim, grid=grid)

    @classmethod
    def from_spec(cls, dimension: int, spec: dict) -> "Profile":
        def number(cast, key):
            return as_number(cast, require(spec, key, "profile"), f"profile.{key}")

        kind = require(spec, "kind", "profile")
        if kind == "constant":
            return cls.constant(dimension, number(float, "value"))
        if kind == "cosine":
            return cls.cosine(dimension, number(float, "base"),
                              number(float, "amplitude"), number(int, "axis"))
        if kind == "csv":
            path = as_string(require(spec, "path", "profile"), "profile.path")
            return cls.from_grid(load_profile_csv(path, dimension))
        raise ConfigError(f"unknown profile kind {kind!r}")


def _interp_periodic(grid: np.ndarray, pts: np.ndarray, m: int) -> np.ndarray:
    """Multilinear periodic interpolation of a uniform-grid field at points.

    `m` is the grid's logical resolution; an axis stored with length 1 (the
    field is constant along it) is indexed modulo 1, so every corner weight
    and value is the one the full m^d grid gives.
    """
    d = grid.ndim
    x = np.mod(pts, 1.0) * m
    i0 = np.floor(x).astype(np.int64) % m
    frac = x - np.floor(x)
    sizes = np.array(grid.shape)
    lower = i0 % sizes
    upper = (i0 + 1) % sizes
    out = np.zeros(len(pts))
    for corner in range(1 << d):
        idx = []
        weight = np.ones(len(pts))
        for ax in range(d):
            if (corner >> ax) & 1:
                idx.append(upper[:, ax])
                weight *= frac[:, ax]
            else:
                idx.append(lower[:, ax])
                weight *= 1.0 - frac[:, ax]
        out += weight * grid[tuple(idx)]
    return out


def load_profile_csv(path, dimension: int) -> np.ndarray:
    """Load a grid profile from CSV (flat values, side inferred)."""
    try:
        values = np.loadtxt(path, delimiter=",").reshape(-1)
    except ValueError as exc:  # an entry that is no number, or ragged rows
        raise ConfigError(f"profile.path {path}: {exc}") from None
    m = round(len(values) ** (1.0 / dimension))
    if m ** dimension != len(values):
        raise ConfigError("CSV profile length is not a perfect d-th power")
    return values.reshape((m,) * dimension)


def validate_profile(profile: Profile, drift, delta0: float) -> dict:
    """Drift-constancy and boundedness diagnostics on the CHECK_RESOLUTION^d grid.

    Reports max |q . grad rho| (centred differences) and the distance of the
    range from {0, 1}; passes when the former is at most DRIFT_TOL and the
    latter at least delta0.
    """
    q = np.asarray(drift, dtype=np.float64)
    grid = profile.sample_grid(CHECK_RESOLUTION)
    h = 1.0 / CHECK_RESOLUTION
    dirderiv = np.zeros_like(grid)
    for ax in range(profile.dimension):
        if q[ax] == 0.0:
            continue
        dirderiv += q[ax] * (np.roll(grid, -1, axis=ax) - np.roll(grid, 1, axis=ax)) / (2 * h)
    max_violation = float(np.abs(dirderiv).max())
    margin = float(min(grid.min(), 1.0 - grid.max()))
    return {
        "max_drift_derivative": max_violation,
        "distance_to_boundary": margin,
        "drift_constant": max_violation <= DRIFT_TOL,
        "bounded_away": margin >= delta0,
        "ok": max_violation <= DRIFT_TOL and margin >= delta0,
    }

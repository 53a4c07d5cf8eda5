"""Conservative explicit solver for the limiting nonlinear diffusion equation.

The density field lives on a uniform periodic grid over [0,1)^d and evolves
by d_t rho = sum_ij d_i(a_ij(rho) d_j rho), with no forcing term.  Fluxes
sit on cell faces with the coefficient matrix evaluated at the arithmetic
face average, so constant fields are exact fixed points and total mass
telescopes to rounding error.  The coefficient table has at least two
density nodes and must cover the initial field's range.  Every solve
monitors mass conservation and the discrete maximum principle, which keeps
each field inside the initial range, hence inside the table's.  Densities
leaving [0, 1] raise instead of being clamped: under the maximum principle
that only happens when the scheme or the coefficient table is broken.

The scheme keeps an exactly constant axis exactly constant: the face
average there is 0.5 * (v + v) == v and every difference along it is 0.
A field therefore stores such an axis with length 1 (the paper's profiles
are constant along the drift), and the step runs over the stored axes
only.  Along an axis of length 1 every difference is exactly 0, and so is
the flux divergence (`np.roll` along it is the identity), so skipping it
leaves every value the one the full m^d grid would hold, bit for bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation, as_number, require, write_json
from .profiles import _interp_periodic

DENSE_NODES = 4097  # nodes of the uniform lookup grid a DiffusionTable resamples onto
BLEND = 7  # Floater-Hormann blend order: the lowest that reaches the lookup grid's 2e-9 error
EIGEN_SAMPLES = 201  # densities at which `max_eigenvalue` reads the table
SAFETY = 0.9  # the step of `solve_to_time` as a fraction of the stability limit


@dataclass
class DensityField:
    """Periodic grid of densities with spacing 1/m per axis.

    `resolution` is the logical m; without it `values` must be a cubic m^d
    grid.  Every axis along which the grid is exactly constant (checked in
    full by `==`) is stored with length 1, every other axis with length m.
    """

    values: np.ndarray
    resolution: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.resolution is None:
            self.resolution = values.shape[0]
            if any(s != self.resolution for s in values.shape):
                raise ConfigError("density grid must be cubic")
        elif any(s not in (1, self.resolution) for s in values.shape):
            raise ConfigError("density grid axes must have length 1 or the resolution")
        for axis, size in enumerate(values.shape):
            if size > 1:
                first = values.take([0], axis=axis)
                if (values == first).all():
                    values = first
        self.values = values

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    def grid(self) -> np.ndarray:
        """The full m^d grid (a read-only broadcast view of `values`)."""
        return np.broadcast_to(self.values, (self.resolution,) * self.dimension)

    def mass(self) -> float:
        d = self.dimension
        repeats = self.resolution ** d // self.values.size
        return float(self.values.sum() * repeats * self.h ** d)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Periodic multilinear interpolation at (n, d) torus points."""
        return _interp_periodic(self.values, np.asarray(points, dtype=np.float64),
                                self.resolution)

    def copy(self) -> "DensityField":
        return DensityField(self.values.copy(), self.resolution)

    @classmethod
    def from_profile(cls, profile, resolution: int) -> "DensityField":
        return cls(profile.sample_grid(resolution))

    def save_csv(self, path, header: dict | None = None):
        grid = self.grid()
        with open(path, "w") as fh:
            if header:
                fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("# shape " + " ".join(map(str, grid.shape)) + "\n")
            np.savetxt(fh, grid.reshape(1, -1), delimiter=",")

    def save_npy(self, path):
        np.save(path, np.ascontiguousarray(self.grid()))


def _floater_hormann(x, y, points):
    """Floater-Hormann barycentric rational interpolant of y[k] at x[k], at `points`.

    `x` is strictly increasing, `y` has shape (len(x), ...) and the result
    (len(points), ...).  The blend order is `BLEND`, capped at len(x) - 1
    (the polynomial through the nodes); polynomials up to that degree come
    back exactly, and the denominator has no real zero (Floater and
    Hormann, Numer. Math. 107, 2007).  A point equal to a node takes the
    node's value exactly.
    """
    d = min(BLEND, len(x) - 1)
    # w_k = (-1)^k sum over the windows of d + 1 nodes holding x_k of
    # prod_{j != k} 1 / |x_k - x_j|, j running over the window
    windows = np.lib.stride_tricks.sliding_window_view(x, d + 1)
    terms = 1.0 / (np.abs(windows[:, :, None] - windows[:, None, :]) + np.eye(d + 1)).prod(2)
    weights = np.zeros(len(x))
    for k in range(d + 1):
        weights[k:k + len(windows)] += terms[:, k]
    weights[1::2] *= -1.0
    coeffs = points[:, None] - x  # divided in place: the grid makes the largest temporary
    at_node = coeffs == 0.0
    np.divide(weights, coeffs, out=coeffs, where=~at_node)
    hit = at_node.any(axis=1)
    coeffs[hit] = at_node[hit]  # a node's own value, exactly
    coeffs /= coeffs.sum(axis=1, keepdims=True)
    return np.tensordot(coeffs, y, axes=1)


class DiffusionTable:
    """Density-dependent coefficient matrix sampled on a density grid.

    Symmetrized with the asymmetry recorded, then resampled per entry by
    the Floater-Hormann interpolant (`_floater_hormann`, blend order
    `BLEND`) onto a dense uniform grid, which the solver reads by linear
    lookup.  A table needs at least two density nodes, all distinct.
    `floor_matrix`, when given (half the jump covariance), is checked to
    stay below the table in the matrix order at every node and at every
    point of the dense grid: the interpolant is not monotone per entry, so
    it may dip between nodes.  `solved_for` holds what a computed table was
    solved for, its `kernel_entries` and `truncation`, and is empty for any
    other table; `save_json` writes it and `load_json` passes it back.
    """

    def __init__(self, alphas, matrices, floor_matrix=None, solved_for=None):
        alphas = np.asarray(alphas, dtype=np.float64)
        matrices = np.asarray(matrices, dtype=np.float64)
        if (matrices.ndim != 3 or matrices.shape[0] != len(alphas)
                or matrices.shape[1] != matrices.shape[2]):
            raise ConfigError("need one square matrix per density node")
        if len(alphas) < 2:
            raise ConfigError(f"a coefficient table needs at least two density nodes, "
                              f"got {len(alphas)}")
        order = np.argsort(alphas)
        self.alphas = alphas[order]
        repeated = self.alphas[1:][np.diff(self.alphas) == 0.0]
        if len(repeated):
            raise ConfigError(f"coefficient table repeats the density node {repeated[0]:g}")
        mats = matrices[order]
        self.asymmetry = float(np.abs(mats - np.transpose(mats, (0, 2, 1))).max())
        mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        self.matrices = mats
        self.dimension = mats.shape[1]
        self._grid = np.linspace(self.alphas[0], self.alphas[-1], DENSE_NODES)
        dense = _floater_hormann(self.alphas, mats, self._grid)
        self.floor_matrix = None if floor_matrix is None else np.asarray(floor_matrix, float)
        if self.floor_matrix is not None:
            if self.floor_matrix.shape != mats.shape[1:]:
                raise ConfigError(f"coefficient table floor_matrix has shape "
                                  f"{self.floor_matrix.shape}, its matrices {mats.shape[1:]}")
            rhos = np.concatenate([self.alphas, self._grid])
            gaps = np.linalg.eigvalsh(
                np.concatenate([mats, dense]) - self.floor_matrix).min(axis=1)
            worst = int(np.argmin(gaps))
            if gaps[worst] < -1e-6:
                raise ConfigError(
                    f"coefficient table dips below the mobility floor at "
                    f"density {rhos[worst]:g} by {-gaps[worst]:g}")
        self._dense = np.ascontiguousarray(dense.transpose(1, 2, 0))
        self._zero_entry = np.all(self._dense == 0.0, axis=2)
        self.solved_for = solved_for or {}

    @classmethod
    def from_callable(cls, func, dimension: int, nodes: int = 401,
                      lo: float = 0.0, hi: float = 1.0) -> "DiffusionTable":
        alphas = np.linspace(lo, hi, nodes)
        mats = np.stack([np.asarray(func(a), dtype=np.float64).reshape(dimension,
                                                                       dimension)
                         for a in alphas])
        return cls(alphas, mats)

    @classmethod
    def from_diffusion_result(cls, result) -> "DiffusionTable":
        """Hydrodynamic coefficient table a(alpha) from a solver bundle.

        D(0) = 0 and D(1) = sigma, so a(0) = a(1) = sigma / 2: those end
        nodes are added where the density grid lacks them, and the table
        covers every density.
        """
        floor = 0.5 * np.asarray(result.sigma, dtype=np.float64)
        nodes = {0.0: floor, 1.0: floor}
        nodes.update((float(a), np.asarray(result.hydro[a])) for a in result.alphas)
        alphas = sorted(nodes)
        truncation = {key: result.truncation[key] for key in ("radius", "max_degree")}
        return cls(np.array(alphas), np.stack([nodes[a] for a in alphas]), floor_matrix=floor,
                   solved_for={"kernel_entries": result.kernel_entries,
                               "truncation": truncation})

    def entry(self, i: int, j: int, rho: np.ndarray) -> np.ndarray:
        return np.interp(rho, self._grid, self._dense[i, j])

    def entry_is_zero(self, i: int, j: int) -> bool:
        return bool(self._zero_entry[i, j])

    def max_eigenvalue(self, lo: float, hi: float) -> float:
        """Largest |eigenvalue| of the table over `EIGEN_SAMPLES` densities in [lo, hi]."""
        rhos = np.linspace(lo, hi, EIGEN_SAMPLES)
        d = self.dimension
        mats = np.empty((EIGEN_SAMPLES, d, d))
        for i in range(d):
            for j in range(d):
                mats[:, i, j] = self.entry(i, j, rhos)
        return float(np.abs(np.linalg.eigvalsh(mats)).max())

    def save_json(self, path):
        data = {"alphas": self.alphas, "matrices": self.matrices,
                "asymmetry": self.asymmetry}
        if self.floor_matrix is not None:
            data["floor_matrix"] = self.floor_matrix
        data.update(self.solved_for)
        write_json(path, data)

    @classmethod
    def load_json(cls, path) -> "DiffusionTable":
        """A table from JSON.  One that `save_json` wrote keeps the asymmetry
        it records: its matrices are symmetrized, so they would give 0."""
        with open(path) as fh:
            data = json.load(fh)

        def array(key):
            value = require(data, key, "diffusion table")
            try:
                values = np.array(value, dtype=np.float64)
                if np.all(np.isfinite(values)):  # null reads as nan
                    return values
            except (TypeError, ValueError):  # an entry that is no number, or ragged rows
                pass
            raise ConfigError(f"diffusion table {key} must be a rectangular array "
                              "of finite numbers")

        floor = data.get("floor_matrix")
        table = cls(array("alphas"), array("matrices"),
                    floor_matrix=None if floor is None else array("floor_matrix"),
                    solved_for={key: data[key] for key in ("kernel_entries", "truncation")
                                if key in data})
        if "asymmetry" in data:
            table.asymmetry = as_number(float, data["asymmetry"], "diffusion table asymmetry")
        return table


def stability_limit(field: DensityField, table: DiffusionTable) -> float:
    """Largest stable explicit step h^2 / (2 d max-eig) over the field range."""
    lo, hi = float(field.values.min()), float(field.values.max())
    top = table.max_eigenvalue(lo, hi)
    if top <= 0.0:
        return np.inf
    d = field.dimension
    return field.h ** 2 / (2.0 * d * top)


def _stored_axes(values: np.ndarray) -> list:
    """The axes a field stores with more than one node."""
    return [axis for axis, size in enumerate(values.shape) if size > 1]


def _face_gradients(values: np.ndarray, axis: int, h: float) -> dict:
    """Gradient components evaluated on faces normal to `axis`, one per
    stored axis: along an axis of length 1 every difference is exactly 0."""
    grads = {}
    fwd = np.roll(values, -1, axis=axis)
    grads[axis] = (fwd - values) / h
    for j in _stored_axes(values):
        if j == axis:
            continue
        cj = (np.roll(values, -1, axis=j) - np.roll(values, 1, axis=j))
        cj_fwd = (np.roll(fwd, -1, axis=j) - np.roll(fwd, 1, axis=j))
        grads[j] = (cj + cj_fwd) / (4.0 * h)
    return grads


def pde_step(field: DensityField, table: DiffusionTable, dt: float) -> DensityField:
    """One conservative explicit step of size dt.

    dt is not checked here: `solve_to_time` keeps it within `stability_limit`.
    """
    values = field.values
    h = field.h
    stored = _stored_axes(values)
    divergence = np.zeros_like(values)
    for i in stored:
        face_rho = 0.5 * (values + np.roll(values, -1, axis=i))
        grads = _face_gradients(values, i, h)
        flux = np.zeros_like(values)
        for j in stored:
            if table.entry_is_zero(i, j):
                continue
            flux += table.entry(i, j, face_rho) * grads[j]
        divergence += (flux - np.roll(flux, 1, axis=i)) / h
    new_values = values + dt * divergence
    if new_values.min() < 0.0 or new_values.max() > 1.0:
        raise InvariantViolation("density left [0, 1]; scheme or table defect")
    return DensityField(new_values, field.resolution)


@dataclass
class SolveReport:
    """What one `solve_to_time` call did; `shape` is the stored array's and
    `max_overshoot` the largest range overshoot over the steps (0 without one)."""

    steps: int = 0
    dt: float = 0.0
    stability_limit: float = 0.0
    shape: tuple = ()
    mass_drift: float = 0.0
    max_overshoot: float = 0.0
    seconds: float = 0.0


def solve_to_time(field: DensityField, table: DiffusionTable, t_final: float,
                  report: SolveReport | None = None) -> DensityField:
    """Advance to t_final with automatic steps.

    The step is chosen once per call, as `SAFETY` (0.9) times the stability limit
    over the initial field's range.  Every run tracks mass conservation and
    the discrete maximum principle and raises when either drifts beyond
    tolerance (1e-10 relative mass, 1e-12 range overshoot); the maximum
    principle keeps every later field inside the initial range, so the step
    stays stable.  An initial field outside the table's density range is a
    `ConfigError`.  `report`, when given, receives every field of
    `SolveReport`, also for t_final = 0 (no step).
    """
    if t_final < 0:
        raise ConfigError("final time must be nonnegative")
    start = time.perf_counter()
    current = field.copy()
    lo0, hi0 = float(current.values.min()), float(current.values.max())
    if not table.alphas[0] <= lo0 <= hi0 <= table.alphas[-1]:  # also raises for nan
        raise ConfigError(f"densities [{lo0:g}, {hi0:g}] leave the coefficient table's "
                          f"range [{table.alphas[0]:g}, {table.alphas[-1]:g}]")
    mass0 = current.mass()
    limit = stability_limit(current, table)
    dt = SAFETY * limit
    if not np.isfinite(dt):
        dt = t_final
    t = 0.0
    steps = 0
    worst = -np.inf
    while t < t_final:
        step = min(dt, t_final - t)
        current = pde_step(current, table, step)
        t += step
        steps += 1
        overshoot = max(lo0 - current.values.min(), current.values.max() - hi0)
        if overshoot > 1e-12:
            raise InvariantViolation(f"maximum principle violated by {overshoot:g}")
        worst = max(worst, overshoot)
    drift = abs(current.mass() - mass0) / max(abs(mass0), 1e-300)
    if drift > 1e-10:
        raise InvariantViolation(f"mass drifted by {drift:g}")
    if report is not None:
        report.steps = steps
        report.dt = float(dt)
        report.stability_limit = float(limit)
        report.shape = current.values.shape
        report.mass_drift = drift
        report.max_overshoot = float(worst) if steps else 0.0
        report.seconds = time.perf_counter() - start
    return current

"""Resolvent solves on the truncated subset space and what they yield.

The shifted equation (shift - generator image) f_i = c_i is solved per
(density, direction i) for the whole shift ladder at once, on the
point-symmetry orbits of the translation classes of the truncated space
(one unknown per orbit, see `packed`), c_i being the dual current: one
BiCGSTAB run on the smallest shift carries every larger shift on its
Krylov space, and each shift's true residual is checked on its own.
The diffusion matrix at a shift is one degree-weighted pairing of the
solutions with the currents, D_ij = alpha sigma_ij + chi <f_i, c_j>, and is
extrapolated linearly to zero shift entrywise, with the extrapolation
spread reported as the uncertainty.  Also here: the Dirichlet Gram
matrix, the regularized negative-order squared norm, the degree-one
seminorm, the residual split, and the bundle type serialized for the PDE
stage.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantViolation, require, write_json
from .kernels import KernelAnalysis, TruncationParams
from .packed import PackedOperator, PackedSpace, assemble

RESIDUAL_REG = 1e-3  # `reg` of the residual splits that `compute_diffusion` reports


def _krylov_maxiter(size: int) -> int:
    """Iteration cap of a Krylov solve on a space of `size` unknowns."""
    return max(2000, 40 * int(np.sqrt(size)))


def _shifted_bicgstab(matvec, b: np.ndarray, sigmas, xs: list, atol: float,
                      maxiter: int) -> int:
    """BiCGSTAB on A x = b and, in the same Krylov space, on (A + sigma) x = b.

    `xs` holds zero vectors, filled in place: xs[0] with the solution of
    the seed system A x = b, xs[1 + j] with that of shift `sigmas[j]`.
    The seed iterates are scipy 1.17's `bicgstab` from zero without
    preconditioner, every operation in its order, so they match it bit for
    bit; only the probe matvec of its `LinearOperator` is gone.  Every
    matvec is the seed's.

    A shifted system keeps only its solution and its search vector.  Its
    residuals are collinear with the seed's: r^sigma_k = r_k / (z_k tau_k),
    where z_k is the BiCG residual polynomial of the seed at -sigma,
    z_{k+1} = (1 + alpha_k sigma) z_k
              + (alpha_k beta_{k-1} / alpha_{k-1}) (z_k - z_{k-1}),
    and tau_k = prod_j (1 + omega_j sigma) is its stabilising factor.  Then
    alpha^sigma = alpha z_k / z_{k+1}, omega^sigma = omega / (1 + omega
    sigma), beta^sigma = beta (z_{k-1} / z_k)^2, and the shifted operator
    on its search vector is (r^sigma - s^sigma) / alpha^sigma, with
    r_k = s_k + alpha_k v_k.  See Jegerlehner, hep-lat/9612014 (1996), and
    Frommer, Computing 70 (2003).

    Stops when the seed's recursive residual is below `atol`, as scipy
    does; a larger shift, better conditioned, is then solved at least as
    far.  Returns 0 on convergence, `maxiter` when the cap is hit, -10 or
    -11 on a rho or omega breakdown.
    """
    x = xs[0]
    sigmas = np.asarray(sigmas, dtype=np.float64)
    search = [b.copy() for _ in sigmas]
    z = np.ones(len(sigmas))
    z_prev = np.ones(len(sigmas))
    tau = np.ones(len(sigmas))
    tmp = np.empty_like(b)
    breakdown = np.finfo(np.float64).eps ** 2
    r = b.copy()
    rtilde = r.copy()
    rho_prev = omega = alpha = p = v = None
    beta = 0.0
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return 0
        rho = np.dot(rtilde, r)
        if np.abs(rho) < breakdown:
            return -10
        if iteration > 0:
            if np.abs(omega) < breakdown:
                return -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
            # each search vector holds p^sigma - omega^sigma (A + sigma) p^sigma
            # of the last step and becomes the next p^sigma
            for q, zj, zp, tj in zip(search, z, z_prev, tau):
                q *= beta * (zp / zj) ** 2
                np.multiply(r, 1.0 / (zj * tj), out=tmp)
                q += tmp
        else:
            p = r.copy()
        v = matvec(p)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return -11
        alpha_prev, alpha = alpha, rho / rv
        coupling = alpha * beta / alpha_prev if iteration > 0 else 0.0
        z_next = (1.0 + alpha * sigmas) * z + coupling * (z - z_prev)
        alpha_s = alpha * z / z_next
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * p
            for xj, q, aj in zip(xs[1:], search, alpha_s):
                np.multiply(q, aj, out=tmp)
                xj += tmp
            return 0
        t = matvec(r)
        omega = np.dot(t, r) / np.dot(t, t)
        omega_s = omega / (1.0 + omega * sigmas)
        for xj, q, aj, oj, zj, zn, tj in zip(xs[1:], search, alpha_s, omega_s,
                                             z, z_next, tau):
            np.multiply(q, aj, out=tmp)
            xj += tmp
            np.multiply(r, oj / (zn * tj), out=tmp)
            xj += tmp
            np.multiply(v, oj * zn / (zj * zj * tj), out=tmp)
            q -= tmp
            np.multiply(r, oj * (zn - zj) / (alpha * zj * zj * tj), out=tmp)
            q -= tmp
        tau *= 1.0 + omega * sigmas
        z_prev, z = z, z_next
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
    return maxiter


def _cg(matvec, b: np.ndarray, atol: float, maxiter: int):
    """Conjugate gradients from zero, without preconditioner, as scipy 1.17's
    `cg` computes it (bit for bit, without the probe matvec).  Stops when the
    recursive residual is below `atol` or after `maxiter` steps.
    """
    x = np.zeros_like(b)
    r = b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x
        rho = np.dot(r, r)
        if iteration > 0:
            p *= rho / rho_prev
            p += r
        else:
            p = r.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def build_engine(analysis: KernelAnalysis, trunc: TruncationParams) -> PackedOperator:
    space = PackedSpace(analysis.dimension, trunc)
    return assemble(space, analysis)


@dataclass
class SolveInfo:
    iterations: int          # operator matvecs booked to this shift, check included
    residual: float          # Euclidean residual norm, equal to the lifted one
    clipped_outflow: float


def resolvent_solve(engine: PackedOperator, alpha: float, shifts, direction: int):
    """Solve (shift - full operator) f = current for one direction at every shift.

    One shifted BiCGSTAB run seeded with the smallest shift gives every
    solution; then one matvec per shift for the true residual, which must
    not exceed `solver_tol`.  Works on orbit vectors, so each solution
    satisfies the translation identity and is invariant under the kernel's
    point group by construction; the empty set never enters the space, so
    its value stays zero.  Returns (X, infos), X[k] and infos[k] the
    solution and `SolveInfo` at shifts[k].  The seed's info counts the
    shared Krylov matvecs and its own check, every other shift its check.
    """
    shifts = [float(lam) for lam in shifts]
    if not min(shifts) > 0.0:
        raise ConfigError("resolvent shift must be positive")
    space = engine.space
    b = engine.currents[direction]
    tol = space.trunc.solver_tol
    X = np.zeros((len(shifts), space.size))
    if not np.any(b):
        return X, [SolveInfo(0, 0.0, 0.0) for _ in shifts]

    seed = int(np.argmin(shifts))
    rest = [k for k in range(len(shifts)) if k != seed]
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        return engine.resolvent_matvec(x, alpha, shifts[seed])

    info = _shifted_bicgstab(matvec, b, [shifts[k] - shifts[seed] for k in rest],
                             [X[seed]] + [X[k] for k in rest], tol / 4.0,
                             _krylov_maxiter(space.size))
    infos = []
    for k, lam in enumerate(shifts):
        resid = float(np.linalg.norm(engine.resolvent_matvec(X[k], alpha, lam) - b))
        if info < 0 or not np.all(np.isfinite(X[k])) or not resid <= tol:
            raise InvariantViolation(
                f"resolvent solve failed: residual {resid:g} at shift {lam:g} against "
                f"tolerance {tol:g}, bicgstab info {info}")
        infos.append(SolveInfo(1 + (matvecs if k == seed else 0), resid,
                               engine.clipped_outflow(X[k])))
    return X, infos


def dirichlet_gram(engine: PackedOperator, X: np.ndarray) -> np.ndarray:
    """Dirichlet Gram matrix H_ij = <X_i, (-sym part) X_j> of a vector stack.

    Degree-weighted pairing; built one column (one symmetric-part matvec) at
    a time, so no second stack is held.  A zero column costs no matvec.
    """
    H = np.empty((len(X), len(X)))
    for j, x in enumerate(X):
        if not x.any():  # its row and column of H are 0
            H[:, j] = 0.0
            continue
        sx = -engine.apply_sym(x)
        H[:, j] = [engine.space.dot(y, sx) for y in X]
    return H


def h_minus_one_sq(engine: PackedOperator, b: np.ndarray, reg: float) -> float:
    """Regularized squared negative-order norm <b, u>, (reg - sym part) u = b.

    The symmetric part is a symmetric matrix in the orthonormal orbit basis,
    so conjugate gradients apply directly and the residual is the lifted
    one, which must not exceed `solver_tol`; the degree weights only enter
    the final pairing.
    """
    if reg <= 0.0:
        raise ConfigError("regularization must be positive")
    space = engine.space
    if not np.any(b):
        return 0.0

    def matvec(x):
        return reg * x - engine.apply_sym(x)

    tol = space.trunc.solver_tol
    u = _cg(matvec, b, tol, _krylov_maxiter(space.size))
    resid = float(np.linalg.norm(matvec(u) - b))
    if not resid <= tol:
        raise InvariantViolation(f"negative-norm solve stalled at residual {resid:g} "
                                 f"against tolerance {tol:g}")
    return max(space.dot(b, u), 0.0)


def extrapolate_to_zero(shifts, values):
    """Linear-in-shift extrapolation from the two smallest shifts, plus spread.

    `values` holds one scalar or array per shift; arrays are extrapolated
    entrywise.  Needs at least three distinct shifts, as the ladder
    `TruncationParams.lambda_seq` has.  Returns (limit, spread) where the
    spread is the difference against the extrapolation from the next shift
    pair.
    """
    order = np.argsort(shifts)[::-1]  # descending
    s = np.asarray(shifts, dtype=np.float64)[order]
    v = np.asarray(values, dtype=np.float64)[order]

    def pair(i, j):
        return v[j] - s[j] * (v[i] - v[j]) / (s[i] - s[j])
    best = pair(-2, -1)
    return best, np.abs(best - pair(-3, -2))


def hydrodynamic_matrix(alpha: float, diffusion: np.ndarray,
                        sigma: np.ndarray) -> np.ndarray:
    """PDE coefficient matrix: diffusion plus half (1-2 alpha) covariance."""
    return diffusion + 0.5 * (1.0 - 2.0 * alpha) * np.asarray(sigma)


def degree_one_seminorm(c, alpha: float, sigma) -> dict:
    """Closed form of the degree-one variational seminorm.

    For a first-moment vector c the supremum over slopes evaluates to
    (2/chi) c . sigma^+ c; components of c outside the range of sigma make
    the supremum infinite (flagged, not raised).
    """
    c = np.asarray(c, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    chi = alpha * (1.0 - alpha)
    if chi <= 0.0:
        raise ConfigError("degree-one seminorm needs a density inside (0, 1)")
    pinv = np.linalg.pinv(sigma, rcond=1e-12)
    proj = sigma @ pinv @ c
    scale = max(float(np.linalg.norm(c)), 1e-300)
    unbounded = bool(np.linalg.norm(c - proj) > 1e-10 * scale and np.any(c != 0.0))
    value = float(2.0 / chi * c @ pinv @ c)
    return {"value": value, "unbounded": unbounded}


def residual_triple_norm(engine: PackedOperator, alpha: float, direction: int,
                         leftover: np.ndarray, h: np.ndarray, reg: float) -> dict:
    """Split approximation error of a candidate correction h.

    The degree-two-and-up part is chi^2 times the squared negative-order
    norm of (current + full-operator image of h); the degree-one part is the
    closed-form seminorm of chi times `leftover`, the first-moment vector
    left over: the diffusion row minus the row that h reads off.
    """
    chi = alpha * (1.0 - alpha)
    b = engine.currents[direction]
    high = chi * chi * h_minus_one_sq(engine, b + engine.apply_full(h, alpha), reg)
    low = degree_one_seminorm(chi * np.asarray(leftover), alpha, engine.analysis.covariance)
    return {"degree_two_plus": high, "degree_one": low["value"],
            "degree_one_unbounded": low["unbounded"],
            "total": high + low["value"]}


def mobility_gap(analysis: KernelAnalysis, alpha: float, v: np.ndarray,
                 h1_by_shift: dict, diffusion_by_shift: dict) -> dict:
    """Consistency gap between the mobility form and the Dirichlet form.

    Left side: chi v.(D - alpha sigma) v; right side: the Dirichlet form of
    the susceptibility-scaled combination chi sum_j v_j f_j (whose value per
    shift is supplied).  Both sides are extrapolated to zero shift the same
    way before comparing.
    """
    sigma = analysis.covariance
    chi = alpha * (1.0 - alpha)
    v = np.asarray(v, dtype=np.float64)
    shifts = sorted(h1_by_shift.keys(), reverse=True)
    left_vals = [float(chi * v @ (diffusion_by_shift[lam] - alpha * sigma) @ v)
                 for lam in shifts]
    right_vals = [chi * chi * h1_by_shift[lam] for lam in shifts]
    left = float(extrapolate_to_zero(shifts, left_vals)[0])
    right = float(extrapolate_to_zero(shifts, right_vals)[0])
    gap = abs(left - right) / max(abs(left), abs(right), 1e-12)
    return {"left": left, "right": right, "gap": gap}


@dataclass
class DiffusionResult:
    """Diffusion and PDE matrices over a density grid, with diagnostics."""

    dimension: int
    alphas: list
    sigma: np.ndarray
    diffusion: dict          # alpha -> (d, d)
    hydro: dict              # alpha -> (d, d)
    spread: dict             # alpha -> (d, d) extrapolation spread
    per_shift: dict          # alpha -> {shift: (d, d)}
    energy: dict             # alpha -> {shift: [per-direction energy]}
    mobility: dict           # alpha -> {vector label: gap record}
    residuals: dict          # alpha -> per-direction residual splits
    solver: dict             # iteration/violation/clip diagnostics
    truncation: dict
    kernel_entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def symmetry_gap(self) -> float:
        worst = 0.0
        for mat in self.diffusion.values():
            worst = max(worst, float(np.abs(mat - mat.T).max()))
        return worst

    def min_eig_above_mobility_floor(self) -> float:
        """Smallest eigenvalue of D(alpha) - alpha sigma over the grid."""
        worst = np.inf
        for alpha in self.alphas:
            m = self.diffusion[alpha] - alpha * self.sigma
            m = 0.5 * (m + m.T)
            worst = min(worst, float(np.linalg.eigvalsh(m).min()))
        return worst

    def save_json(self, path):
        write_json(path, vars(self))

    @classmethod
    def load_json(cls, path) -> "DiffusionResult":
        with open(path) as fh:
            data = json.load(fh)

        def get(key):
            return require(data, key, "diffusion result")

        def parse(entry):
            return {float(k): np.array(v) for k, v in entry.items()}

        solver = dict(get("solver"))
        if "clipped_outflow" in solver:  # absent from files of earlier versions
            solver["clipped_outflow"] = {float(k): v
                                         for k, v in solver["clipped_outflow"].items()}

        return cls(
            dimension=int(get("dimension")),
            alphas=[float(a) for a in get("alphas")],
            sigma=np.array(get("sigma")),
            diffusion=parse(get("diffusion")),
            hydro=parse(get("hydro")),
            spread=parse(get("spread")),
            per_shift={float(k): parse(v) for k, v in get("per_shift").items()},
            energy={float(k): {float(s): list(e) for s, e in v.items()}
                    for k, v in get("energy").items()},
            mobility={float(k): v for k, v in get("mobility").items()},
            residuals={float(k): v for k, v in get("residuals").items()},
            solver=solver,
            truncation=get("truncation"),
            kernel_entries=data.get("kernel_entries", []),
            notes=data.get("notes", []),
        )

    def save_csv(self, path):
        d = self.dimension
        cols = ["alpha"]
        for tag in ("D", "a"):
            cols += [f"{tag}_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        lines = [",".join(cols)]
        for a in self.alphas:
            row = [repr(float(a))]
            row += [repr(float(x)) for x in np.asarray(self.diffusion[a]).reshape(-1)]
            row += [repr(float(x)) for x in np.asarray(self.hydro[a]).reshape(-1)]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def compute_diffusion(analysis: KernelAnalysis, alphas, trunc: TruncationParams,
                      mobility_vectors=None, with_residuals: bool = False,
                      engine: PackedOperator | None = None,
                      stages: dict | None = None) -> DiffusionResult:
    """Full pipeline: solve over the density grid and shift sequence.

    One shifted solve per (density, direction) gives every shift of the
    sequence; the per-shift energies, mobility gaps and (optionally)
    residual splits are derived from the same solutions.  Energies and
    mobility right sides read one d x d Dirichlet Gram matrix H per shift:
    the energy of direction i is shift |X_i|^2 + H_ii, and that of the
    combination sum_i v_i X_i is v.H v.  A `stages` dict receives, per
    density, the solve seconds and, per shift, the matvecs (the shared
    Krylov ones booked to the smallest shift) and the worst true residual,
    for the run side file.

    Particle-hole symmetry halves the grid.  A density alpha > 1/2 is not
    solved when an earlier density beta < 1/2 of the grid, with
    1 - beta == alpha in floating point, was: its leaves are filled from
    beta's.  D(alpha) = alpha sigma + (D(beta) - beta sigma) at every
    shift, extrapolated and turned into a(alpha) as a solved density's
    are, and beta's energies, mobility gaps, residual splits and clipped
    outflow are copied.  Its `stages` entry names the source (`mirror_of`)
    and books 0 matvecs to every shift.  The leaves are the values at
    1 - beta, which differs from alpha by at most half an ulp.

    Why the leaves agree, on every truncation.  Let R map each set A to
    -A and P multiply a set function by (-1)^degree, and U = P R.  The
    truncation is closed under R (-A u {0} has the sup-norm diameter of
    A u {0}), R maps translation classes to classes and commutes with the
    point group (signed axis permutations, with which -1 commutes), so U
    is a signed permutation of the orbit coordinates that keeps degrees:
    an involution, orthogonal and self-adjoint in the degree-weighted
    pairing.  Under R a move of a point by v becomes one by -v; the even
    weights s(v) = s(-v) are kept, while the odd weights a(-v) = -a(v)
    change sign, and so do the degree-changing arrows, whose weights are
    sums of odd weights.  P keeps the degree-preserving arrows and
    negates the degree-changing ones.  So U keeps the even part S and the
    degree-changing part and negates the odd part, whose coefficient is
    1 - 2 alpha, while the degree-changing coefficient sqrt(chi) is the
    same at alpha and 1 - alpha: U L(alpha) U = L(1 - alpha), the
    truncated generators included.  The current c_i({z}) = -2 z_i a(z),
    on singletons, is even under R and odd under P: U c_i = -c_i.  Hence
    at every shift f_i(1 - alpha) = -U f_i(alpha) and
    <f_i(1 - alpha), c_j> = <f_i(alpha), c_j>, so D - alpha sigma, and with
    it a(alpha) = D + (1/2 - alpha) sigma, is the same at both densities.
    Every copied leaf is invariant under f -> -U f: the energies and the
    Gram matrices of the mobility gaps are quadratic forms of S, which U
    keeps; the residual split reads the negative-order norm of S at
    c + L(alpha) f, which becomes -U (c + L(alpha) f), and the leftover
    row of D - alpha sigma; the clipped outflow weighs each orbit by its
    clipped moves, and A's move by v clips exactly when -A's move by -v
    does, with s and a^2 even.  Particle-hole duality of exclusion:
    Liggett, *Interacting Particle Systems* (1985), ch. VIII.
    """
    if engine is None:
        engine = build_engine(analysis, trunc)
    space = engine.space
    d = analysis.dimension
    sigma = analysis.covariance
    shifts = sorted(trunc.lambda_seq, reverse=True)
    if mobility_vectors is None:
        mobility_vectors = {}

    diffusion, hydro, spread = {}, {}, {}
    per_shift_all, energy_all, mobility_all, residuals_all = {}, {}, {}, {}
    sizes = {"space_size": space.n_sets, "classes": space.classes.size,
             "orbits": space.size, "symmetry_order": space.symmetry_order}
    solver_stats = {"iterations": 0, "max_residual": 0.0, "max_clipped_outflow": 0.0,
                    "clipped_outflow": {}, **sizes}
    if stages is None:
        stages = {}
    # the solutions of one density, [shift, direction], overwritten by the next
    sols = np.empty((len(shifts), d, space.size))
    alphas = [float(a) for a in alphas]
    mirrors = {}  # 1 - beta -> beta, for every solved density beta < 1/2

    for alpha in alphas:
        chi = alpha * (1.0 - alpha)
        start = time.perf_counter()
        beta = mirrors.get(alpha)
        if beta is not None:
            dm_per_shift = {lam: alpha * sigma + (dm - beta * sigma)
                            for lam, dm in per_shift_all[beta].items()}
            dmat, spread[alpha] = extrapolate_to_zero(
                shifts, [dm_per_shift[lam] for lam in shifts])
            diffusion[alpha] = dmat
            per_shift_all[alpha] = dm_per_shift
            hydro[alpha] = hydrodynamic_matrix(alpha, dmat, sigma)
            energy_all[alpha] = copy.deepcopy(energy_all[beta])
            mobility_all[alpha] = copy.deepcopy(mobility_all[beta])
            residuals_all[alpha] = copy.deepcopy(residuals_all[beta])
            solver_stats["clipped_outflow"][alpha] = solver_stats["clipped_outflow"][beta]
            stages[alpha] = {"seconds": time.perf_counter() - start, "mirror_of": beta,
                             "shifts": {lam: {"matvecs": 0} for lam in shifts}}
            continue
        if alpha < 0.5:
            mirrors[1.0 - alpha] = alpha
        energy = {}
        dm_per_shift = {}
        grams = {}
        infos = []  # per direction, one SolveInfo per shift
        for i in range(d):
            sols[:, i], info_i = resolvent_solve(engine, alpha, shifts, i)
            infos.append(info_i)
        clipped = max(info.clipped_outflow for info_i in infos for info in info_i)
        per_shift = {}
        for k, lam in enumerate(shifts):
            X = sols[k]
            per_shift[lam] = {"matvecs": sum(info_i[k].iterations for info_i in infos),
                              "residual": max(info_i[k].residual for info_i in infos)}
            solver_stats["iterations"] += per_shift[lam]["matvecs"]
            solver_stats["max_residual"] = max(solver_stats["max_residual"],
                                               per_shift[lam]["residual"])
            H = grams[lam] = dirichlet_gram(engine, X)
            energy[lam] = [float(lam * space.dot(X[i], X[i]) + H[i, i]) for i in range(d)]
            dm_per_shift[lam] = alpha * sigma + chi * ((X * space.weight) @ engine.currents.T)
        dmat, spread[alpha] = extrapolate_to_zero(
            shifts, [dm_per_shift[lam] for lam in shifts])
        diffusion[alpha] = dmat
        per_shift_all[alpha] = dm_per_shift
        hydro[alpha] = hydrodynamic_matrix(alpha, dmat, sigma)
        energy_all[alpha] = energy

        mob = {}
        for label, v in mobility_vectors.items():
            v = np.asarray(v, dtype=np.float64)
            h1v = {lam: float(v @ grams[lam] @ v) for lam in shifts}
            mob[label] = mobility_gap(analysis, alpha, v, h1v, dm_per_shift)
        mobility_all[alpha] = mob

        res = {}
        if with_residuals and chi > 0.0:
            lam_min = shifts[-1]
            for i in range(d):
                res[str(i)] = residual_triple_norm(
                    engine, alpha, i, dmat[i] - dm_per_shift[lam_min][i],
                    sols[-1][i], reg=RESIDUAL_REG)
        residuals_all[alpha] = res
        solver_stats["clipped_outflow"][alpha] = clipped
        solver_stats["max_clipped_outflow"] = max(solver_stats["max_clipped_outflow"],
                                                  clipped)
        stages[alpha] = {"seconds": time.perf_counter() - start, "shifts": per_shift}

    return DiffusionResult(
        dimension=d,
        alphas=alphas,
        sigma=sigma,
        diffusion=diffusion,
        hydro=hydro,
        spread=spread,
        per_shift=per_shift_all,
        energy=energy_all,
        mobility=mobility_all,
        residuals=residuals_all,
        solver=solver_stats,
        truncation={"radius": trunc.radius, "max_degree": trunc.max_degree,
                    "solver_tol": trunc.solver_tol,
                    "lambda_seq": list(trunc.lambda_seq), **sizes},
        kernel_entries=analysis.kernel.to_entries(),
    )

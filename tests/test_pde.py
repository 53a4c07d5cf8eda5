import json

import numpy as np
import pytest
import sympy

from torusgas.errors import ConfigError, InvariantViolation
from torusgas.packed import TruncationParams
from torusgas.pde import (BLEND, DENSE_NODES, EIGEN_SAMPLES, SAFETY, DensityField,
                          DiffusionTable, SolveReport, _floater_hormann, pde_step, solve_to_time,
                          stability_limit)
from torusgas.profiles import Profile, _interp_periodic
from torusgas.resolvent import compute_diffusion


def reference_step(values, table, dt, h):
    """One step of the face-flux scheme on a plain full m^d array."""
    d = values.ndim
    divergence = np.zeros_like(values)
    for i in range(d):
        fwd = np.roll(values, -1, axis=i)
        face_rho = 0.5 * (values + fwd)
        flux = np.zeros_like(values)
        for j in range(d):
            if table.entry_is_zero(i, j):
                continue
            if j == i:
                grad = (fwd - values) / h
            else:
                grad = ((np.roll(values, -1, axis=j) - np.roll(values, 1, axis=j))
                        + (np.roll(fwd, -1, axis=j) - np.roll(fwd, 1, axis=j))) / (4.0 * h)
            flux += table.entry(i, j, face_rho) * grad
        divergence += (flux - np.roll(flux, 1, axis=i)) / h
    return values + dt * divergence


def reference_dt(values, table):
    """0.9 times the explicit stability bound h^2 / (2 d max-eig)."""
    d, h = values.ndim, 1.0 / values.shape[0]
    top = table.max_eigenvalue(float(values.min()), float(values.max()))
    return 0.9 * (h ** 2 / (2.0 * d * top))


def reference_solve(values, table, t_final):
    """Full-grid solve to t_final with the step rule of `solve_to_time`."""
    values = np.array(values, dtype=np.float64)
    dt = reference_dt(values, table)
    t = 0.0
    while t < t_final:
        step = min(dt, t_final - t)
        values = reference_step(values, table, step, 1.0 / values.shape[0])
        t += step
    return values


def manufactured_errors() -> dict:
    """Max error at t = 0.05 of the forced scheme on a manufactured solution, m = 32 and 64.

    rho = 1/2 + e^-t cos(2 pi x) / 5 + e^-2t sin(2 pi y) / 10 solves the
    equation with the table a(rho) below plus the source
    S = d_t rho - div(a(rho) grad rho).  The solver has no forcing term, so
    each step is one `pde_step` followed by the source's step * S(t), with
    the step rule of `solve_to_time`: SAFETY times the initial field's
    stability limit, the last step cut to end at t = 0.05.
    """
    t_s, x_s, y_s = sympy.symbols("t x y")
    rho_s = (sympy.Rational(1, 2)
             + sympy.Rational(1, 5) * sympy.exp(-t_s) * sympy.cos(2 * sympy.pi * x_s)
             + sympy.Rational(1, 10) * sympy.exp(-2 * t_s) * sympy.sin(2 * sympy.pi * y_s))
    a11 = 0.10 + 0.05 * rho_s
    a22 = 0.08 + 0.03 * rho_s ** 2
    a12 = 0.01 * rho_s
    flux_x = a11 * sympy.diff(rho_s, x_s) + a12 * sympy.diff(rho_s, y_s)
    flux_y = a12 * sympy.diff(rho_s, x_s) + a22 * sympy.diff(rho_s, y_s)
    source_s = sympy.diff(rho_s, t_s) - (sympy.diff(flux_x, x_s)
                                         + sympy.diff(flux_y, y_s))
    source_fn = sympy.lambdify((t_s, x_s, y_s), source_s, "numpy")
    rho_fn = sympy.lambdify((t_s, x_s, y_s), rho_s, "numpy")

    def a_of(alpha):
        return np.array([[0.10 + 0.05 * alpha, 0.01 * alpha],
                         [0.01 * alpha, 0.08 + 0.03 * alpha ** 2]])

    tab = DiffusionTable.from_callable(a_of, 2, nodes=401)
    horizon = 0.05
    errors = {}
    for m in (32, 64):
        xs = np.arange(m) / m
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        fld = DensityField(rho_fn(0.0, X, Y))
        dt = SAFETY * stability_limit(fld, tab)
        t = 0.0
        while t < horizon:
            step = min(dt, horizon - t)
            fld = DensityField(pde_step(fld, tab, step).values + step * source_fn(t, X, Y))
            t += step
        errors[m] = float(np.abs(fld.values - rho_fn(horizon, X, Y)).max())
    return errors


def table_d3():
    """A density-dependent 3x3 table with live off-diagonal entries."""
    return DiffusionTable.from_callable(
        lambda a: np.array([[0.20 + 0.05 * a, 0.02 * a, 0.01],
                            [0.02 * a, 0.12 + 0.04 * a * a, -0.015 * a],
                            [0.01, -0.015 * a, 0.15 - 0.03 * a]]), 3, nodes=101)


def grid_d3(m, varying):
    """A smooth m^3 grid that varies exactly along the `varying` axes."""
    u = np.arange(m) / m
    out = np.full((m, m, m), 0.5)
    for k, ax in enumerate(varying):
        shape = [1, 1, 1]
        shape[ax] = m
        wave = np.cos(2 * np.pi * u + k) if k % 2 == 0 else np.sin(4 * np.pi * u)
        out = out + (0.12 / (k + 1)) * wave.reshape(shape)
    return out


def test_constant_field_fixed_point():
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.2]), 2, nodes=2)
    f0 = DensityField(np.full((16, 16), 0.37))
    f1 = solve_to_time(f0, tab, 0.1)
    assert np.abs(f1.values - 0.37).max() == 0.0


def test_single_step_mass_exact():
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.05, 0.08]), 2, nodes=2)
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 32)
    dt = 0.5 * stability_limit(f0, tab)
    f1 = pde_step(f0, tab, dt)
    assert abs(f1.mass() - f0.mass()) <= 1e-14 * abs(f0.mass())


def test_heat_mode_decay_rate():
    sigma_half = np.diag([0.05, 0.08])
    tab = DiffusionTable.from_callable(lambda a: sigma_half, 2, nodes=2)
    m = 64
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), m)
    t = 0.5
    rep = SolveReport()
    f1 = solve_to_time(f0, tab, t, report=rep)
    u = np.arange(m) / m
    mode = np.cos(2 * np.pi * u)[None, :] * np.ones((m, 1))
    amp = 2 * np.mean(f1.values * mode)
    expected = 0.2 * np.exp(-4 * np.pi ** 2 * sigma_half[1, 1] * t)
    assert abs(amp / expected - 1.0) < 0.005
    assert rep.mass_drift <= 1e-10


def test_maximum_principle_and_drift_invariance():
    tab = DiffusionTable.from_callable(
        lambda a: np.diag([0.1 + 0.05 * a, 0.08 + 0.03 * a]), 2)
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.25, axis=1), 48)
    lo0, hi0 = f0.values.min(), f0.values.max()
    f1 = solve_to_time(f0, tab, 0.2)
    assert f1.values.min() >= lo0 - 1e-12
    assert f1.values.max() <= hi0 + 1e-12
    # constant along axis 0 initially, stays constant to rounding: the field
    # keeps axis 0 stored with length 1, and the scheme on the full grid
    # keeps it constant too
    assert f1.values.shape == (1, 48)
    assert np.abs(f1.values - f1.values[0:1, :]).max() <= 1e-12
    ref = reference_solve(f0.grid(), tab, 0.2)
    assert np.abs(ref - ref[0:1, :]).max() <= 1e-12


def test_manufactured_solution_convergence_order():
    errors = manufactured_errors()
    ratio = errors[32] / errors[64]
    assert 3.4 <= ratio <= 4.6


def test_time_zero_and_bad_inputs():
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.1]), 2, nodes=2)
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=0), 16)
    rep = SolveReport()
    same = solve_to_time(f0, tab, 0.0, report=rep)
    assert np.array_equal(same.values, f0.values)
    # a solve that takes no step reports so, with the field it kept
    assert (rep.steps, rep.shape, rep.mass_drift, rep.max_overshoot) == (0, (16, 1), 0.0, 0.0)
    assert rep.stability_limit == stability_limit(f0, tab)
    with pytest.raises(ConfigError):
        solve_to_time(f0, tab, -1.0)


def test_step_size_is_chosen_once_per_solve(monkeypatch):
    # the stability limit is scanned once per solve, over the initial range;
    # the steps themselves never rescan it
    from torusgas import pde

    calls = []
    original = pde.stability_limit

    def counting(field, table):
        calls.append(field.values.shape)
        return original(field, table)

    monkeypatch.setattr(pde, "stability_limit", counting)
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.1]), 2, nodes=2)
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=0), 16)
    rep = SolveReport()
    solve_to_time(f0, tab, 0.05, report=rep)
    assert rep.steps > 1 and len(calls) == 1
    assert rep.dt == 0.9 * original(f0, tab)
    pde_step(f0, tab, rep.dt)
    assert len(calls) == 1


def test_density_leaving_unit_interval_raises():
    # a step 50 times the stability limit drives a one-site spike below 0
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.1]), 2, nodes=2)
    values = np.full((8, 8), 0.1)
    values[3, 4] = 0.9
    f0 = DensityField(values)
    with pytest.raises(InvariantViolation, match=r"left \[0, 1\]"):
        pde_step(f0, tab, 50.0 * stability_limit(f0, tab))


def test_table_floor_check(kernel_d2_asym):
    sigma = kernel_d2_asym.covariance
    alphas = np.linspace(0, 1, 11)
    good = np.stack([0.5 * sigma + 0.01 * a * np.eye(2) for a in alphas])
    DiffusionTable(alphas, good, floor_matrix=0.5 * sigma)  # passes
    bad = np.stack([0.5 * sigma - 0.05 * np.eye(2) for _ in alphas])
    with pytest.raises(ConfigError):
        DiffusionTable(alphas, bad, floor_matrix=0.5 * sigma)
    # on the floor at every node but 0.5, above it there: the interpolant's
    # side lobes take it below the floor between the nodes
    spike = np.stack([0.5 * sigma + (a == 0.5) * 0.05 * np.eye(2) for a in alphas])
    assert min(np.linalg.eigvalsh(m - 0.5 * sigma).min() for m in spike) >= 0.0
    dense = DiffusionTable(alphas, spike)._dense.transpose(2, 0, 1)
    assert np.linalg.eigvalsh(dense - 0.5 * sigma).min() < -1e-6
    with pytest.raises(ConfigError, match="dips below the mobility floor"):
        DiffusionTable(alphas, spike, floor_matrix=0.5 * sigma)


def test_table_needs_two_density_nodes(tmp_path):
    # a one-node table had no interpolant: it was read as a constant
    one = np.diag([0.1, 0.2])[None]
    with pytest.raises(ConfigError, match="at least two density nodes"):
        DiffusionTable(np.array([0.5]), one)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"alphas": [0.5], "matrices": one.tolist()}))
    with pytest.raises(ConfigError, match="at least two density nodes"):
        DiffusionTable.load_json(path)


def test_table_rejects_repeated_density_nodes(tmp_path, recwarn):
    # two matrices at 0.3 built with divide-by-zero warnings and read one of them
    mats = np.stack([0.2 * np.eye(2), 0.3 * np.eye(2), 0.25 * np.eye(2)])
    with pytest.raises(ConfigError, match="repeats the density node 0.3"):
        DiffusionTable(np.array([0.7, 0.3, 0.3]), mats)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"alphas": [0.3, 0.3, 0.7], "matrices": mats.tolist()}))
    with pytest.raises(ConfigError, match="repeats the density node 0.3"):
        DiffusionTable.load_json(path)
    assert not recwarn.list


def test_table_io_roundtrip(tmp_path):
    alphas = np.linspace(0.1, 0.9, 9)
    mats = np.stack([np.diag([0.1 + 0.2 * a, 0.3 - 0.1 * a]) for a in alphas])
    tab = DiffusionTable(alphas, mats)
    path = tmp_path / "table.json"
    tab.save_json(path)
    tab2 = DiffusionTable.load_json(path)
    rho = np.linspace(0.15, 0.85, 7)
    for i in range(2):
        assert np.abs(tab.entry(i, i, rho) - tab2.entry(i, i, rho)).max() < 1e-12


def test_table_io_keeps_recorded_asymmetry(tmp_path):
    # the stored matrices are symmetrized, so recomputing the asymmetry from
    # them gave 0.0 on every reload
    alphas = np.linspace(0.1, 0.9, 5)
    mats = np.stack([[[0.3 + 0.1 * a, 0.02 * a], [-0.01, 0.2]] for a in alphas])
    tab = DiffusionTable(alphas, mats, floor_matrix=np.diag([0.1, 0.1]))
    assert tab.asymmetry > 0.0
    path = tmp_path / "table.json"
    tab.save_json(path)
    back = DiffusionTable.load_json(path)
    assert back.asymmetry == tab.asymmetry
    assert np.array_equal(back.alphas, tab.alphas)
    assert np.array_equal(back.matrices, tab.matrices)
    assert np.array_equal(back.floor_matrix, tab.floor_matrix)
    # a table written without the record is measured from its matrices
    data = json.loads(path.read_text())
    del data["asymmetry"]
    data["matrices"] = mats.tolist()
    path.write_text(json.dumps(data))
    assert DiffusionTable.load_json(path).asymmetry == tab.asymmetry


def test_field_io_roundtrip(tmp_path):
    f = DensityField(np.random.default_rng(0).uniform(0.2, 0.8, (6, 6)))
    p_csv = tmp_path / "f.csv"
    header = {"d": 2, "N": 6, "K": 1, "t": 0.5, "replica": 0, "seed": 1}
    f.save_csv(p_csv, header)
    lines = p_csv.read_text().splitlines()
    assert json.loads(lines[0][2:]) == header
    assert lines[1] == "# shape 6 6"
    g = np.loadtxt(p_csv, delimiter=",").reshape(6, 6)
    assert np.abs(g - f.values).max() < 1e-12
    p_npy = tmp_path / "f.npy"
    f.save_npy(p_npy)
    assert np.array_equal(np.load(p_npy), f.values)


def test_max_eigenvalue_matches_per_sample_reference():
    def coeff(a):
        return np.array([[0.2 + a, 0.05 * a, -0.03],
                         [0.05 * a, 0.1 + a * (1 - a), 0.02 * a],
                         [-0.03, 0.02 * a, 0.15 - 0.1 * a]])

    tab = DiffusionTable.from_callable(coeff, 3, nodes=11)
    lo, hi = 0.12, 0.83
    ref = 0.0
    for r in np.linspace(lo, hi, EIGEN_SAMPLES):
        m = np.array([[tab.entry(i, j, np.array([r]))[0] for j in range(3)]
                      for i in range(3)])
        ref = max(ref, float(np.abs(np.linalg.eigvalsh(m)).max()))
    assert tab.max_eigenvalue(lo, hi) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("varying", [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)])
def test_stored_axes_step_bit_identical_to_full_grid(varying):
    tab = table_d3()
    m = 16
    if len(varying) == 1:
        full = Profile.cosine(3, 0.5, 0.2, axis=varying[0]).sample_grid(m)
        fld = DensityField.from_profile(Profile.cosine(3, 0.5, 0.2, axis=varying[0]), m)
    else:
        full = grid_d3(m, varying)
        fld = DensityField(full)
    assert fld.values.shape == tuple(m if ax in varying else 1 for ax in range(3))
    assert fld.resolution == m and fld.dimension == 3 and fld.h == 1.0 / m
    dt = reference_dt(full, tab)
    assert 0.9 * stability_limit(fld, tab) == dt
    for _ in range(25):
        fld = pde_step(fld, tab, dt)
        full = reference_step(full, tab, dt, 1.0 / m)
        assert np.array_equal(fld.grid(), full)
    assert fld.values.shape == tuple(m if ax in varying else 1 for ax in range(3))
    assert fld.mass() == pytest.approx(full.mean(), rel=1e-14)


def test_stored_axes_solve_bit_identical_to_full_grid():
    tab = table_d3()
    profile = Profile.cosine(3, 0.5, 0.2, axis=1)
    full = profile.sample_grid(16)
    rep = SolveReport()
    fld = solve_to_time(DensityField.from_profile(profile, 16), tab, 0.06, report=rep)
    ref = reference_solve(full, tab, 0.06)
    assert rep.steps >= 20 and rep.shape == (1, 16, 1)
    assert rep.dt == reference_dt(full, tab)
    assert np.array_equal(fld.grid(), ref)


def test_field_without_constant_axis_keeps_full_shape():
    values = np.random.default_rng(3).uniform(0.3, 0.7, (16, 16, 16))
    fld = DensityField(values)
    assert fld.values.shape == (16, 16, 16)
    assert np.array_equal(fld.values, values)
    # one differing entry is enough to keep an axis
    almost = np.full((16, 16, 16), 0.4)
    almost[5, 9, 2] = np.nextafter(0.4, 1.0)
    assert DensityField(almost).values.shape == (16, 16, 16)
    assert DensityField(np.full((16, 16, 16), 0.4)).values.shape == (1, 1, 1)
    with pytest.raises(ConfigError):
        DensityField(np.full((16, 8, 16), 0.4))
    with pytest.raises(ConfigError):
        DensityField(np.full((1, 8, 1), 0.4), resolution=16)


@pytest.mark.parametrize("varying", [(1,), (0, 2), (0, 1, 2), ()])
def test_evaluate_off_node_bit_identical_to_full_grid(varying):
    m = 16
    full = grid_d3(m, varying)
    fld = DensityField(full)
    assert fld.values.ndim == 3 and fld.values.size == m ** len(varying)
    pts = np.random.default_rng(7).uniform(-1.5, 2.5, (500, 3))
    pts[:5] = np.arange(15).reshape(5, 3) / m  # grid nodes
    assert np.array_equal(fld.evaluate(pts), _interp_periodic(full, pts, m))


def test_save_writes_full_grid(tmp_path):
    profile = Profile.cosine(3, 0.5, 0.2, axis=2)
    fld = DensityField.from_profile(profile, 8)
    assert fld.values.shape == (1, 1, 8)
    fld.save_csv(tmp_path / "f.csv", {"m": 8})
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[1] == "# shape 8 8 8"
    flat = np.loadtxt(tmp_path / "f.csv", delimiter=",")
    assert np.array_equal(flat.reshape(8, 8, 8), profile.sample_grid(8))
    fld.save_npy(tmp_path / "f.npy")
    assert np.array_equal(np.load(tmp_path / "f.npy"), profile.sample_grid(8))


def test_max_overshoot_is_the_largest_over_the_run():
    # the report held the last step's overshoot, which the shrinking range
    # makes the most negative one
    tab = DiffusionTable.from_callable(lambda a: np.diag([0.1, 0.08 + 0.03 * a]), 2)
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 16)
    rep = SolveReport()
    solve_to_time(f0, tab, 0.05, report=rep)
    lo0, hi0 = f0.values.min(), f0.values.max()
    fld, t, overshoots = f0, 0.0, []
    while t < 0.05:
        step = min(rep.dt, 0.05 - t)
        fld = pde_step(fld, tab, step)
        t += step
        overshoots.append(max(lo0 - fld.values.min(), fld.values.max() - hi0))
    assert rep.steps == len(overshoots) > 1
    assert rep.max_overshoot == max(overshoots) > overshoots[-1]


def _uneven_nodes(rng, n, lo=0.0, hi=1.0):
    """n strictly increasing nodes from lo to hi, neighbouring gaps up to 3.3 apart."""
    x = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    x = lo + (x - x[0]) / (x[-1] - x[0]) * (hi - lo)
    x[-1] = hi
    return x


def test_interpolant_reproduces_polynomials_up_to_the_blend_order():
    rng = np.random.default_rng(20261021)
    points = np.linspace(0.0, 1.0, DENSE_NODES)
    for n in (2, 3, 5, BLEND + 1, BLEND + 2, 11, 17, 40):
        x = _uneven_nodes(rng, n)
        for degree in range(min(BLEND, n - 1) + 1):
            coeffs = rng.normal(size=(degree + 1, 2, 2))
            y = np.polynomial.polynomial.polyval(x, coeffs).transpose(2, 0, 1)
            want = np.polynomial.polynomial.polyval(points, coeffs).transpose(2, 0, 1)
            got = _floater_hormann(x, y, points)
            assert np.abs(got - want).max() < 1e-12, (n, degree)
            table = DiffusionTable(x, y + y.transpose(0, 2, 1))
            assert np.abs(table._dense.transpose(2, 0, 1)
                          - (want + want.transpose(0, 2, 1))).max() < 1e-12, (n, degree)
    # the blend order is what it says: one degree more is not reproduced
    x = _uneven_nodes(rng, 20)
    assert np.abs(_floater_hormann(x, x ** (BLEND + 1), points)
                  - points ** (BLEND + 1)).max() > 1e-9


def _blend_of_local_polynomials(x, y, t):
    """Floater and Hormann's defining form at one point t off the nodes:
    sum_i lambda_i p_i / sum_i lambda_i, with p_i the polynomial through
    x_i .. x_i+d and lambda_i = (-1)^i / prod_j (t - x_j) over the same nodes."""
    d = min(BLEND, len(x) - 1)
    num = den = 0.0
    for i in range(len(x) - d):
        window = range(i, i + d + 1)
        lam = (-1) ** i / np.prod([t - x[j] for j in window])
        num += lam * sum(y[k] * np.prod([(t - x[j]) / (x[k] - x[j]) for j in window if j != k])
                         for k in window)
        den += lam
    return num / den


def test_interpolant_is_the_blend_of_local_polynomials():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, BLEND + 1, BLEND + 2, 12, 20):
        x = _uneven_nodes(rng, n)
        y = rng.normal(size=(n, 2))
        points = rng.uniform(0.0, 1.0, size=40)
        want = np.array([_blend_of_local_polynomials(x, y, t) for t in points])
        assert np.abs(_floater_hormann(x, y, points) - want).max() < 1e-12 * np.abs(want).max()


def test_interpolant_returns_node_values_exactly():
    # grid points that are nodes take the node's value bit for bit, with no
    # division by zero on the way
    rng = np.random.default_rng(7)
    k = np.sort(rng.choice(np.arange(1, DENSE_NODES - 1), size=9, replace=False))
    x = np.concatenate([[0.0], k / (DENSE_NODES - 1), [1.0]])
    mats = rng.normal(size=(len(x), 3, 3))
    mats = mats + mats.transpose(0, 2, 1)
    with np.errstate(all="raise"):
        assert np.array_equal(_floater_hormann(x, mats, x), mats)
        table = DiffusionTable(x, mats)
    assert np.array_equal(table._grid[k], x[1:-1])
    for node, index in enumerate(np.concatenate([[0], k, [DENSE_NODES - 1]])):
        assert np.array_equal(table._dense[:, :, index], mats[node])


def test_two_node_table_is_linear():
    lo, hi = 0.13, 0.71
    a, b = np.diag([0.1, 0.3]), np.array([[0.2, 0.05], [0.05, 0.1]])
    table = DiffusionTable([lo, hi], [a, b])
    s = ((table._grid - lo) / (hi - lo))[:, None, None]
    want = (1.0 - s) * a + s * b
    assert np.abs(table._dense.transpose(2, 0, 1) - want).max() < 1e-15


def test_symmetric_table_resamples_symmetrically():
    # a(1 - rho) = a(rho) at mirrored nodes stays true on the dense grid, so
    # the particle-hole identity survives resampling
    low = _uneven_nodes(np.random.default_rng(11), 7, 0.0, 0.5)
    x = np.concatenate([low, 1.0 - low[-2::-1]])
    u = (2.0 * low - 1.0) ** 2
    below = np.stack([[[0.3 - 0.05 * v, 0.02 * v * v], [0.02 * v * v, 0.1 + 0.2 * v]]
                      for v in u])
    mats = np.concatenate([below, below[-2::-1]])
    table = DiffusionTable(x, mats)
    assert np.array_equal(table._grid[::-1], 1.0 - table._grid)
    dense = table._dense
    assert np.abs(dense[:, :, ::-1] - dense).max() < 1e-14


def test_table_matches_direct_solves_between_its_nodes(kernel_d3_diag_tasep):
    # the table of the default nine-density grid, read as the PDE reads it,
    # against direct solves at 20 densities off the grid
    trunc = TruncationParams(radius=3, max_degree=2)
    grid = [round(0.1 * i, 10) for i in range(1, 10)]
    others = [0.025, 0.075, 0.125, 0.175, 0.225, 0.275, 0.325, 0.375, 0.425, 0.475,
              0.525, 0.575, 0.625, 0.675, 0.725, 0.775, 0.825, 0.875, 0.925, 0.975]
    table = DiffusionTable.from_diffusion_result(
        compute_diffusion(kernel_d3_diag_tasep, grid, trunc))
    direct = compute_diffusion(kernel_d3_diag_tasep, others, trunc)
    rhos = np.array(others)
    for i in range(3):
        for j in range(3):
            want = np.array([direct.hydro[a][i, j] for a in others])
            assert np.abs(table.entry(i, j, rhos) - want).max() < 1e-8, (i, j)

import json
from pathlib import Path

import numpy as np
import pytest
import sympy

from torusgas.errors import ConfigError, InvariantViolation
from torusgas.pde import (DENSE_NODES, EIGEN_SAMPLES, SAFETY, DensityField, DiffusionTable,
                          SolveReport, _pchip, pde_step, solve_to_time, stability_limit)
from torusgas.profiles import Profile, _interp_periodic


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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_stored_table_resamples_as_scipy_pchip_bit_for_bit():
    from scipy.interpolate import PchipInterpolator

    root = Path(__file__).resolve().parents[1]
    table = DiffusionTable.load_json(root / "perfbench" / "data" / "hydro_table.json")
    assert len(table._grid) == DENSE_NODES
    d = table.dimension
    for i in range(d):
        for j in range(d):
            ref = PchipInterpolator(table.alphas, table.matrices[:, i, j])(table._grid)
            assert _same_bits(table._dense[i, j], ref)


def test_pchip_matches_scipy_on_random_node_sets():
    # node sets with uneven spacing; the kinds make sure every branch of the
    # slope rule is met: two nodes, flat segments, slope sign changes, and
    # both end-slope corrections (zeroed and limited to 3 m_0)
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(20261018)
    seen = {"two nodes": 0, "flat": 0, "sign change": 0, "end zeroed": 0,
            "end limited": 0}
    for case in range(300):
        n = 2 if case % 10 == 0 else int(rng.integers(3, 12))
        x = np.cumsum(rng.exponential(size=n) + 1e-3)
        x = (x - x[0]) / (x[-1] - x[0]) * rng.uniform(0.2, 1.0) + rng.uniform(0.0, 0.5)
        kind = case % 4
        if kind == 0:
            y = rng.normal(size=n)
        elif kind == 1:
            y = rng.integers(0, 3, size=n).astype(float)
        elif kind == 2:
            y = np.cumsum(rng.exponential(size=n) * rng.choice([0.01, 1.0, 30.0], size=n))
        else:
            y = rng.normal(size=n)
            y[1] = y[0] + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-1)
        points = np.linspace(x[0], x[-1], DENSE_NODES)
        ref = PchipInterpolator(x, y)
        assert _same_bits(_pchip(x, y, points), ref(points))
        stacked = np.stack([y, -y, y[::-1]], axis=1).reshape(n, 3, 1)
        together = _pchip(x, stacked, points)
        for k in range(3):
            column = PchipInterpolator(x, stacked[:, k, 0])(points)
            assert _same_bits(together[:, k, 0], column)

        slopes = np.diff(y) / np.diff(x)
        end = ref.c[2, 0]  # the slope scipy chose at x[0]
        seen["two nodes"] += n == 2
        seen["flat"] += bool((slopes == 0).any())
        seen["sign change"] += bool((np.sign(slopes[1:]) != np.sign(slopes[:-1])).any())
        seen["end zeroed"] += n > 2 and slopes[0] != 0 and end == 0.0
        seen["end limited"] += n > 2 and slopes[0] != 0 and end == 3.0 * slopes[0]
    assert all(count > 0 for count in seen.values()), seen

import json

import numpy as np
import pytest
import sympy

from torusgas.errors import ConfigError, InvariantViolation
from torusgas.pde import (DensityField, DiffusionTable, SolveReport, pde_step,
                          solve_to_time, stability_limit)
from torusgas.profiles import Profile


def test_constant_field_fixed_point():
    tab = DiffusionTable.constant(np.diag([0.1, 0.2]))
    f0 = DensityField(np.full((16, 16), 0.37))
    f1 = solve_to_time(f0, tab, 0.1)
    assert np.abs(f1.values - 0.37).max() == 0.0


def test_single_step_mass_exact():
    tab = DiffusionTable.constant(np.diag([0.05, 0.08]))
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=1), 32)
    dt = 0.5 * stability_limit(f0, tab)
    f1 = pde_step(f0, tab, dt)
    assert abs(f1.mass() - f0.mass()) <= 1e-14 * abs(f0.mass())


def test_heat_mode_decay_rate():
    sigma_half = np.diag([0.05, 0.08])
    tab = DiffusionTable.constant(sigma_half)
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
    # constant along axis 0 initially, stays constant to rounding
    assert np.abs(f1.values - f1.values[0:1, :]).max() <= 1e-12


def test_manufactured_solution_convergence_order():
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

        def src(t, fld, X=X, Y=Y):
            return source_fn(t, X, Y)

        f0 = DensityField(rho_fn(0.0, X, Y))
        f1 = solve_to_time(f0, tab, horizon, source=src)
        errors[m] = float(np.abs(f1.values - rho_fn(horizon, X, Y)).max())
    ratio = errors[32] / errors[64]
    assert 3.4 <= ratio <= 4.6


def test_time_zero_and_bad_inputs():
    tab = DiffusionTable.constant(np.diag([0.1, 0.1]))
    f0 = DensityField.from_profile(Profile.cosine(2, 0.5, 0.2, axis=0), 16)
    same = solve_to_time(f0, tab, 0.0)
    assert np.array_equal(same.values, f0.values)
    with pytest.raises(ConfigError):
        pde_step(f0, tab, 10.0)  # far above the stability bound
    with pytest.raises(ConfigError):
        solve_to_time(f0, tab, -1.0)


def test_density_leaving_unit_interval_raises():
    tab = DiffusionTable.constant(np.diag([0.1, 0.1]))
    f0 = DensityField(np.full((8, 8), 0.99))

    def bad_source(t, fld):
        return np.full((8, 8), 10.0)

    dt = 0.5 * stability_limit(f0, tab)
    with pytest.raises(InvariantViolation):
        pde_step(f0, tab, dt, source=bad_source)


def test_table_floor_check(kernel_d2_asym):
    sigma = kernel_d2_asym.covariance
    alphas = np.linspace(0, 1, 11)
    good = np.stack([0.5 * sigma + 0.01 * a * np.eye(2) for a in alphas])
    DiffusionTable(alphas, good, floor_matrix=0.5 * sigma)  # passes
    bad = np.stack([0.5 * sigma - 0.05 * np.eye(2) for _ in alphas])
    with pytest.raises(ConfigError):
        DiffusionTable(alphas, bad, floor_matrix=0.5 * sigma)


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
    lo, hi, samples = 0.12, 0.83, 201
    ref = 0.0
    for r in np.linspace(lo, hi, samples):
        m = np.array([[tab.entry(i, j, np.array([r]))[0] for j in range(3)]
                      for i in range(3)])
        ref = max(ref, float(np.abs(np.linalg.eigvalsh(m)).max()))
    assert tab.max_eigenvalue(lo, hi, samples) == pytest.approx(ref, rel=1e-14)

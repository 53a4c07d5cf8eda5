import numpy as np

from torusgas.profiles import Profile, load_profile_csv, validate_profile


def test_constant_profile_passes():
    p = Profile.constant(2, 0.5)
    diag = validate_profile(p, [1.0, 0.0], delta0=0.1)
    assert diag["max_drift_derivative"] == 0.0
    assert diag["ok"]


def test_cosine_orthogonal_drift_exact():
    # variation along axis 1 is invisible to drift along axis 0
    p = Profile.cosine(2, 0.5, 0.2, axis=1)
    diag = validate_profile(p, [1.0, 0.0], delta0=0.1)
    assert diag["max_drift_derivative"] == 0.0
    assert diag["ok"]


def test_cosine_parallel_drift_fails():
    p = Profile.cosine(2, 0.5, 0.2, axis=0)
    diag = validate_profile(p, [1.0, 0.0], delta0=0.1)
    assert diag["max_drift_derivative"] > 0.1
    assert not diag["ok"]


def test_boundary_margin():
    p = Profile.cosine(2, 0.5, 0.45, axis=1)
    diag = validate_profile(p, [0.0, 0.0], delta0=0.1)
    assert not diag["bounded_away"]


def test_profile_spec_roundtrip(tmp_path):
    p = Profile.from_spec(2, {"kind": "cosine", "base": 0.4, "amplitude": 0.1,
                              "axis": 0})
    grid = p.sample_grid(8)
    path = tmp_path / "prof.csv"
    np.savetxt(path, grid.reshape(1, -1), delimiter=",")
    p2 = Profile.from_grid(load_profile_csv(path, 2))
    assert np.abs(p2.sample_grid(8) - grid).max() < 1e-12


def test_grid_profile_interpolation_exact_at_nodes():
    grid = np.random.default_rng(0).uniform(0.2, 0.8, (6, 6))
    p = Profile.from_grid(grid)
    pts = np.array([[i / 6, j / 6] for i in range(6) for j in range(6)])
    vals = p.values_at(pts)
    assert np.abs(vals.reshape(6, 6) - grid).max() < 1e-14

import json

import numpy as np
import pytest

from torusgas.errors import ConfigError, InvariantViolation
from torusgas.kernels import ssep, validate_kernel
from torusgas.resolvent import (_cg, _shifted_bicgstab, build_engine, compute_diffusion,
                                degree_one_seminorm, dirichlet_gram, extrapolate_to_zero,
                                h_minus_one_sq, hydrodynamic_matrix,
                                residual_triple_norm, resolvent_solve)
from torusgas.packed import TruncationParams

from oracle import DenseOracle


@pytest.fixture(scope="module")
def small_engine(kernel_d2_asym):
    return build_engine(kernel_d2_asym, TruncationParams(radius=2, max_degree=2))


def test_zero_right_side_symmetric_kernel():
    an = validate_kernel(ssep(3))
    eng = build_engine(an, TruncationParams(radius=2, max_degree=2))
    X, infos = resolvent_solve(eng, 0.4, [1e-1, 1e-3], 0)
    assert X.shape == (2, eng.space.size) and np.all(X == 0.0)
    assert [info.iterations for info in infos] == [0, 0]


@pytest.fixture(scope="module")
def small_oracle(kernel_d2_asym, small_engine):
    return DenseOracle(kernel_d2_asym, small_engine.space.trunc)


def test_residual_and_identity(small_engine, small_oracle):
    (x,), (info,) = resolvent_solve(small_engine, 0.35, [1e-3], 0)
    assert info.residual <= 1e-10
    # the lifted solution satisfies the translation identity on every set
    space = small_engine.space
    lifted = small_oracle.lift(space)(x)
    assert small_oracle.translation_violation(lifted) <= 1e-12
    # empty set pinned: nothing to check there; degree-one parity instead
    values = small_oracle.singleton_values(lifted)
    assert any(values.values())
    for z, v in values.items():
        assert values[tuple(-c for c in z)] == pytest.approx(v, abs=1e-10)


def test_large_shift_asymptotics(small_engine):
    lam = 1e6
    (x,), _ = resolvent_solve(small_engine, 0.5, [lam], 0)
    b = small_engine.currents[0]
    rel = np.abs(lam * x - b).max() / np.abs(b).max()
    assert rel < 1e-3


def test_iterative_matches_dense_oracle(small_engine, small_oracle):
    # the lifted engine output against the oracle's set-level answers
    space = small_engine.space
    lift = small_oracle.lift(space)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(space.size)
    for alpha in (0.3, 0.6):
        want = small_oracle.full_matrix(alpha).dot(lift(x))
        got = lift(small_engine.apply_full(x, alpha))
        assert np.abs(got - want).max() <= 1e-8
    for alpha, lam in [(0.3, 1e-2), (0.5, 1e-3), (0.7, 1e-1)]:
        want = small_oracle.resolvent_direct(alpha, lam, 0)
        (got,), _ = resolvent_solve(small_engine, alpha, [lam], 0)
        assert np.abs(lift(got) - want).max() <= 1e-8


def test_operator_application_matches_oracle(kernel_d2_asym, small_engine, small_oracle):
    # (2, 2) and (2, 3), so that degree-3 rows are checked against the
    # literal sums too
    tr3 = TruncationParams(radius=2, max_degree=3)
    rng = np.random.default_rng(2)
    for engine, oracle in [(small_engine, small_oracle),
                           (build_engine(kernel_d2_asym, tr3),
                            DenseOracle(kernel_d2_asym, tr3))]:
        space = engine.space
        lift = oracle.lift(space)
        x = rng.standard_normal(space.size)
        x_o = lift(x)
        for alpha in (0.25, 0.5):
            want = oracle.full_matrix(alpha).dot(x_o)
            got = lift(engine.apply_full(x, alpha))
            assert np.abs(got - want).max() <= 1e-10


def test_neg_norm_matches_oracle(small_engine, small_oracle):
    space = small_engine.space
    lift = small_oracle.lift(space)
    # every row of the engine's current stack is the oracle's current
    assert small_engine.currents.shape == (2, space.size)
    for i, b in enumerate(small_engine.currents):
        assert np.abs(lift(b) - small_oracle.current_vector(i)).max() <= 1e-15
    b_o = small_oracle.current_vector(0)
    b_p = small_engine.currents[0]
    for reg in (1e-1, 1e-2, 1e-3):
        want = small_oracle.neg_norm_direct(b_o, reg)
        got = h_minus_one_sq(small_engine, b_p, reg)
        assert got == pytest.approx(want, abs=1e-8)
    val = h_minus_one_sq(small_engine, np.zeros(space.size), 1e-2)
    assert val == 0.0


def test_h1_symmetry_and_positivity(small_engine):
    rng = np.random.default_rng(3)
    space = small_engine.space
    for _ in range(5):
        x = rng.standard_normal(space.size)
        y = rng.standard_normal(space.size)
        gram = dirichlet_gram(small_engine, np.array([x, y]))
        assert gram[0, 1] == pytest.approx(gram[1, 0], abs=1e-10)
        assert gram[0, 0] >= -1e-10
    assert np.all(dirichlet_gram(small_engine, np.zeros((2, space.size))) == 0.0)


def test_h1_hand_value(kernel_d1_nn):
    eng = build_engine(kernel_d1_nn, TruncationParams(radius=2, max_degree=2))
    x = np.zeros(eng.space.size)
    x[eng.space.orbit[eng.space.classes.index_of_subset(((1,),))]] = 1.0
    # unit class vector of {{1}, {-1}}: value 1/sqrt(2) on both sets; from
    # the hand application of the symmetric part, 2 * (1/2) * (1/sqrt(2))^2
    assert dirichlet_gram(eng, x[None, :])[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_regularized_cauchy_schwarz(small_engine):
    rng = np.random.default_rng(4)
    space = small_engine.space
    reg = 1e-2
    for _ in range(5):
        f = rng.standard_normal(space.size)
        g = rng.standard_normal(space.size)
        pair = space.dot(f, g)
        fsq = h_minus_one_sq(small_engine, f, reg)
        gh1 = dirichlet_gram(small_engine, g[None, :])[0, 0] + reg * space.dot(g, g)
        assert pair ** 2 <= fsq * gh1 * (1 + 1e-8) + 1e-12


def test_energy_boundedness_small(kernel_d2_asym, small_engine):
    space = small_engine.space
    energies = []
    shifts = (1e-1, 1e-2, 1e-3, 1e-4)
    X, _ = resolvent_solve(small_engine, 0.5, shifts, 0)
    for lam, x in zip(shifts, X):
        energies.append(lam * space.dot(x, x)
                        + dirichlet_gram(small_engine, x[None, :])[0, 0])
    top, bottom = max(energies), min(energies)
    assert top <= 2.0 * bottom


def test_diffusion_endpoints_and_symmetric(kernel_d2_asym):
    an = validate_kernel(ssep(2))
    tr = TruncationParams(radius=2, max_degree=2)
    res = compute_diffusion(an, [0.0, 0.3, 1.0], tr)
    assert np.abs(res.diffusion[0.0]).max() == 0.0
    assert np.abs(res.diffusion[1.0] - an.covariance).max() <= 1e-14
    assert np.abs(res.diffusion[0.3] - 0.3 * an.covariance).max() <= 1e-14
    for a in res.alphas:
        assert np.abs(res.hydro[a] - 0.5 * an.covariance).max() <= 1e-14


def test_hydro_and_coupling_forms():
    sigma = np.diag([0.4, 0.2])
    D = np.array([[0.3, 0.01], [0.01, 0.11]])
    a = hydrodynamic_matrix(0.5, D, sigma)
    assert np.allclose(a, D)  # the odd term vanishes at half filling
    a0 = hydrodynamic_matrix(0.0, np.zeros((2, 2)), sigma)
    assert np.allclose(a0, sigma / 2)


def test_degree_one_seminorm():
    assert degree_one_seminorm([0.0], 0.3, [[0.5]])["value"] == 0.0
    # d=1 closed form 2 c^2 / (chi sigma)
    c, alpha, sig = 0.3, 0.4, 0.5
    got = degree_one_seminorm([c], alpha, [[sig]])
    chi = alpha * (1 - alpha)
    assert got["value"] == pytest.approx(2 * c * c / (chi * sig), rel=1e-12)
    assert not got["unbounded"]
    out = degree_one_seminorm([0.0, 1.0], 0.5, np.diag([1.0, 0.0]))
    assert out["unbounded"]


def test_mobility_consistency_small(kernel_d2_asym):
    tr = TruncationParams(radius=2, max_degree=3)
    res = compute_diffusion(kernel_d2_asym, [0.5], tr,
                            mobility_vectors={"e1": [1.0, 0.0]})
    gap = res.mobility[0.5]["e1"]["gap"]
    assert gap <= 0.05
    # symmetric kernel: both sides vanish, gap reported as zero
    an = validate_kernel(ssep(2))
    res_s = compute_diffusion(an, [0.5], TruncationParams(radius=2, max_degree=2),
                              mobility_vectors={"e1": [1.0, 0.0]})
    rec = res_s.mobility[0.5]["e1"]
    assert rec["left"] == rec["right"] == 0.0
    assert rec["gap"] == 0.0


def literal_row(analysis, alpha, i, f):
    """alpha sigma_ij - chi sum_z a(z) z_j f({z}) over j, f keyed by point."""
    chi = alpha * (1.0 - alpha)
    row = alpha * analysis.covariance[i]
    for z, a in zip(analysis.sym_offsets, analysis.asym_weights):
        row = row - chi * float(a) * z.astype(float) * f[tuple(int(c) for c in z)]
    return row


def test_per_shift_is_the_literal_singleton_sum(kernel_d2_asym):
    # the engine's pairing <f_i, c_j> against the literal sum over the
    # single-point sets of the oracle's direct solve; the odd part lies on
    # e1 and e2, so every entry, the off-diagonal ones included, is live
    an = kernel_d2_asym
    tr = TruncationParams(radius=2, max_degree=3)
    oracle = DenseOracle(an, tr)
    alpha = 0.35
    res = compute_diffusion(an, [alpha], tr)
    for lam, got in res.per_shift[alpha].items():
        want = np.array([literal_row(an, alpha, i, oracle.singleton_values(
            oracle.resolvent_direct(alpha, lam, i))) for i in range(2)])
        assert np.abs(want - alpha * an.covariance).min() > 1e-4
        assert np.abs(got - want).max() <= 1e-10


def test_residual_triple_norm_behaviour(small_engine, small_oracle):
    # the resolvent solution's leftover shrinks along the shift sequence and
    # a noisy perturbation strictly increases it
    alpha = 0.5
    lift = small_oracle.lift(small_engine.space)

    def row(x):
        return literal_row(small_engine.analysis, alpha, 0,
                           small_oracle.singleton_values(lift(x)))

    shifts = [1e-1, 1e-2, 1e-3]
    sols = dict(zip(shifts, resolvent_solve(small_engine, alpha, shifts, 0)[0]))
    D0, _ = extrapolate_to_zero(shifts, [row(sols[lam]) for lam in shifts])
    totals = []
    for lam in shifts:
        r = residual_triple_norm(small_engine, alpha, 0, D0 - row(sols[lam]),
                                 sols[lam], reg=1e-4)
        totals.append(r["total"])
        assert r["degree_two_plus"] >= 0.0 and r["degree_one"] >= 0.0
    assert totals[2] < totals[0]
    rng = np.random.default_rng(9)
    noisy = sols[shifts[-1]] + 0.5 * rng.standard_normal(small_engine.space.size)
    r_noisy = residual_triple_norm(small_engine, alpha, 0, D0 - row(noisy), noisy,
                                   reg=1e-4)
    assert r_noisy["total"] > totals[2]


def test_symmetric_zero_candidate_residual():
    an = validate_kernel(ssep(2))
    eng = build_engine(an, TruncationParams(radius=2, max_degree=2))
    r = residual_triple_norm(eng, 0.4, 0, np.zeros(2), np.zeros(eng.space.size),
                             reg=1e-3)
    assert r["degree_two_plus"] == pytest.approx(0.0, abs=1e-14)
    assert r["degree_one"] == pytest.approx(0.0, abs=1e-14)


def test_extrapolation_helper():
    shifts = [1e-1, 1e-2, 1e-3, 1e-4]
    values = [3.0 + 2.0 * s for s in shifts]
    limit, spread = extrapolate_to_zero(shifts, values)
    assert limit == pytest.approx(3.0, abs=1e-12)
    assert spread <= 1e-12
    # a stack of matrices is extrapolated entrywise, bit for bit
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((4, 2, 3))
    limit, spread = extrapolate_to_zero(shifts, mats)
    for i, j in np.ndindex(2, 3):
        assert (limit[i, j], spread[i, j]) == extrapolate_to_zero(shifts, mats[:, i, j])


def _same(a, b) -> bool:
    """Exact equality of nested dicts, lists and arrays with the same layout."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_result_serialization_roundtrip(kernel_d2_asym, tmp_path, monkeypatch):
    from dataclasses import fields

    from torusgas.resolvent import DiffusionResult

    # the shift key "1e-05" sorts after "0.001" as a string, before it as a number
    monkeypatch.setattr(TruncationParams, "lambda_seq", (0.1, 1e-3, 1e-5))
    tr = TruncationParams(radius=2, max_degree=2)
    res = compute_diffusion(kernel_d2_asym, [0.3, 0.6], tr,
                            mobility_vectors={"e1": [1.0, 0.0]},
                            with_residuals=True)
    path = tmp_path / "res.json"
    res.save_json(path)
    back = DiffusionResult.load_json(path)
    for f in fields(DiffusionResult):
        assert _same(getattr(back, f.name), getattr(res, f.name)), f.name
    # every key of the file is sorted as a string
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)
    assert list(json.loads(text)["per_shift"]["0.3"]) == ["0.001", "0.1", "1e-05"]
    # files of earlier versions carry a `coupling` leaf, which is ignored
    older = tmp_path / "older.json"
    older.write_text(json.dumps({**json.loads(text), "coupling": {"0.3": [[0.0]]}}))
    assert _same(vars(DiffusionResult.load_json(older)), vars(back))
    csv_path = tmp_path / "res.csv"
    res.save_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("alpha,D_11")
    assert len(lines) == 1 + len(res.alphas)


def test_bad_inputs(small_engine):
    with pytest.raises(ConfigError):
        resolvent_solve(small_engine, 0.5, [1e-2, 0.0], 0)
    with pytest.raises(ConfigError):
        h_minus_one_sq(small_engine, np.zeros(small_engine.space.size), 0.0)


def test_neg_norm_enforces_solver_tol(kernel_d2_asym, monkeypatch):
    # the negative-norm solve holds `solver_tol` as the resolvent solve
    # does: a tolerance no CG run reaches raises instead of returning
    monkeypatch.setattr(TruncationParams, "solver_tol", 1e-30)
    eng = build_engine(kernel_d2_asym, TruncationParams(radius=2, max_degree=2))
    b = eng.currents[0]
    with pytest.raises(InvariantViolation, match="against tolerance 1e-30"):
        h_minus_one_sq(eng, b, 1e-2)


def test_truncation_stability_of_diffusion(kernel_d3_asym, heavy_diffusion):
    # half-filling diffusion entry moves by well under 5% between the small
    # truncation and the acceptance-scale one (the larger-step comparison
    # stands in for neighbouring large truncations, which are out of reach
    # at desk scale)
    res_small = compute_diffusion(kernel_d3_asym, [0.5],
                                  TruncationParams(radius=2, max_degree=2))
    d_small = res_small.diffusion[0.5][0, 0]
    d_big = heavy_diffusion.diffusion[0.5][0, 0]
    assert abs(d_small - d_big) / abs(d_big) <= 0.05
    # symmetry of the reported matrices
    assert heavy_diffusion.symmetry_gap() <= 1e-9


def test_iterations_count_operator_matvecs(kernel_d2_asym):
    # SolveInfo.iterations and solver["iterations"] are true matvec counts,
    # the residual checks included
    eng = build_engine(kernel_d2_asym, TruncationParams(radius=2, max_degree=3))
    calls = []
    inner = eng.resolvent_matvec

    def counted(*args):
        calls.append(1)
        return inner(*args)

    eng.resolvent_matvec = counted
    _, (info,) = resolvent_solve(eng, 0.3, [1e-2], 0)
    assert info.iterations == len(calls) > 0
    calls.clear()
    # the shared Krylov matvecs are booked to the seed, one check to each shift
    _, infos = resolvent_solve(eng, 0.3, [1e-1, 1e-2, 1e-3, 1e-4], 0)
    assert [info.iterations for info in infos[:3]] == [1, 1, 1]
    assert sum(info.iterations for info in infos) == len(calls) > 4
    calls.clear()
    res = compute_diffusion(kernel_d2_asym, [0.3], eng.space.trunc, engine=eng)
    assert res.solver["iterations"] == len(calls) > 0
    assert res.solver["space_size"] == eng.space.n_sets
    assert res.solver["classes"] == res.truncation["classes"] == eng.space.classes.size
    assert res.solver["orbits"] == res.truncation["orbits"] == eng.space.size


def test_krylov_ports_match_scipy_bit_for_bit(kernel_d3_asym):
    # scipy's solvers are the reference: the seed iterate of the shifted
    # BiCGSTAB, with one shift and with four, and the CG iterate are scipy's
    # from zero, with one matvec fewer (the probe its LinearOperator makes
    # when built without a dtype)
    from scipy.sparse.linalg import LinearOperator, bicgstab, cg

    eng = build_engine(kernel_d3_asym, TruncationParams(radius=2, max_degree=2))
    n = eng.space.size
    b = eng.currents[0]
    tol = eng.space.trunc.solver_tol
    counts = {}

    def counted(key, fn):
        counts[key] = 0

        def matvec(x):
            counts[key] += 1
            return fn(x)
        return matvec

    def full(x):
        return eng.resolvent_matvec(x, 0.3, 1e-4)

    def sym(x):
        return 1e-3 * x - eng.apply_sym(x)

    want, want_info = bicgstab(LinearOperator((n, n), matvec=counted("scipy", full)), b,
                               rtol=0.0, atol=tol / 4.0, maxiter=2000)
    assert want_info == 0
    for sigmas in ([], [1e-3 - 1e-4, 1e-2 - 1e-4, 1e-1 - 1e-4]):
        X = np.zeros((1 + len(sigmas), n))
        info = _shifted_bicgstab(counted("port", full), b, sigmas, list(X), tol / 4.0, 2000)
        assert info == 0
        assert np.array_equal(X[0], want)
        assert counts["port"] == counts["scipy"] - 1 > 1
    got = _cg(counted("port", sym), b, tol, 2000)
    want, want_info = cg(LinearOperator((n, n), matvec=counted("scipy", sym)), b,
                         rtol=0.0, atol=tol, maxiter=2000)
    assert want_info == 0
    assert np.array_equal(got, want)
    assert counts["port"] == counts["scipy"] - 1 > 1


@pytest.mark.parametrize("kernel", ["kernel_d2_asym", "kernel_d3_diag_tasep"])
def test_every_shift_of_one_solve_matches_the_direct_resolvent(request, kernel):
    # one shared solve per live direction against the oracle's direct
    # factorization at every shift of the ladder, at criterion 3's
    # tolerance; diagonal TASEP has two live currents
    an = request.getfixturevalue(kernel)
    trunc = TruncationParams(radius=2, max_degree=2)
    eng = build_engine(an, trunc)
    oracle = DenseOracle(an, trunc)
    lift = oracle.lift(eng.space)
    shifts = sorted(trunc.lambda_seq, reverse=True)
    live = [i for i in range(an.dimension) if np.any(eng.currents[i])]
    assert len(live) == 2
    for i in live:
        X, infos = resolvent_solve(eng, 0.3, shifts, i)
        assert max(info.residual for info in infos) <= trunc.solver_tol
        for lam, x in zip(shifts, X):
            want = oracle.resolvent_direct(0.3, lam, i)
            assert np.abs(lift(x) - want).max() <= 1e-8


def test_unreachable_tolerance_raises(kernel_d2_asym, monkeypatch):
    # a true residual of 1e-30 is far below round-off, so the one BiCGSTAB
    # run cannot reach it; a residual above `solver_tol` is never accepted,
    # however small
    monkeypatch.setattr(TruncationParams, "solver_tol", 1e-30)
    eng = build_engine(kernel_d2_asym, TruncationParams(radius=2, max_degree=2))
    with pytest.raises(InvariantViolation, match="resolvent solve failed: residual"):
        resolvent_solve(eng, 0.3, [1e-1, 1e-2], 0)


def test_diag_tasep_diffusion_matches_oracle(kernel_d3_diag_tasep):
    # two live directions on the orbits of the order-2 group: the whole D
    # matrix, per shift and extrapolated, against the oracle's direct solves
    # on every set
    an = kernel_d3_diag_tasep
    trunc = TruncationParams(radius=2, max_degree=2)
    res = compute_diffusion(an, [0.3], trunc)
    assert res.solver["symmetry_order"] == 2
    assert res.solver["orbits"] < res.solver["classes"]
    oracle = DenseOracle(an, trunc)
    shifts = sorted(trunc.lambda_seq, reverse=True)
    direct = [oracle.diffusion_direct(0.3, lam) for lam in shifts]
    for lam, want in zip(shifts, direct):
        assert np.abs(res.per_shift[0.3][lam] - want).max() <= 1e-10
    want, _ = extrapolate_to_zero(shifts, direct)
    assert np.abs(res.diffusion[0.3] - want).max() <= 1e-10
    # both transverse-coupled directions move away from alpha sigma
    excess = np.diag(res.diffusion[0.3] - 0.3 * an.covariance)
    assert excess[0] > 1e-3 and excess[1] > 1e-3 and excess[2] == 0.0


def test_orbit_engine_matches_class_engine(kernel_d3_asym):
    # the same kernel with the trivial group is the class engine; the orbit
    # engine gives its D and, since an orbit's clip weight is its
    # representative's, its clipped outflow per density, to rounding
    from dataclasses import replace

    trunc = TruncationParams(radius=2, max_degree=3)
    alphas = [0.3, 0.6]
    vectors = {"e1": [1.0, 0.0, 0.0]}
    orbit = compute_diffusion(kernel_d3_asym, alphas, trunc, mobility_vectors=vectors)
    plain = compute_diffusion(replace(kernel_d3_asym, group=kernel_d3_asym.group[:1]),
                              alphas, trunc, mobility_vectors=vectors)
    assert plain.solver["orbits"] == plain.solver["classes"] == orbit.solver["classes"]
    assert orbit.solver["symmetry_order"] == 8
    assert orbit.solver["orbits"] * 6 < orbit.solver["classes"]
    for a in alphas:
        assert np.abs(orbit.diffusion[a] - plain.diffusion[a]).max() <= 1e-12
        assert orbit.solver["clipped_outflow"][a] == pytest.approx(
            plain.solver["clipped_outflow"][a], rel=1e-12)
        assert orbit.mobility[a]["e1"]["gap"] == pytest.approx(
            plain.mobility[a]["e1"]["gap"], abs=1e-9)
    assert orbit.solver["max_clipped_outflow"] == max(orbit.solver["clipped_outflow"].values())


@pytest.mark.parametrize("kernel", ["kernel_d3_diag_tasep", "kernel_d2_asym"])
def test_mirrored_densities_match_the_direct_solve(request, kernel):
    # particle-hole symmetry: the densities above one half are filled from
    # their mirrors below it.  Every density-indexed leaf against the
    # oracle's direct factorization at 1 - alpha, and the copied leaves
    # against a solve of 1 - alpha alone
    an = request.getfixturevalue(kernel)
    trunc = TruncationParams(radius=2, max_degree=2)
    shifts = sorted(trunc.lambda_seq, reverse=True)
    alphas = [round(0.1 * i, 10) for i in range(1, 10)]
    vectors = {"e1": [1.0] + [0.0] * (an.dimension - 1)}
    stages = {}
    res = compute_diffusion(an, alphas, trunc, mobility_vectors=vectors,
                            with_residuals=True, stages=stages)
    assert res.alphas == alphas and list(res.diffusion) == alphas
    mirrored = {a: stages[a]["mirror_of"] for a in alphas if "mirror_of" in stages[a]}
    assert mirrored == {0.6: 0.4, 0.7: 0.3, 0.8: 0.2, 0.9: 0.1}
    assert res.solver["iterations"] == sum(
        rec["matvecs"] for a in alphas for rec in stages[a]["shifts"].values())
    oracle = DenseOracle(an, trunc)
    for alpha, beta in mirrored.items():
        assert all(rec == {"matvecs": 0} for rec in stages[alpha]["shifts"].values())
        direct = [oracle.diffusion_direct(alpha, lam) for lam in shifts]
        for lam, want in zip(shifts, direct):
            assert np.abs(res.per_shift[alpha][lam] - want).max() <= 1e-12
        want, spread = extrapolate_to_zero(shifts, direct)
        assert np.abs(res.diffusion[alpha] - want).max() <= 1e-12
        assert np.abs(res.spread[alpha] - spread).max() <= 1e-12
        assert np.abs(res.hydro[alpha] - hydrodynamic_matrix(alpha, want, an.covariance)
                      ).max() <= 1e-12
        # the identity moves D by (1 - 2 beta) sigma and keeps a
        assert np.abs(res.diffusion[alpha] - res.diffusion[beta]).max() > 1e-2
        assert np.abs(res.hydro[alpha] - res.hydro[beta]).max() <= 1e-15

        # energy, mobility, residual splits and clipped outflow are
        # invariant: the copies equal the values of a direct solve
        alone = compute_diffusion(an, [alpha], trunc, mobility_vectors=vectors,
                                  with_residuals=True)
        # (the gap is a difference of nearly equal sides, the residual
        # splits are squared norms of solver-sized residuals)
        for lam in shifts:
            assert res.energy[alpha][lam] == pytest.approx(alone.energy[alpha][lam],
                                                           rel=1e-12)
        for key in ("left", "right", "gap"):
            assert res.mobility[alpha]["e1"][key] == pytest.approx(
                alone.mobility[alpha]["e1"][key], rel=1e-12, abs=1e-12)
        for i, split in alone.residuals[alpha].items():
            for key in ("degree_two_plus", "degree_one", "total"):
                assert res.residuals[alpha][i][key] == pytest.approx(split[key], rel=1e-8)
        assert res.solver["clipped_outflow"][alpha] == pytest.approx(
            alone.solver["clipped_outflow"][alpha], rel=1e-12)

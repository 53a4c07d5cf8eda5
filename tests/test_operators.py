import numpy as np
import pytest

from torusgas.kernels import ssep, validate_kernel
from torusgas.operators import apply_operator, evaluate_operator_at
from torusgas.packed import PackedSpace, assemble
from torusgas.subsets import (DualFunction, TruncationParams,
                              check_translation_identity, current_dual,
                              dual_inner_product, enumerate_truncation,
                              shift_set)

from oracle import DenseOracle


def test_symmetric_hand_values(kernel_d1_nn):
    # nearest-neighbour symmetric kernel acting on the indicator of {1}:
    # value -1 at {1} (exchange to 2 plus rigid shift), +1 at {2 }, 0 elsewhere
    tr = TruncationParams(radius=3, max_degree=2)
    f = DualFunction(0.3, {((1,),): 1.0})
    out = apply_operator("symmetric", f, kernel_d1_nn, tr)
    assert out(((1,),)) == pytest.approx(-1.0)
    assert out(((2,),)) == pytest.approx(1.0)
    assert out(((-1,),)) == 0.0
    assert out(((3,),)) == 0.0
    assert set(out.degrees()) <= {1}


def test_degree_bookkeeping(kernel_d2_asym):
    tr = TruncationParams(radius=3, max_degree=3)
    pair = DualFunction(0.4, {((1, 0), (0, 1)): 1.0})
    up = apply_operator("raising", pair, kernel_d2_asym, tr)
    down = apply_operator("lowering", pair, kernel_d2_asym, tr)
    keep_s = apply_operator("symmetric", pair, kernel_d2_asym, tr)
    keep_d = apply_operator("drift", pair, kernel_d2_asym, tr)
    assert up.degrees() <= {3}
    assert down.degrees() <= {1}
    assert keep_s.degrees() <= {2}
    assert keep_d.degrees() <= {2}
    assert len(up.values) > 0 and len(down.values) > 0


def test_symmetric_kernel_kills_odd_parts():
    an = validate_kernel(ssep(2))
    tr = TruncationParams(radius=2, max_degree=3)
    f = DualFunction(0.5, {((1, 0),): 0.7, ((1, 0), (0, 1)): -0.2})
    for kind in ("drift", "raising", "lowering"):
        assert apply_operator(kind, f, an, tr).values == {}


def test_half_density_composite(kernel_d2_asym):
    tr = TruncationParams(radius=2, max_degree=3)
    f = DualFunction(0.5, {((1, 0),): 1.0, ((0, 1), (1, 0)): 0.5})
    full = apply_operator("full", f, kernel_d2_asym, tr)
    sym = apply_operator("symmetric", f, kernel_d2_asym, tr)
    up = apply_operator("raising", f, kernel_d2_asym, tr)
    down = apply_operator("lowering", f, kernel_d2_asym, tr)
    combo = sym.plus(up.plus(down), coef=0.5)  # sqrt(chi) = 1/2 at density 1/2
    keys = set(full.values) | set(combo.values)
    for A in keys:
        assert full(A) == pytest.approx(combo(A), abs=1e-12)


def test_identity_preservation(kernel_d2_asym):
    # translation-consistent input stays consistent under all five operators
    tr = TruncationParams(radius=3, max_degree=3)
    w = current_dual(kernel_d2_asym, 0)
    w = DualFunction(0.3, w.values)
    for kind in ("symmetric", "drift", "raising", "lowering", "full"):
        out = apply_operator(kind, w, kernel_d2_asym, tr)
        assert check_translation_identity(out) <= 1e-10


def test_self_adjointness_and_dissipativity(kernel_d2_asym):
    # arbitrary set functions on the whole truncated space, not only
    # translation-consistent ones
    rng = np.random.default_rng(8)
    tr = TruncationParams(radius=3, max_degree=2)
    sets = [A for by_n in enumerate_truncation(2, tr).values() for A in by_n]
    for _ in range(5):
        f = DualFunction(0.4, dict(zip(sets, rng.standard_normal(len(sets)))))
        g = DualFunction(0.4, dict(zip(sets, rng.standard_normal(len(sets)))))
        assert check_translation_identity(f) > 0.1
        lf = apply_operator("symmetric", f, kernel_d2_asym, tr)
        lg = apply_operator("symmetric", g, kernel_d2_asym, tr)
        assert dual_inner_product(f, lg) == pytest.approx(
            dual_inner_product(lf, g), abs=1e-10)
        assert dual_inner_product(f, lf) <= 1e-10  # negative semidefinite


def test_dict_path_matches_dense_oracle(kernel_d2_asym):
    tr = TruncationParams(radius=2, max_degree=2)
    oracle = DenseOracle(kernel_d2_asym, tr)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(oracle.size)
    f = DualFunction(0.35, oracle.dual_values(x))
    mats = {"symmetric": oracle.mat_sym, "drift": oracle.mat_drift,
            "raising": oracle.mat_raise, "lowering": oracle.mat_lower}
    for kind, mat in mats.items():
        got = apply_operator(kind, f, kernel_d2_asym, tr)
        want = mat.dot(x)
        for A, i in oracle.index.items():
            assert got(A) == pytest.approx(want[i], abs=1e-8)


def test_packed_matches_dict_on_random_vectors(kernel_d2_asym):
    tr = TruncationParams(radius=2, max_degree=3)
    space = PackedSpace(2, tr)
    eng = assemble(space, kernel_d2_asym)
    rng = np.random.default_rng(17)
    x = np.zeros(space.size)
    sel = rng.choice(space.size, 30, replace=False)
    x[sel] = rng.standard_normal(30)
    for alpha in (0.2, 0.5, 0.8):
        f = space.dual_from_vector(x, alpha)
        want = apply_operator("full", f, kernel_d2_asym, tr)
        got = space.dual_from_vector(eng.apply_full(x, alpha), alpha)
        keys = set(want.values) | set(got.values)
        worst = max((abs(want(A) - got(A)) for A in keys), default=0.0)
        assert worst <= 1e-12


def test_operator_at_empty_set_is_zero(kernel_d2_asym):
    # with the empty value pinned to zero, no operator writes there
    tr = TruncationParams(radius=2, max_degree=2)
    f = DualFunction(0.3, {((1, 0),): 1.0, ((-1, 0),): 1.0})
    for kind in ("symmetric", "drift", "raising"):
        out = apply_operator(kind, f, kernel_d2_asym, tr)
        assert out.empty_value == 0.0
    # the lowering row of the empty set would read the singletons, but the
    # identity f({z}) = f({-z}) makes the odd-weighted sum cancel
    val = evaluate_operator_at("lowering", (), f, kernel_d2_asym, tr)
    assert val == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_classes_have_degree_plus_one_members(dim):
    # every class holds exactly the n + 1 member shifts of a degree-n set,
    # all of them inside the truncation
    tr = TruncationParams(radius=2, max_degree=2)
    space = PackedSpace(dim, tr)
    by_degree = enumerate_truncation(dim, tr)
    assert space.n_sets == sum(len(sets) for sets in by_degree.values())
    members = {}
    for sets in by_degree.values():
        for A in sets:
            k = space.index_of_subset(A)
            members.setdefault(k, set()).add(A)
            for z in A:
                B = shift_set(A, z)
                assert tr.contains(B)
                assert space.index_of_subset(B) == k
    assert sorted(members) == list(range(space.size))
    for k, sets in members.items():
        n = int(space.degree[k])
        assert {len(A) for A in sets} == {n}
        assert len(sets) == n + 1


@pytest.mark.parametrize("dim,trunc", [(2, (2, 3)), (3, (2, 2))])
def test_oracle_parts_preserve_classes(dim, trunc, kernel_d2_asym, kernel_d3_asym):
    # full check over every class indicator: the even part, the odd part and
    # the raise/lower part each map class-constant vectors to class-constant
    # vectors, so one unknown per class is exact
    analysis = kernel_d2_asym if dim == 2 else kernel_d3_asym
    oracle = DenseOracle(analysis, TruncationParams(radius=trunc[0], max_degree=trunc[1]))
    degree = np.array([len(A) for A in oracle.basis])
    assert np.array_equal(oracle.class_size[oracle.set_class], degree + 1)
    for mat in (oracle.mat_sym, oracle.mat_drift, oracle.mat_raise + oracle.mat_lower):
        assert oracle.class_violation(mat) <= 1e-12
    # the check does see a part that breaks the classes
    broken = oracle.mat_sym.tolil()
    broken[0, 0] += 1.0
    assert oracle.class_violation(broken.tocsc()) >= 0.5


def test_clipped_outflow_sums_over_every_set(kernel_d2_asym):
    # per-arrow proxy of the dropped image, summed literally over every set
    # of the space (not over class representatives only)
    tr = TruncationParams(radius=2, max_degree=3)
    eng = assemble(PackedSpace(2, tr), kernel_d2_asym)
    space = eng.space
    x = np.random.default_rng(4).standard_normal(space.size)
    f = space.dual_from_vector(x, 0.4)
    an = kernel_d2_asym
    want = 0.0
    for A in f.support():
        for z, s, a in zip(an.sym_offsets, an.sym_weights, an.asym_weights):
            v = tuple(int(c) for c in z)
            wsq = (s * s + a * a) / (len(A) + 1)
            targets = []
            for p in A:
                y = tuple(pc + vc for pc, vc in zip(p, v))
                if any(y) and y not in A:
                    targets.append([q for q in A if q != p] + [y])
            if v not in A:
                targets.append(shift_set(A, v))
            for B in targets:
                if not tr.contains(tuple(sorted(B))):
                    want += wsq * f(A) ** 2
    assert want > 0.0
    assert eng.clipped_outflow(x) == pytest.approx(want, rel=1e-12)

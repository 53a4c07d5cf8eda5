import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from torusgas import packed
from torusgas.kernels import TransitionKernel, ssep, validate_kernel
from torusgas.packed import _BITS, PackedSpace, TruncationParams, assemble

from oracle import (DenseOracle, class_degrees, enumerate_truncation, in_truncation,
                    shift_set)


def _unit(oracle, A):
    x = np.zeros(oracle.size)
    x[oracle.index[A]] = 1.0
    return x


def _image(oracle, vec):
    """Nonzero entries of a set vector, keyed by set."""
    return {oracle.basis[i]: vec[i] for i in np.nonzero(vec)[0]}


def test_symmetric_hand_values(kernel_d1_nn):
    # nearest-neighbour symmetric kernel acting on the indicator of {1}:
    # value -1 at {1} (exchange to 2 plus rigid shift), +1 at {2}, 0 elsewhere
    oracle = DenseOracle(kernel_d1_nn, TruncationParams(radius=3, max_degree=2))
    out = _image(oracle, oracle.mat_sym @ _unit(oracle, ((1,),)))
    assert out[((1,),)] == pytest.approx(-1.0)
    assert out[((2,),)] == pytest.approx(1.0)
    assert set(out) == {((1,),), ((2,),)}


def test_degree_bookkeeping(kernel_d2_asym):
    oracle = DenseOracle(kernel_d2_asym, TruncationParams(radius=2, max_degree=3))
    pair = _unit(oracle, ((0, 1), (1, 0)))
    degrees = {}
    for name in ("mat_raise", "mat_lower", "mat_sym", "mat_drift"):
        out = _image(oracle, getattr(oracle, name) @ pair)
        assert out
        degrees[name] = {len(A) for A in out}
    assert degrees == {"mat_raise": {3}, "mat_lower": {1}, "mat_sym": {2},
                       "mat_drift": {2}}


def test_symmetric_kernel_kills_odd_parts():
    an = validate_kernel(ssep(2))
    tr = TruncationParams(radius=2, max_degree=3)
    oracle = DenseOracle(an, tr)
    for mat in (oracle.mat_drift, oracle.mat_raise, oracle.mat_lower):
        assert not np.any(mat.data)
    eng = assemble(PackedSpace(2, tr), an)
    assert not np.any(eng.class_odd)
    assert not np.any(eng.change_vals)


def test_half_density_composite(kernel_d2_asym):
    # at density 1/2 the odd part drops out and sqrt(chi) = 1/2
    eng = assemble(PackedSpace(2, TruncationParams(radius=2, max_degree=3)),
                   kernel_d2_asym)
    x = np.random.default_rng(6).standard_normal(eng.space.size)
    full = eng.apply_full(x, 0.5)
    combo = eng.apply_sym(x) + 0.5 * eng.changing(x)
    assert np.abs(full - combo).max() <= 1e-12


def test_self_adjointness_and_dissipativity(kernel_d2_asym):
    # the literal symmetric part on arbitrary set functions of the whole
    # truncated space, not only translation-consistent ones, in the
    # degree-weighted pairing
    rng = np.random.default_rng(8)
    oracle = DenseOracle(kernel_d2_asym, TruncationParams(radius=3, max_degree=2))
    w = oracle.weights
    for _ in range(5):
        f = rng.standard_normal(oracle.size)
        g = rng.standard_normal(oracle.size)
        assert oracle.translation_violation(f) > 0.1
        lf = oracle.mat_sym @ f
        lg = oracle.mat_sym @ g
        assert np.sum(w * f * lg) == pytest.approx(np.sum(w * lf * g), abs=1e-10)
        assert np.sum(w * f * lf) <= 1e-10  # negative semidefinite


def test_operator_at_empty_set_is_zero(kernel_d2_asym):
    # the empty set is not in the space (its value is pinned to zero); the
    # lowering row it would have reads the singletons, -2 sum_y a(y) f({y}),
    # which cancels on every lift because f({y}) = f({-y}) and a is odd
    an = kernel_d2_asym
    trunc = TruncationParams(radius=2, max_degree=2)
    eng = assemble(PackedSpace(2, trunc), an)
    space = eng.space
    oracle = DenseOracle(an, trunc)
    lift = oracle.lift(space)
    assert space.classes.index_of_subset(()) == -1
    x = np.random.default_rng(12).standard_normal(space.size)
    for vec in (x, eng.apply_full(x, 0.3)):
        values = oracle.singleton_values(lift(vec))
        row = -2.0 * sum(float(a) * values[tuple(int(c) for c in z)]
                         for z, a in zip(an.sym_offsets, an.asym_weights))
        assert row == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("dim,trunc", [pytest.param(2, (2, 2), id="2"),
                                       pytest.param(3, (2, 2), id="3"),
                                       pytest.param(2, (3, 3), id="2-3-3")])
def test_classes_have_degree_plus_one_members(dim, trunc):
    # every class holds exactly the n + 1 member shifts of a degree-n set,
    # all of them inside the truncation (closure, checked in full; the
    # engine's clipped mass relies on it)
    tr = TruncationParams(radius=trunc[0], max_degree=trunc[1])
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
                assert in_truncation(tr, B)
                assert space.index_of_subset(B) == k
    assert sorted(members) == list(range(space.size))
    degree = class_degrees(space)
    for k, sets in members.items():
        n = int(degree[k])
        assert {len(A) for A in sets} == {n}
        assert len(sets) == n + 1


@pytest.mark.parametrize("dim,trunc", [(2, (2, 3)), (3, (2, 2))])
def test_canonical_member_is_the_positive_set(dim, trunc, kernel_d2_asym, kernel_d3_asym):
    # every oracle class holds exactly one set whose points are all
    # lexicographically positive, and those are exactly the sets the engine
    # enumerates; `index_of_subset` sends all n + 1 members of a class to
    # one engine class, and the engine counts every set of the space
    analysis = kernel_d2_asym if dim == 2 else kernel_d3_asym
    tr = TruncationParams(radius=trunc[0], max_degree=trunc[1])
    oracle = DenseOracle(analysis, tr)
    space = PackedSpace(dim, tr)
    origin = (0,) * dim
    positive = np.array([all(p > origin for p in A) for A in oracle.basis])
    assert np.array_equal(np.bincount(oracle.set_class, weights=positive),
                          np.ones(oracle.classes.shape[1]))
    # the class codes decoded here, `_BITS` bits per pool index, first highest
    enumerated = []
    for code, n in zip(space.codes.tolist(), class_degrees(space).tolist()):
        row = [(code >> (_BITS * (n - 1 - j))) & ((1 << _BITS) - 1) for j in range(n)]
        enumerated.append(tuple(tuple(int(c) for c in space.pool[i]) for i in row))
    assert len(enumerated) == space.size
    assert set(enumerated) == {A for A, pos in zip(oracle.basis, positive) if pos}
    assert [space.index_of_subset(A) for A in enumerated] == list(range(space.size))
    oracle.engine_classes(space)  # one engine class per oracle class
    assert space.n_sets == oracle.size


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


@pytest.mark.parametrize("trunc,kernel", [
    pytest.param((2, 3), "kernel_d2_asym", id="d2-2-3"),
    pytest.param((2, 2), "kernel_d3_asym", id="d3-2-2"),
    pytest.param((3, 3), "range_two_d1", id="d1-3-3-range2"),
])
def test_odd_part_is_antisymmetric(request, trunc, kernel):
    # what `assemble` relies on instead of assembling it: on the classes the
    # lowering part is minus the weighted adjoint of the raising part,
    # L = -W^-1 R^T W with W = diag(1 / (n + 1)), and the drift has no
    # diagonal (its odd weights cancel over ordered pairs); both checked on
    # the oracle's literal sums, lifted by P (value 1/sqrt(n + 1) on every
    # member of a class)
    an = (validate_kernel(TransitionKernel(1, np.array([[1], [-1], [2]]),
                                           np.array([0.5, 0.3, 0.2])))
          if kernel == "range_two_d1" else request.getfixturevalue(kernel))
    oracle = DenseOracle(an, TruncationParams(radius=trunc[0], max_degree=trunc[1]))
    lift = oracle.classes @ sp.diags(1.0 / np.sqrt(oracle.class_size))
    w = 1.0 / oracle.class_size
    lower = (lift.T @ oracle.mat_lower @ lift).toarray()
    up = (lift.T @ oracle.mat_raise @ lift).toarray()
    assert np.abs(up).max() > 0.1
    assert np.abs(lower + up.T * w[None, :] / w[:, None]).max() <= 1e-14
    assert np.abs(oracle.mat_drift.diagonal()).max() <= 1e-14


@pytest.mark.parametrize("kernel", ["kernel_d3_asym", "kernel_d3_diag_tasep"])
def test_oracle_parts_commute_with_the_point_group(request, kernel):
    # full check on the literal sums: every part of the operator commutes
    # with every element of the derived group, and every current is
    # invariant; a signed permutation outside the group does not commute
    an = request.getfixturevalue(kernel)
    oracle = DenseOracle(an, TruncationParams(radius=2, max_degree=2))
    parts = (oracle.mat_sym, oracle.mat_drift, oracle.mat_raise, oracle.mat_lower)
    assert len(oracle.moves) == len(an.group) > 1
    for move in oracle.moves:
        for mat in parts:
            assert abs(mat[move][:, move] - mat).max() <= 1e-14
        for i in range(3):
            b = oracle.current_vector(i)
            assert np.array_equal(b[move], b)
    # x -> -x preserves the even part but reverses the drift
    flip = np.array([oracle.index[tuple(sorted((-p[0],) + p[1:] for p in A))]
                     for A in oracle.basis])
    assert abs(oracle.mat_sym[flip][:, flip] - oracle.mat_sym).max() <= 1e-14
    assert abs(oracle.mat_drift[flip][:, flip] - oracle.mat_drift).max() >= 0.1


def test_bench_space_has_the_acceptance_orbit_count(kernel_d3_asym):
    # the benchmark's call path at the acceptance truncation: 219,243
    # translation classes (868,359 sets) in 28,645 orbits of the order-8 group
    eng = assemble(PackedSpace(3, TruncationParams(radius=3, max_degree=3)),
                   kernel_d3_asym)
    space = eng.space
    assert (space.size, space.classes.size, space.n_sets) == (28645, 219243, 868359)
    assert space.symmetry_order == 8
    assert np.array_equal(np.bincount(space.orbit), space.orbit_size)
    assert set(np.unique(space.orbit_size)) <= {1, 2, 4, 8}
    assert np.array_equal(space.orbit[space.rep], np.arange(space.size))
    assert np.all(np.diff(space.rep) > 0) and np.all(np.diff(space.degree) >= 0)
    # every orbit is the row of exactly one slot; 520,629 degree-preserving
    # and 10,988 degree-changing arrows are stored
    assert np.array_equal(np.sort(eng.slot_rows), np.arange(space.size))
    assert eng.nnz == 531617


def test_class_and_orbit_levels_keep_one_code_and_one_orbit_index_per_class(
        kernel_d3_asym):
    # deterministic memory guard at the acceptance truncation: the arrays the
    # class and orbit levels keep at class length are one int64 code and one
    # int32 orbit index, and none is longer (no per-class rows of points)
    eng = assemble(PackedSpace(3, TruncationParams(radius=3, max_degree=3)),
                   kernel_d3_asym)
    n_classes = eng.space.classes.size
    per_class = 0
    for level in (eng.space.classes, eng.space):
        for name, value in vars(level).items():
            if isinstance(value, np.ndarray):
                assert value.size <= n_classes, name
                if value.size == n_classes:
                    per_class += value.nbytes
    assert per_class <= 12 * n_classes


def test_slot_arrays_keep_one_column_one_class_code_and_one_weight(kernel_d3_asym):
    # deterministic memory guard at the acceptance truncation: after a matvec
    # the arrays the engine keeps at slot length are an int32 column, a class
    # code of at most two bytes and one float64 weight (the composed weights
    # of the last density); the weights themselves live in the class tables,
    # one entry per (offset, row orbit size, column orbit size) and the pad
    eng = assemble(PackedSpace(3, TruncationParams(radius=3, max_degree=3)),
                   kernel_d3_asym)
    eng.apply_full(np.ones(eng.space.size), 0.3)
    n_slots = sum(cols.size for cols in eng.slot_cols)
    per_slot = 0
    for name, value in vars(eng).items():
        if isinstance(value, list):
            assert sum(a.size for a in value) == n_slots, name
            per_slot += sum(a.nbytes for a in value)
        elif isinstance(value, np.ndarray):
            assert value.size < n_slots, name
    assert max(c.itemsize for c in eng.slot_class) <= 2
    assert len(eng.class_even) == len(eng.class_odd) == 6 * 4 * 4 + 1
    assert per_slot <= 14 * n_slots


@pytest.mark.parametrize("kernel,trunc,digests", [
    pytest.param("kernel_d2_asym", (2, 3), (
        "01c24f2382fe7c90e7a4ac2fb4ce00ea7f61b3f1f42c9f297e6473bd8ef24595",
        "a644c21fae73b7c4ebd91fa69f49030173f0df4af852a7ee709744728ccc2d92",
        "26fc26d819eb672b2eba0709436851c33485dfb3316fcb500d8c7cbc2bba28e7"), id="d2-asym-2-3"),
    # no odd part and no degree-changing arrows: the three matvecs agree
    pytest.param("ssep_d3", (2, 2), (
        "bad53c9727a6279c670421225f4b91565d836296999b034f1049899bf170c6ab",) * 3,
        id="d3-ssep-2-2"),
])
def test_matvec_bits_are_pinned(request, kernel, trunc, digests):
    # the sha256 of apply_full at densities 0.3 and 0.5 and of apply_sym on a
    # fixed input: a change of storage that keeps every weight and every
    # summation order keeps these bits
    an = validate_kernel(ssep(3)) if kernel == "ssep_d3" else request.getfixturevalue(kernel)
    eng = assemble(PackedSpace(an.dimension, TruncationParams(*trunc)), an)
    x = np.random.default_rng(26).standard_normal(eng.space.size)
    out = (eng.apply_full(x, 0.3), eng.apply_full(x, 0.5), eng.apply_sym(x))
    assert tuple(hashlib.sha256(y.tobytes()).hexdigest() for y in out) == digests


@pytest.mark.parametrize("dim,trunc,kernel", [
    pytest.param(3, (1, 3), "ssep", id="d3-ssep-1-3"),
    pytest.param(3, (2, 2), "ssep", id="d3-ssep-2-2"),
    pytest.param(1, (1, 3), "d1_asym", id="d1-empty-levels"),
])
def test_engine_on_the_order_48_group_and_on_empty_levels(dim, trunc, kernel):
    # SSEP in d = 3 keeps the whole order-48 group of signed permutations;
    # `lift` checks on every set and group element that the engine's orbit
    # of a set's class is the orbit of its images.  In d = 1 at radius 1 the
    # degree-2 and degree-3 levels are empty, so every chunked pass meets an
    # empty level
    an = (validate_kernel(ssep(3)) if kernel == "ssep" else
          validate_kernel(TransitionKernel(1, np.array([[1], [-1]]), np.array([0.7, 0.3]))))
    tr = TruncationParams(*trunc)
    eng = assemble(PackedSpace(dim, tr), an)
    oracle = DenseOracle(an, tr)
    lift = oracle.lift(eng.space)
    if kernel == "ssep":
        assert eng.space.symmetry_order == 48 and eng.space.size < eng.space.classes.size
    else:
        assert np.array_equal(np.diff(eng.space.classes.offsets[1:]), [1, 0, 0])
        assert np.any(eng.currents)
    for i, b in enumerate(eng.currents):
        assert np.abs(lift(b) - oracle.current_vector(i)).max() <= 1e-15
    x = np.random.default_rng(5).standard_normal(eng.space.size)
    for alpha in (0.3, 0.5):
        want = oracle.full_matrix(alpha).dot(lift(x))
        assert np.abs(lift(eng.apply_full(x, alpha)) - want).max() <= 1e-12


@pytest.mark.parametrize("kernel,count", [("kernel_d3_asym", 2), ("ssep_d3", 2),
                                          ("kernel_d3_diag_tasep", None),
                                          ("kernel_d2_asym", None)])
def test_greedy_generators_span_the_group_and_keep_the_orbits(request, monkeypatch, kernel,
                                                              count):
    # each generator costs a class image; the greedy choice needs two for the
    # order-8 group of the acceptance kernel and for the order-48 group of
    # SSEP in d = 3, and the orbits are those of the whole group
    an = validate_kernel(ssep(3)) if kernel == "ssep_d3" else request.getfixturevalue(kernel)
    group = an.group
    gens = packed._generators(group)
    closure = packed._closure(gens, group[0])
    assert sorted(closure) == sorted(g.tobytes() for g in group)
    assert not any(np.array_equal(g, group[0]) for g in gens)
    if count is not None:
        assert len(gens) == count
    space = PackedSpace(an.dimension, TruncationParams(radius=2, max_degree=3))
    orbits = packed.OrbitSpace(space, group)
    monkeypatch.setattr(packed, "_generators", lambda grp: list(grp[1:]))
    every = packed.OrbitSpace(space, group)
    assert np.array_equal(orbits.orbit, every.orbit)
    assert np.array_equal(orbits.rep, every.rep)


def _compressed_rows(eng, weights):
    """The degree-preserving arrows as a scipy CSR matrix: each row's stored
    arrows in slot order, pads dropped."""
    size = eng.space.size
    rows, cols, vals, slots = [], [], [], []
    start = 0
    for block_cols, w in zip(eng.slot_cols, weights):
        block_rows = eng.slot_rows[start:start + block_cols.shape[1]]
        start += block_cols.shape[1]
        slot, j = np.nonzero(block_cols != size)
        rows.append(block_rows[j])
        cols.append(block_cols[slot, j])
        vals.append(w[slot, j])
        slots.append(slot)
    rows, cols, vals, slots = map(np.concatenate, (rows, cols, vals, slots))
    order = np.lexsort((slots, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))])
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(size, size))


@pytest.mark.parametrize("kernel,trunc,chunk", [
    pytest.param("kernel_d3_asym", (2, 2), None, id="d3-acceptance"),
    pytest.param("exact_tiny", (2, 2), None, id="d2-exact-tiny"),
    # blocks of at most 20 entries: every row of 11 or more arrows is a
    # one-row block, a single contiguous run of its slots
    pytest.param("kernel_d3_asym", (2, 3), 20, id="d3-acceptance-one-row-blocks"),
])
def test_slot_matvec_is_scipy_csr_bit_for_bit(request, monkeypatch, kernel, trunc, chunk):
    # the slot-major blocks sum each row's arrows in stored order, as scipy's
    # compressed-row matvec does, so both give the same bits
    an = (validate_kernel(TransitionKernel(2, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                                           np.array([0.5, 0.25, 0.125, 0.125])))
          if kernel == "exact_tiny" else request.getfixturevalue(kernel))
    if chunk is not None:
        monkeypatch.setattr(packed, "_CHUNK", chunk)
    eng = assemble(PackedSpace(an.dimension, TruncationParams(*trunc)), an)
    if chunk is not None:
        # numpy sums a one-row block of 8 or more slots pairwise unless told
        # otherwise
        assert any(cols.shape[1] == 1 and cols.shape[0] >= 8 for cols in eng.slot_cols)
    size = eng.space.size
    indptr = np.concatenate([[0], np.cumsum(np.bincount(eng.change_rows, minlength=size))])
    changing = sp.csr_matrix((eng.change_vals, eng.change_cols, indptr), shape=(size, size))
    even = _compressed_rows(eng, [eng.class_even[c] for c in eng.slot_class])
    assert even.nnz + changing.nnz == eng.nnz
    assert np.all(np.diff(eng.change_rows * size + eng.change_cols) > 0)
    x = np.random.default_rng(21).standard_normal(size)
    assert np.array_equal(eng.apply_sym(x), even.dot(x) + eng.diag_even * x)
    for alpha in (0.3, 0.5):
        cd = 1.0 - 2.0 * alpha
        full = _compressed_rows(eng, [(eng.class_odd * cd + eng.class_even)[c]
                                      for c in eng.slot_class])
        want = full.dot(x)
        want += eng.diag_even * x
        want += np.sqrt(alpha * (1.0 - alpha)) * changing.dot(x)
        assert np.array_equal(eng.apply_full(x, alpha), want)


def test_slot_weights_are_composed_in_place(kernel_d3_asym):
    # apply_full composes odd * cd + even into the same arrays at every
    # density change, with the bits of the two-rounding expression, and
    # apply_sym composes the even weights alone into them
    eng = assemble(PackedSpace(3, TruncationParams(radius=2, max_degree=2)), kernel_d3_asym)
    x = np.random.default_rng(13).standard_normal(eng.space.size)
    held = None
    for alpha in (0.3, 0.7, None, 0.3):
        if alpha is None:
            want = eng.preserving(x, [eng.class_even[c] for c in eng.slot_class])
            assert np.array_equal(eng.apply_sym(x), want + eng.diag_even * x)
        else:
            cd = 1.0 - 2.0 * alpha
            want = eng.preserving(x, [(eng.class_odd * cd + eng.class_even)[c]
                                      for c in eng.slot_class])
            want += eng.diag_even * x
            want += np.sqrt(alpha * (1.0 - alpha)) * eng.changing(x)
            assert np.array_equal(eng.apply_full(x, alpha), want)
        held = held or [id(w) for w in eng._composed]
        assert [id(w) for w in eng._composed] == held


def test_slot_blocks_hold_at_most_a_chunk(kernel_d3_asym, monkeypatch):
    # a slot block holds at most _CHUNK entries unless one row alone is
    # wider, in C order.  Splitting blocks along rows keeps each row's sum
    # over its slots in stored order, one-row blocks included, so the
    # matvecs keep their bits
    space = PackedSpace(3, TruncationParams(radius=2, max_degree=3))
    whole = assemble(space, kernel_d3_asym)
    x = np.random.default_rng(8).standard_normal(whole.space.size)
    widest = max(cols.shape[0] for cols in whole.slot_cols)
    for chunk in (2 * widest, widest - 4):
        monkeypatch.setattr(packed, "_CHUNK", chunk)
        split = assemble(space, kernel_d3_asym)
        assert len(split.slot_cols) > len(whole.slot_cols)
        assert np.array_equal(split.apply_sym(x), whole.apply_sym(x))
        for alpha in (0.3, 0.5):
            assert np.array_equal(split.apply_full(x, alpha), whole.apply_full(x, alpha))
        for eng, cap in ((whole, 32768), (split, chunk)):
            for blocks in (eng.slot_cols, eng.slot_class, eng._composed):
                for a in blocks:
                    assert a.size <= cap or a.shape[1] == 1
                    assert a.flags.c_contiguous
        if chunk < widest:
            assert any(cols.size > chunk for cols in split.slot_cols)


def _range_two_kernel():
    # the offset [2, 0] jumps over a neighbour, [1, 1] moves diagonally
    k = TransitionKernel(2, np.array([[2, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
                         np.array([0.3, 0.2, 0.2, 0.1, 0.2]))
    return validate_kernel(k)


@pytest.mark.parametrize("dim,trunc,kernel", [
    pytest.param(2, (2, 3), "kernel_d2_asym", id="d2-2-3"),
    pytest.param(3, (2, 2), "kernel_d3_asym", id="d3-2-2"),
    pytest.param(2, (2, 3), "range_two", id="d2-2-3-range2"),
])
def test_clipped_outflow_sums_over_every_set(request, dim, trunc, kernel):
    # per-arrow proxy of the dropped image, summed literally over every set
    # of the space (not over class representatives only); the engine counts
    # the canonical member's clipped moves n + 1 times
    an = _range_two_kernel() if kernel == "range_two" else request.getfixturevalue(kernel)
    tr = TruncationParams(radius=trunc[0], max_degree=trunc[1])
    eng = assemble(PackedSpace(dim, tr), an)
    space = eng.space
    oracle = DenseOracle(an, tr)
    x = np.random.default_rng(4).standard_normal(space.size)
    values = oracle.lift(space)(x)
    want = 0.0
    for A, fA in zip(oracle.basis, values):
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
                if not in_truncation(tr, tuple(sorted(B))):
                    want += wsq * fA ** 2
    assert want > 0.0
    assert eng.clipped_outflow(x) == pytest.approx(want, rel=1e-12)

import itertools

import numpy as np
import pytest

from torusgas import packed
from torusgas.errors import ConfigError
from torusgas.kernels import ssep, tasep, validate_kernel
from torusgas.packed import OrbitSpace, PackedSpace, TruncationParams, assemble, canonical

from oracle import DenseOracle, in_truncation, shift_set


def test_shift_set_cases():
    # plain translate when the shift is not a member
    assert shift_set(((1, 0, 0),), (0, 1, 0)) == ((1, -1, 0),)
    # member shift exchanges the origin with the negated shift
    assert shift_set(((1, 0, 0),), (1, 0, 0)) == ((-1, 0, 0),)
    assert shift_set((), (2, 1, 0)) == ()
    A = ((1, 0), (2, 0))
    assert shift_set(A, (1, 0)) == canonical([(-1, 0), (1, 0)])


def test_space_excludes_origin_and_repeats():
    # no class for the empty set, a set with the origin or a repeated point,
    # or a set beyond the radius (d = 2 (2, 3) and d = 3 (2, 2))
    for dim, (radius, degree) in [(2, (2, 3)), (3, (2, 2))]:
        space = PackedSpace(dim, TruncationParams(radius=radius, max_degree=degree))
        e1, origin = (1,) + (0,) * (dim - 1), (0,) * dim
        far, minus2 = (3,) + (0,) * (dim - 1), (-2,) + (0,) * (dim - 1)
        two = (2,) + (0,) * (dim - 1)
        assert space.index_of_subset((e1,)) >= 0
        assert space.index_of_subset((minus2, tuple(-c for c in e1))) >= 0
        assert space.index_of_subset(()) == -1
        assert space.index_of_subset((origin,)) == -1
        assert space.index_of_subset((origin, e1)) == -1
        assert space.index_of_subset((e1, e1)) == -1
        assert space.index_of_subset((minus2, minus2)) == -1
        assert space.index_of_subset((far,)) == -1
        assert space.index_of_subset((minus2, two)) == -1  # diameter 4 > 2
        assert space.index_of_subset((e1,) * (degree + 1)) == -1


def test_inner_product_weights():
    # weight 1/(n+1) on sets of n points; a class vector pairs like its lift
    # (the orbits of the trivial group are the classes)
    tr = TruncationParams(radius=2, max_degree=2)
    classes = PackedSpace(2, tr)
    space = OrbitSpace(classes, np.eye(2, dtype=np.int64)[None])
    assert space.size == classes.size and np.array_equal(space.rep, np.arange(space.size))
    one = np.zeros(space.size)
    one[classes.index_of_subset(((1, 0),))] = 1.0
    assert space.dot(one, one) == pytest.approx(0.5)  # degree 1: 1/2
    two = np.zeros(space.size)
    two[classes.index_of_subset(((1, 0), (2, 0)))] = 1.0
    assert space.dot(two, two) == pytest.approx(1 / 3)  # degree 2: 1/3
    assert space.dot(one, two) == 0.0  # disjoint supports
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, space.size))
    an = validate_kernel(ssep(2))
    oracle = DenseOracle(an, tr)
    lift = oracle.class_lift(classes)
    assert space.dot(x, y) == pytest.approx(
        np.sum(oracle.weights * lift(x) * lift(y)), abs=1e-12)
    # and an orbit vector (order-8 group) pairs like its lift as well
    orbits = assemble(classes, an).space
    assert orbits.symmetry_order == 8 and orbits.size < space.size
    x, y = rng.standard_normal((2, orbits.size))
    lift = oracle.lift(orbits)
    assert orbits.dot(x, y) == pytest.approx(
        np.sum(oracle.weights * lift(x) * lift(y)), abs=1e-12)


def test_translation_identity_checker():
    an = validate_kernel(tasep(3))
    oracle = DenseOracle(an, TruncationParams(radius=1, max_degree=2))
    assert oracle.translation_violation(oracle.current_vector(0)) == 0.0
    assert oracle.translation_violation(np.zeros(oracle.size)) == 0.0
    broken = np.zeros(oracle.size)  # no counterpart at -e1
    broken[oracle.index[((1, 0, 0),)]] = 1.0
    assert oracle.translation_violation(broken) > 0.0


def test_current_dual_values(kernel_d2_spec):
    # the dual current, -2 z_i a(z) on single points, read back through the
    # orbit -> class -> set lift
    def coefficients(analysis, direction):
        trunc = TruncationParams(radius=1, max_degree=2)
        engine = assemble(PackedSpace(analysis.dimension, trunc), analysis)
        oracle = DenseOracle(analysis, trunc)
        return oracle.singleton_values(oracle.lift(engine.space)(engine.currents[direction]))

    w3 = coefficients(validate_kernel(tasep(3)), 0)
    assert w3[(1, 0, 0)] == pytest.approx(-1.0)
    assert w3[(-1, 0, 0)] == pytest.approx(-1.0)
    w2 = coefficients(kernel_d2_spec, 0)
    assert w2[(1, 0)] == pytest.approx(-0.25)  # -2 * 1 * 0.125
    assert not any(coefficients(validate_kernel(ssep(3)), 1).values())


def test_truncation_membership():
    tr = TruncationParams(radius=2, max_degree=2)
    assert in_truncation(tr, ((1, 0), (2, 0)))
    assert in_truncation(tr, ((-1, 0), (1, 0)))
    assert not in_truncation(tr, ((-1, 0), (1, 0), (2, 0)))  # degree cap
    assert not in_truncation(tr, ((-1, 0), (2, 0)))  # diameter 3 with the origin
    assert in_truncation(tr, ())
    with pytest.raises(ConfigError):
        TruncationParams(radius=2, max_degree=1)


@pytest.mark.parametrize("dim,radius", [(2, 2), (3, 3)])
def test_difference_table_is_the_point_arithmetic(dim, radius):
    # `difference`, `translate` and `lookup_points` read one table over the
    # radius-2r cube; every pool pair, every offset of the radius cube and
    # every point of the radius-(2r + 1) cube against the literal points
    space = PackedSpace(dim, TruncationParams(radius=radius, max_degree=2))
    points = [tuple(p) for p in space.pool.tolist()]
    index = {p: i for i, p in enumerate(points)}
    origin = (0,) * dim

    def want(point):
        return -2 if point == origin else index.get(point, -1)

    pairs = np.array([[want(tuple(y - x for x, y in zip(a, b))) for b in points]
                      for a in points])
    i = np.arange(len(points))
    assert np.array_equal(space.difference(i[:, None], i[None, :]), pairs)
    for v in points:
        assert np.array_equal(space.translate(v),
                              [want(tuple(x + y for x, y in zip(a, v))) for a in points])
    with pytest.raises(ConfigError):
        space.translate(origin)
    cube = list(itertools.product(range(-2 * radius - 1, 2 * radius + 2), repeat=dim))
    assert np.array_equal(space.lookup_points(np.array(cube)),
                          [index.get(c, -1) for c in cube])

def test_class_level_keeps_no_pool_squared_array():
    # a point difference is pool arithmetic, so radius costs no P x P table:
    # at (6,2) in d = 3 (P = 2196) every array the class level keeps has
    # fewer than P^2 entries
    space = PackedSpace(3, TruncationParams(radius=6, max_degree=2))
    p = len(space.pool)
    assert p == 2196
    sizes = {k: v.size for k, v in vars(space).items() if isinstance(v, np.ndarray)}
    assert max(sizes.values()) < p * p, sizes


@pytest.mark.parametrize("rows", [3, 10 ** 6])
def test_extend_chunks_keep_the_codes(monkeypatch, rows):
    # a level is extended a few rows at a time, here 3 rows per chunk (2,757
    # chunks for level 2 of (3,3)) or all at once, with the default build's
    # codes and offsets
    trunc = TruncationParams(radius=3, max_degree=3)
    whole = PackedSpace(3, trunc)
    monkeypatch.setattr(packed, "_CHUNK", rows * len(whole.pool))
    split = PackedSpace(3, trunc)
    assert np.array_equal(split.codes, whole.codes)
    assert np.array_equal(split.offsets, whole.offsets)

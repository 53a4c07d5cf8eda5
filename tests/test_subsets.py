import numpy as np
import pytest

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
    # `diff` is built a few rows at a time (several chunks at radius 3,
    # d = 3); every entry, `compat` and `neg` against the literal points
    space = PackedSpace(dim, TruncationParams(radius=radius, max_degree=2))
    points = [tuple(p) for p in space.pool.tolist()]
    index = {p: i for i, p in enumerate(points)}
    want = np.array([[-2 if a == b else index.get(tuple(y - x for x, y in zip(a, b)), -1)
                      for b in points] for a in points])
    assert space.diff.dtype == np.int64 and np.array_equal(space.diff, want)
    assert np.array_equal(space.compat, want >= 0)
    assert np.array_equal(space.neg, [index[tuple(-c for c in p)] for p in points])

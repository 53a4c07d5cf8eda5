import re

import numpy as np
import pytest

from torusgas.errors import ConfigError
from torusgas.kernels import TransitionKernel, ssep, tasep, validate_kernel


def _sorted_table(kernel):
    """Offsets and weights with the offsets in lexicographic order."""
    order = np.lexsort(kernel.offsets.T[::-1])
    return kernel.offsets[order], kernel.weights[order]


def test_tasep_d3_analysis():
    an = validate_kernel(tasep(3))
    assert np.allclose(an.drift, [1, 0, 0])
    assert np.allclose(an.covariance, np.diag([1, 0, 0]))
    assert an.asym_of((1, 0, 0)) == pytest.approx(0.5)
    assert an.asym_of((-1, 0, 0)) == pytest.approx(-0.5)


def test_ssep_d3_analysis():
    an = validate_kernel(ssep(3))
    assert np.allclose(an.drift, 0)
    assert np.allclose(an.covariance, np.eye(3) / 3)
    assert np.all(an.asym_weights == 0)
    assert an.is_symmetric


def test_d2_example_analysis(kernel_d2_spec):
    an = kernel_d2_spec
    # hand evaluation of the defining sums
    assert np.allclose(an.drift, [0.25, 0.25])
    assert np.allclose(an.covariance, np.diag([0.75, 0.25]))
    assert an.asym_of((1, 0)) == pytest.approx(0.125)
    assert an.asym_of((0, 1)) == pytest.approx(0.125)


def test_decomposition_and_reflection(kernel_d2_spec):
    an = kernel_d2_spec
    k = an.kernel
    for z, p in zip(k.offsets, k.weights):
        z = tuple(int(c) for c in z)
        assert an.sym_of(z) + an.asym_of(z) == pytest.approx(float(p), abs=1e-15)
    star = validate_kernel(an.adjoint)
    assert np.allclose(star.drift, -an.drift)
    assert np.allclose(star.covariance, an.covariance)
    for z in map(tuple, an.sym_offsets):
        assert star.sym_of(z) == pytest.approx(an.sym_of(z), abs=1e-15)
        assert star.asym_of(z) == pytest.approx(-an.asym_of(z), abs=1e-15)


def test_adjoint_involution(kernel_d2_spec):
    k = kernel_d2_spec.kernel
    back = validate_kernel(kernel_d2_spec.adjoint).adjoint
    assert np.array_equal(back.offsets, k.offsets)
    assert np.array_equal(back.weights, k.weights)


def test_adjoint_of_symmetric_is_itself():
    k = ssep(2)
    star = validate_kernel(k).adjoint
    for got, want in zip(_sorted_table(star), _sorted_table(k)):
        assert np.array_equal(got, want)


def test_from_entries_rejects_a_fractional_offset():
    # an offset entry 1.5 used to be truncated to the jump (1, 0)
    with pytest.raises(ConfigError, match="^kernel offset entry must be an integer, got 1.5"):
        TransitionKernel.from_entries(2, [{"offset": [1.5, 0], "prob": 0.5},
                                          {"offset": [-1, 0], "prob": 0.5}])


def test_validation_errors():
    with pytest.raises(ConfigError):
        validate_kernel(TransitionKernel(2, np.array([[0, 0]]), np.array([1.0])))
    with pytest.raises(ConfigError):
        validate_kernel(TransitionKernel(2, np.array([[1, 0]]), np.array([0.5])))
    with pytest.raises(ConfigError):
        validate_kernel(TransitionKernel(2, np.array([[1, 0], [0, 1]]),
                                         np.array([0.5, -0.5])))
    with pytest.raises(ConfigError):
        validate_kernel(TransitionKernel(2, np.array([[1, 0], [1, 0]]),
                                         np.array([0.5, 0.5])))
    # a NaN weight fails the (0, 1] check; the weight sum check lets it by
    with pytest.raises(ConfigError, match=re.escape("kernel weights must lie in (0, 1]")):
        validate_kernel(TransitionKernel(2, np.array([[1, 0], [-1, 0]]),
                                         np.array([np.nan, 1.0])))


def test_covariance_psd_random_kernels():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        offsets, seen = [], set()
        while len(offsets) < k:
            z = tuple(int(c) for c in rng.integers(-2, 3, d))
            if any(z) and z not in seen:
                seen.add(z)
                offsets.append(z)
        w = rng.random(len(offsets)) + 0.05
        w /= w.sum()
        an = validate_kernel(TransitionKernel(d, np.array(offsets), w))
        assert np.linalg.eigvalsh(an.covariance).min() >= -1e-12
        for z in map(tuple, an.sym_offsets):
            neg = tuple(-c for c in z)
            assert an.sym_of(z) == pytest.approx(an.sym_of(neg), abs=1e-15)
            assert an.asym_of(z) == pytest.approx(-an.asym_of(neg), abs=1e-15)


def _signed_permutation(perm, signs):
    """The matrix g with (g z)_i = signs[i] z[perm[i]]."""
    g = np.zeros((len(perm), len(perm)), dtype=np.int64)
    g[np.arange(len(perm)), perm] = signs
    return g


def test_point_group(kernel_d3_asym, kernel_d3_diag_tasep, kernel_d2_spec):
    # the signed axis permutations that preserve p and fix the odd support
    # pointwise, identity first
    def elements(an):
        assert np.array_equal(an.group[0], np.eye(an.dimension, dtype=np.int64))
        return {g.tobytes() for g in an.group}

    # acceptance kernel: y -> +-y, z -> +-z and y <-> z, with e1 fixed
    want = {_signed_permutation(perm, (1, sy, sz)).tobytes()
            for perm in ((0, 1, 2), (0, 2, 1)) for sy in (1, -1) for sz in (1, -1)}
    assert len(kernel_d3_asym.group) == 8 and elements(kernel_d3_asym) == want
    # diagonal TASEP: its odd support (1, +-1, 0) pins x and y, so z -> -z only
    want = {_signed_permutation((0, 1, 2), (1, 1, s)).tobytes() for s in (1, -1)}
    assert elements(kernel_d3_diag_tasep) == want
    # p(1, 0) = 1/2, p(0, 1) = p(-1, 0) = 1/4 and no p(0, -1): no symmetry
    assert elements(kernel_d2_spec) == {np.eye(2, dtype=np.int64).tobytes()}
    # d = 3 SSEP: no odd support, so the whole hyperoctahedral group
    full = validate_kernel(ssep(3)).group
    assert len(full) == len(elements(validate_kernel(ssep(3)))) == 48
    for an in (kernel_d3_asym, kernel_d3_diag_tasep, kernel_d2_spec):
        for g in an.group:
            for z, s, a in zip(an.sym_offsets, an.sym_weights, an.asym_weights):
                assert an.sym_of(g @ z) == s and an.asym_of(g @ z) == a
                assert a == 0.0 or np.array_equal(g @ z, z)

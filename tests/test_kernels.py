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

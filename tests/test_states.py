import math

import numpy as np
import pytest

from mixmcmc import autodiff as ad
from mixmcmc.exceptions import CapabilityError
from mixmcmc.states import GammaState, MultiLSState, UniLSState


def test_unils_unconstrained_known_values():
    assert np.allclose(UniLSState(0.0, 1.0).to_unconstrained(), [0.0, 0.0])
    u = UniLSState(2.0, 4.0).to_unconstrained()
    assert u[0] == 2.0
    assert u[1] == pytest.approx(math.log(4.0), abs=0.0)


def test_unils_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = UniLSState(rng.normal() * 10, rng.gamma(2.0) + 1e-3)
        back = UniLSState.from_unconstrained(state.to_unconstrained())
        assert back.mean == pytest.approx(state.mean, abs=1e-12)
        assert back.var == pytest.approx(state.var, rel=1e-12)


def _numeric_log_det_jacobian(from_unconstrained, u, coords, h=1e-6):
    """Central-difference Jacobian determinant of the constraining map."""
    dim = len(u)
    jac = np.zeros((dim, dim))
    for j in range(dim):
        up = np.array(u, dtype=float)
        dn = np.array(u, dtype=float)
        up[j] += h
        dn[j] -= h
        fp = coords(from_unconstrained(up))
        fm = coords(from_unconstrained(dn))
        jac[:, j] = (np.asarray(fp) - np.asarray(fm)) / (2 * h)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign > 0
    return logdet


def test_unils_log_det_jacobian_values():
    # the priors' unconstrained densities add u[1] = log var as the log-Jacobian
    def coords(s):
        return [s.mean, s.var]

    jac = _numeric_log_det_jacobian(UniLSState.from_unconstrained, np.zeros(2), coords)
    assert jac == pytest.approx(0.0, abs=1e-6)
    u = np.array([5.0, math.log(4.0)])
    jac = _numeric_log_det_jacobian(UniLSState.from_unconstrained, u, coords)
    assert jac == pytest.approx(math.log(4.0), abs=1e-6)


def test_unils_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = np.array([rng.normal(), rng.normal() * 0.5])
        expected = _numeric_log_det_jacobian(
            UniLSState.from_unconstrained, u, lambda s: [s.mean, s.var]
        )
        assert u[1] == pytest.approx(expected, abs=1e-6)


def test_jacobian_rejects_wrong_length():
    with pytest.raises(ValueError):
        UniLSState.from_unconstrained(np.array([1.0]))
    with pytest.raises(ValueError):
        UniLSState.from_unconstrained(np.array([1.0, 2.0, 3.0]))


def test_multils_requires_spd():
    with pytest.raises(ValueError):
        MultiLSState([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # not PD
    with pytest.raises(ValueError):
        MultiLSState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])  # not symmetric


def test_multils_cached_cholesky_consistent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        state = MultiLSState(rng.normal(size=3), cov)
        assert np.allclose(state.chol @ state.chol.T, state.cov, atol=1e-10)
        direct = math.log(np.linalg.det(state.cov))
        assert state.log_det == pytest.approx(direct, abs=1e-8)


def test_multils_has_no_unconstrained_transform():
    state = MultiLSState([0.0], [[1.0]])
    with pytest.raises(CapabilityError):
        state.to_unconstrained()


def test_gamma_has_no_unconstrained_transform():
    # the family fixes the kernel shape and is conjugate in the rate
    with pytest.raises(CapabilityError):
        GammaState(2.0, 1.5).to_unconstrained()
    assert not hasattr(GammaState, "from_unconstrained")


def test_var_must_be_positive():
    with pytest.raises(ValueError):
        UniLSState(0.0, 0.0)
    with pytest.raises(ValueError):
        GammaState(1.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        UniLSState(0.0, math.inf)


def test_params_round_trip():
    s1 = UniLSState(1.5, 2.5)
    assert UniLSState.from_params(s1.to_params()) == s1
    s2 = GammaState(2.0, 3.0)
    assert GammaState.from_params(s2.to_params()) == s2
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    s3 = MultiLSState([0.5, -0.5], cov)
    assert MultiLSState.from_params(s3.to_params()) == s3


def test_dual_gradient_matches_finite_differences():
    def fn(u):
        return ad.exp(u[0]) * u[1] + ad.log(u[1] * u[1] + 1.0) - u[0] / (u[1] * u[1] + 3.0)

    rng = np.random.default_rng(8)
    for _ in range(30):
        point = rng.normal(size=2)
        val, grad = ad.gradient(fn, point)
        h = 1e-6
        for j in range(2):
            up = point.copy()
            dn = point.copy()
            up[j] += h
            dn[j] -= h
            fd = (fn(up) - fn(dn)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_batched_duals_equal_one_dual_per_column():
    def fn(u):
        return ad.exp(u[0]) * u[1] + ad.log(u[1] * u[1] + 1.0) - u[0] / (u[1] * u[1] + 3.0)

    points = np.random.default_rng(9).normal(size=(2, 7))
    val, grad = ad.gradient(fn, points)
    assert val.shape == (7,) and grad.shape == (2, 7)
    for c in range(7):
        one_val, one_grad = ad.gradient(fn, points[:, c])
        assert val[c] == pytest.approx(one_val, rel=1e-14)
        assert grad[:, c] == pytest.approx(one_grad, rel=1e-14)
    ys, groups = np.array([0.5, -1.0, 2.0, 0.5, 3.0]), np.array([0, 0, 1, 2, 2])
    mean = ad.Dual(np.array([0.5, 1.0, 4.0]), np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    dev = ad.abs_dev_sum(ys, mean, groups)
    assert dev.val.tolist() == [1.5, 1.0, 4.5]
    # the tie y == mean counts as y >= mean, slope -1
    assert dev.grad.tolist() == [[0.0, -1.0, 2.0], [0.0, 0.0, 0.0]]

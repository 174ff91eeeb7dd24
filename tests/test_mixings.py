import math

import numpy as np
import pytest
from oracles import monte_carlo_se
from scipy.special import gammaln

from mixmcmc.config import parse_config
from mixmcmc.exceptions import ConfigError
from mixmcmc.mixings import (
    DirichletMixing,
    PitYorMixing,
    TruncatedSBMixing,
    build_mixing,
)


def test_dp_masses():
    # the masses are given on the log scale
    dp = DirichletMixing(totalmass=1.0)
    assert dp.mass_existing_cluster(10, 5) == math.log(5.0)
    assert math.exp(dp.mass_existing_cluster(10, 5)) == pytest.approx(5.0)
    assert dp.mass_new_cluster(10, 2) == 0.0
    assert dp.mass_new_cluster(10, 7) == 0.0


def test_py_masses():
    py = PitYorMixing(strength=1.0, discount=0.2)
    assert math.exp(py.mass_existing_cluster(10, 5)) == pytest.approx(4.8)
    assert math.exp(py.mass_new_cluster(10, 3)) == pytest.approx(1.6)


def test_py_zero_discount_equals_dp():
    py = PitYorMixing(strength=1.3, discount=0.0)
    dp = DirichletMixing(totalmass=1.3)
    for n_h in range(1, 10):
        for k in range(1, 5):
            assert py.mass_existing_cluster(20, n_h) == dp.mass_existing_cluster(20, n_h)
            assert py.mass_new_cluster(20, k) == dp.mass_new_cluster(20, k)


def test_py_masses_positive_for_valid_parameters():
    rng = np.random.default_rng(41)
    for _ in range(200):
        discount = rng.random() * 0.99
        strength = -discount + rng.gamma(1.0) + 1e-6
        py = PitYorMixing(strength, discount)
        n_h = int(rng.integers(1, 50))
        k = int(rng.integers(1, 20))
        assert math.exp(py.mass_existing_cluster(100, n_h)) > 0
        assert math.exp(py.mass_new_cluster(100, k)) > 0


def test_dp_exchangeability_identity_exact():
    rng = np.random.default_rng(42)
    for _ in range(100):
        alpha = float(rng.gamma(2.0) + 0.1)
        dp = DirichletMixing(alpha)
        k = int(rng.integers(1, 8))
        sizes = rng.integers(1, 10, size=k)
        n = int(sizes.sum())
        total = sum(math.exp(dp.mass_existing_cluster(n, int(s))) for s in sizes)
        total += math.exp(dp.mass_new_cluster(n, k))
        assert total == pytest.approx(n + alpha, rel=1e-14)


def test_py_mass_total_identity():
    # sum of existing masses + new mass = n + strength for any partition
    rng = np.random.default_rng(43)
    for _ in range(100):
        py = PitYorMixing(1.0, 0.25)
        k = int(rng.integers(1, 8))
        sizes = rng.integers(1, 10, size=k)
        n = int(sizes.sum())
        total = sum(math.exp(py.mass_existing_cluster(n, int(s))) for s in sizes)
        total += math.exp(py.mass_new_cluster(n, k))
        assert total == pytest.approx(n + 1.0, rel=1e-14)


def test_parameter_validation():
    with pytest.raises(ValueError):
        PitYorMixing(1.0, 1.0)
    with pytest.raises(ValueError):
        PitYorMixing(-0.3, 0.2)
    with pytest.raises(ValueError):
        DirichletMixing(0.0)
    with pytest.raises(ValueError):
        TruncatedSBMixing(0)


def test_stick_weights_worked_example():
    mix = TruncatedSBMixing(3)
    mix.sticks = np.array([0.5, 0.5])
    assert np.allclose(np.exp(mix.get_weights()), [0.5, 0.25, 0.25], atol=1e-15)


def test_stick_weights_degenerate_first_stick():
    mix = TruncatedSBMixing(4)
    mix.sticks = np.array([1.0, 0.3, 0.9])
    w = np.exp(mix.get_weights())
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_stick_weights_sum_to_one():
    rng = np.random.default_rng(44)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        mix = TruncatedSBMixing(m)
        mix.sticks = rng.random(m - 1) * 0.999 + 5e-4
        w = np.exp(mix.get_weights())
        assert w.shape == (m,)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_initial_sticks_give_uniform_weights():
    mix = TruncatedSBMixing(7)
    assert np.allclose(np.exp(mix.get_weights()), np.full(7, 1.0 / 7.0), atol=1e-12)


def test_fixed_dp_and_py_update_state_noop():
    dp = DirichletMixing(2.0)
    py = PitYorMixing(1.0, 0.2)
    rng = np.random.default_rng(45)
    dp.update_state([3, 4], 7, rng)
    py.update_state([3, 4], 7, rng)
    assert dp.totalmass == 2.0
    assert py.strength == 1.0


def test_truncsb_stick_full_conditional_beta_moment():
    rng = np.random.default_rng(46)
    draws = np.empty(100_000)
    mix = TruncatedSBMixing(2, totalmass=1.0)
    for t in range(draws.size):
        mix.update_state([3, 1], 4, rng)
        draws[t] = mix.sticks[0]
    # conditional is Beta(1 + 3, 1 + 1); draws are iid so plain SE applies
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 4.0 / 6.0) < 3 * se


def test_dp_gamma_hyperprior_stays_positive():
    rng = np.random.default_rng(47)
    dp = DirichletMixing(1.0, gamma_prior=(2.0, 4.0))
    for _ in range(2000):
        dp.update_state([1], 1, rng)
        assert dp.totalmass > 0


def _alpha_posterior_mean_quadrature(a, b, k, n):
    # p(alpha | k, n) ~ Gamma(alpha | a, b) * alpha^k * Gamma(alpha) / Gamma(alpha + n)
    grid = np.linspace(1e-8, 80.0, 400_001)
    logk = (
        (a - 1.0) * np.log(grid)
        - b * grid
        + k * np.log(grid)
        + gammaln(grid)
        - gammaln(grid + n)
    )
    kernel = np.exp(logk - logk.max())
    return float(np.trapezoid(kernel * grid, grid) / np.trapezoid(kernel, grid))


def test_dp_concentration_resampling_matches_quadrature():
    a, b, k, n = 2.0, 1.0, 6, 100
    target = _alpha_posterior_mean_quadrature(a, b, k, n)
    dp = DirichletMixing(1.0, gamma_prior=(a, b))
    rng = np.random.default_rng(48)
    sizes = [n // k] * k
    chain = np.empty(60_000)
    for t in range(chain.size):
        dp.update_state(sizes, n, rng)
        chain[t] = dp.totalmass
    se = monte_carlo_se(chain)
    assert abs(chain.mean() - target) < 3 * se


def test_truncsb_has_no_marginal_masses():
    # the samplers ask is_conditional() first, so truncated stick-breaking
    # offers no masses at all
    mix = TruncatedSBMixing(5)
    assert not hasattr(mix, "mass_existing_cluster")
    assert not hasattr(mix, "mass_new_cluster")


def test_is_conditional_flags():
    assert not DirichletMixing(1.0).is_conditional()
    assert not PitYorMixing(1.0, 0.1).is_conditional()
    assert TruncatedSBMixing(10).is_conditional()


def test_build_mixing_from_config_texts():
    dp = build_mixing("DP", parse_config("fixed_value { totalmass: 1.0 }"))
    assert dp.totalmass == 1.0
    assert dp.gamma_prior is None

    dp2 = build_mixing("DP", parse_config("gamma_prior { shape: 2.0 rate: 4.0 }"))
    assert dp2.gamma_prior == (2.0, 4.0)
    assert dp2.totalmass == 0.5  # prior mean as the initial value

    py = build_mixing("PY", parse_config("fixed_values { strength: 1.0 discount: 0.2 }"))
    assert (py.strength, py.discount) == (1.0, 0.2)

    sb = build_mixing("TruncSB", parse_config("num_components: 12\ntotalmass: 2.0"))
    assert sb.num_components == 12
    assert sb.totalmass == 2.0

    sb_default = build_mixing("TruncSB")
    assert sb_default.num_components == 25

    with pytest.raises(ConfigError):
        build_mixing("DP", parse_config(""))
    with pytest.raises(ConfigError):
        build_mixing("XY", parse_config(""))


@pytest.mark.parametrize("mix_type, text, key", [
    ("DP", "fixed_value { totalmass: 1.0 }\ngamma_prior_typo { shape: 2.0 rate: 2.0 }",
     "gamma_prior_typo"),
    ("DP", "fixed_value { totalmass: 1.0 discount: 0.5 }", "fixed_value.discount"),
    ("DP", "gamma_prior { shape: 2.0 rate: 2.0 mean: 1.0 }", "gamma_prior.mean"),
    ("PY", "fixed_values { strength: 1.0 discount: 0.2 }\ntotalmass: 1.0", "totalmass"),
    ("TruncSB", "num_component: 12", "num_component"),
])
def test_a_key_the_mixing_does_not_read_is_rejected(mix_type, text, key):
    # a misspelt gamma_prior block used to drop the DP hyperprior silently
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        build_mixing(mix_type, parse_config(text))


def test_a_repeated_block_is_rejected_where_one_is_read():
    with pytest.raises(ConfigError, match="repeated key 'fixed_value'"):
        build_mixing("DP", parse_config("fixed_value { totalmass: 1.0 }\n"
                                        "fixed_value { totalmass: 2.0 }"))


def test_state_params_round_trip():
    mix = TruncatedSBMixing(4, totalmass=1.5)
    rng = np.random.default_rng(49)
    mix.update_state([2, 1, 1, 0], 4, rng)
    params = mix.state_params()
    fresh = TruncatedSBMixing(4)
    fresh.set_state_params(params)
    assert np.array_equal(fresh.sticks, mix.sticks)
    assert fresh.totalmass == 1.5
    with pytest.raises(ValueError, match="stick vector length"):
        TruncatedSBMixing(5).set_state_params(params)

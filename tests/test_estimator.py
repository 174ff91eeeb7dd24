import numpy as np
import pytest
from oracles import adjusted_rand_index, similarity_matrix

from mixmcmc.chainio import MemoryCollector
from mixmcmc.estimator import BayesianMixture
from mixmcmc.exceptions import ConfigError
from mixmcmc.postprocess import binder_best_clustering


def _two_blob_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([rng.normal(size=half) - 3, rng.normal(size=n - half) + 3])
    labels = np.array([0] * half + [1] * (n - half))
    return x.reshape(-1, 1), labels


def test_get_set_params_round_trip():
    est = BayesianMixture(iterations=200, burnin=50)
    params = est.get_params()
    assert params["iterations"] == 200
    clone = BayesianMixture(**params)
    assert clone.get_params() == params
    est.set_params(mix_type="PY", iterations=99)
    assert est.mix_type == "PY"
    assert est.iterations == 99
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = BayesianMixture(iterations=123)
    cloned = sklearn_base.clone(est)
    assert cloned.get_params() == est.get_params()


def test_fit_recovers_two_clusters():
    x, truth = _two_blob_data(seed=1, n=80)
    est = BayesianMixture(iterations=600, burnin=200, random_state=5)
    est.fit(x)
    assert est.__sklearn_is_fitted__()
    assert est.labels_.shape == (80,)
    assert est.n_clusters_ == 2
    assert adjusted_rand_index(est.labels_, truth) > 0.95
    assert est.similarity_matrix_.shape == (80, 80)
    assert est.num_clusters_chain_.shape == (400,)


def test_fit_replays_the_chain_once(monkeypatch):
    replays = []
    real_iter = MemoryCollector.__iter__

    def counting_iter(self):
        replays.append(1)
        return real_iter(self)

    monkeypatch.setattr(MemoryCollector, "__iter__", counting_iter)
    x, _ = _two_blob_data(seed=3, n=30)
    est = BayesianMixture(iterations=60, burnin=20, random_state=4).fit(x)
    assert len(replays) == 1
    assert est.num_clusters_chain_.shape == (40,)
    assert est.labels_.tolist() == est.best_record_.allocations.tolist()


def test_fit_post_processing_equals_the_public_functions():
    x, _ = _two_blob_data(seed=3, n=30)
    est = BayesianMixture(iterations=60, burnin=20, random_state=4).fit(x)
    records = list(est.collector_)
    assert est.similarity_matrix_.tobytes() == similarity_matrix(records).tobytes()
    assert est.labels_.tolist() == binder_best_clustering(records).tolist()


def test_fit_predict_matches_labels():
    x, _ = _two_blob_data(seed=2)
    est = BayesianMixture(iterations=300, burnin=100, random_state=6)
    labels = est.fit_predict(x)
    assert np.array_equal(labels, est.labels_)


def test_predict_on_training_data_agrees_with_point_estimate():
    x, _ = _two_blob_data(seed=3)
    est = BayesianMixture(iterations=400, burnin=150, random_state=7).fit(x)
    predicted = est.predict(x)
    # points midway between blobs may flip between a singleton cluster and
    # the dominant ones; the bulk assignment must agree
    agreement = np.mean(predicted == est.labels_)
    assert agreement >= 0.9


def test_predict_assigns_new_points_to_nearest_blob():
    x, _ = _two_blob_data(seed=4)
    est = BayesianMixture(iterations=400, burnin=150, random_state=8).fit(x)
    label_low = est.predict([[-3.0]])[0]
    label_high = est.predict([[3.0]])[0]
    assert label_low != label_high
    assert est.predict([[-2.5], [2.5]]).tolist() == [label_low, label_high]


def test_score_samples_is_log_density():
    x, _ = _two_blob_data(seed=5)
    est = BayesianMixture(iterations=300, burnin=100, random_state=9).fit(x)
    grid = np.linspace(-9, 9, 601).reshape(-1, 1)
    logd = est.score_samples(grid)
    assert logd.shape == (601,)
    mass = np.trapezoid(np.exp(logd), grid[:, 0])
    assert mass == pytest.approx(1.0, abs=0.02)
    assert est.score(x) == pytest.approx(float(est.score_samples(x).mean()))


def test_determinism_across_fits():
    x, _ = _two_blob_data(seed=6)
    a = BayesianMixture(iterations=200, burnin=50, random_state=11).fit(x)
    b = BayesianMixture(iterations=200, burnin=50, random_state=11).fit(x)
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.num_clusters_chain_, b.num_clusters_chain_)


def test_blocked_gibbs_front_end():
    x, truth = _two_blob_data(seed=7, n=100)
    est = BayesianMixture(
        algorithm="BlockedGibbs",
        mix_type="TruncSB",
        mix_params={"num_components": 15, "totalmass": 1.0},
        iterations=400,
        burnin=150,
        random_state=12,
    ).fit(x)
    assert adjusted_rand_index(est.labels_, truth) > 0.95


def test_multivariate_front_end():
    rng = np.random.default_rng(13)
    x = np.vstack([rng.normal(size=(40, 3)) + 2, rng.normal(size=(40, 3)) - 2])
    truth = np.array([0] * 40 + [1] * 40)
    est = BayesianMixture(
        hier_type="NNW", algorithm="Neal3", iterations=250, burnin=100, random_state=14
    ).fit(x)
    assert est.n_features_in_ == 3
    assert adjusted_rand_index(est.labels_, truth) > 0.95


def test_unfitted_estimator_raises():
    est = BayesianMixture()
    with pytest.raises(ValueError, match="not fitted"):
        est.predict([[0.0]])
    with pytest.raises(ValueError, match="not fitted"):
        est.score_samples([[0.0]])


def test_invalid_configuration_raises():
    # the builders reject an unknown name with a ConfigError, which is a ValueError
    for name in ("algorithm", "hier_type", "mix_type"):
        est = BayesianMixture(**{name: "Nope"})
        with pytest.raises(ValueError, match="Nope") as err:
            est.fit([[0.0], [1.0]])
        assert isinstance(err.value, ConfigError)
        assert not est.__sklearn_is_fitted__()


@pytest.mark.parametrize("name", ["iterations", "n_aux", "burnin"])
def test_non_integer_counts_are_rejected_by_name(name):
    # an infinite count used to overflow, a fractional burnin to keep 17
    # records, and True to count as 1
    for value in (2.5 if name == "burnin" else float("inf"), True):
        est = BayesianMixture(**{"algorithm": "Neal8", "iterations": 20, "burnin": 0,
                                 name: value})
        with pytest.raises(ValueError, match=name):
            est.fit([[0.0], [1.0]])
        assert not est.__sklearn_is_fitted__()


@pytest.mark.parametrize("seed", [None, np.random.default_rng(0), -1, 1.0, True],
                         ids=["None", "Generator", "negative", "float", "bool"])
def test_random_state_must_be_a_non_negative_integer(seed):
    est = BayesianMixture(iterations=20, burnin=5, random_state=seed)
    with pytest.raises(ValueError, match="random_state"):
        est.fit([[0.0], [1.0]])
    assert not est.__sklearn_is_fitted__()  # stopped before the chain ran


def test_numpy_integer_random_state_fits_the_same_chain():
    x, _ = _two_blob_data(seed=6, n=30)
    a = BayesianMixture(iterations=60, burnin=20, random_state=11).fit(x)
    b = BayesianMixture(iterations=60, burnin=20, random_state=np.int64(11)).fit(x)
    assert np.array_equal(a.labels_, b.labels_)
    assert a.score(x) == b.score(x)


def test_score_uses_the_seed_of_the_fit():
    # score_samples draws with the seed fit ran at, whatever random_state says now
    x, _ = _two_blob_data(seed=8, n=40)
    est = BayesianMixture(hier_type="NNxIG", algorithm="Neal8", iterations=80, burnin=20,
                          random_state=3).fit(x)
    score = est.score(x)
    assert est.set_params(random_state=4).score(x) == score
    assert est.set_params(random_state=None).score(x) == score

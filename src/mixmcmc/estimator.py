"""Estimator-style front end over the sampling engine.

``BayesianMixture`` follows the scikit-learn protocol (``fit`` /
``predict`` / ``score_samples`` / ``get_params`` / ``set_params``) without
depending on scikit-learn, so it composes with tools that clone estimators
or build pipelines. ``fit`` runs the configured chain on the data;
``labels_`` is the Binder-loss point clustering of the training data, and
``predict`` assigns new points to the clusters of that same partition.
"""

import numbers

import numpy as np

from . import postprocess
from ._validation import check_data_matrix
from .algorithms import build_algorithm
from .chainio import MemoryCollector
from .hierarchy import build_hierarchy
from .mixings import build_mixing

_PARAM_NAMES = (
    "hier_type",
    "hier_params",
    "mix_type",
    "mix_params",
    "algorithm",
    "iterations",
    "burnin",
    "init_num_clusters",
    "n_aux",
    "random_state",
)


class BayesianMixture:
    """Bayesian mixture model fitted by MCMC posterior simulation.

    Parameters
    ----------
    hier_type : str, default="NNIG"
        Component family, one of ``NNIG``, ``NNxIG``, ``LapNIG``, ``NNW``,
        ``GammaGamma``.
    hier_params : dict, optional
        Hyperparameters (the ``fixed_values`` block, plus optional
        ``updater`` / ``step_size`` / ``num_steps``). When omitted,
        data-driven defaults are derived at fit time.
    mix_type : str, default="DP"
        Prior on the weights: ``DP``, ``PY`` or ``TruncSB``.
    mix_params : dict, optional
        Mixing parameters; defaults are derived when omitted.
    algorithm : str, default="Neal2"
        One of ``Neal2``, ``Neal3``, ``Neal8``, ``BlockedGibbs``.
    iterations, burnin : int
        Total and discarded numbers of MCMC iterations.
    init_num_clusters : int, default=3
        Number of clusters in the striped initial allocation.
    n_aux : int, default=3
        Auxiliary draws per datum (Neal8 only).
    random_state : int, default=0
        Seed of the sampling generator, a non-negative integer; ``fit``
        rejects anything else. ``score_samples`` draws with the seed of the
        last ``fit``, whatever ``random_state`` holds since.

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
        Binder-loss point estimate of the training partition.
    n_clusters_ : int
        Number of clusters in ``labels_``.
    num_clusters_chain_ : ndarray
        Number of clusters at each retained iteration.
    similarity_matrix_ : ndarray of shape (n_samples, n_samples)
        Posterior co-clustering frequencies.
    """

    def __init__(
        self,
        hier_type="NNIG",
        hier_params=None,
        mix_type="DP",
        mix_params=None,
        algorithm="Neal2",
        iterations=1500,
        burnin=500,
        init_num_clusters=3,
        n_aux=3,
        random_state=0,
    ):
        self.hier_type = hier_type
        self.hier_params = hier_params
        self.mix_type = mix_type
        self.mix_params = mix_params
        self.algorithm = algorithm
        self.iterations = iterations
        self.burnin = burnin
        self.init_num_clusters = init_num_clusters
        self.n_aux = n_aux
        self.random_state = random_state

    # -- scikit-learn parameter protocol ---------------------------------

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown parameter '{name}'")
            setattr(self, name, value)
        return self

    # -- defaults ----------------------------------------------------------

    def _default_hier_params(self, X):
        d = X.shape[1]
        if self.hier_type == "NNIG":
            return {
                "fixed_values": {
                    "mean": float(X.mean()),
                    "var_scaling": 0.1,
                    "shape": 2.0,
                    "scale": max(float(X.var()), 1e-6),
                }
            }
        if self.hier_type in ("NNxIG", "LapNIG"):
            return {
                "fixed_values": {
                    "mean": float(X.mean()),
                    "var": max(float(X.var()), 1e-6) * 10.0,
                    "shape": 2.0,
                    "scale": max(float(X.var()), 1e-6),
                }
            }
        if self.hier_type == "NNW":
            variances = np.maximum(X.var(axis=0), 1e-6)
            scale = np.diag(variances)
            return {
                "fixed_values": {
                    "mean": {"size": d, "data": [float(v) for v in X.mean(axis=0)]},
                    "var_scaling": 0.01,
                    "deg_free": float(d + 2),
                    "scale": {
                        "rows": d,
                        "cols": d,
                        "data": [float(v) for v in scale.reshape(-1)],
                        "rowmajor": True,
                    },
                }
            }
        # GammaGamma: exponential kernel with a weak prior on the rate
        return {"fixed_values": {"shape": 1.0, "rate_alpha": 2.0, "rate_beta": 2.0}}

    def _default_mix_params(self):
        if self.mix_type == "DP":
            return {"fixed_value": {"totalmass": 1.0}}
        if self.mix_type == "PY":
            return {"fixed_values": {"strength": 1.0, "discount": 0.1}}
        return {"num_components": 25, "totalmass": 1.0}

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y=None):
        """Run the chain on X and derive the point clustering."""
        if (not isinstance(self.random_state, numbers.Integral)
                or isinstance(self.random_state, bool) or self.random_state < 0):
            raise ValueError(
                f"'random_state' must be a non-negative integer, got {self.random_state!r}")
        X = check_data_matrix(X, "X")
        hier_params = self.hier_params or self._default_hier_params(X)
        mix_params = self.mix_params or self._default_mix_params()
        hierarchy = build_hierarchy(self.hier_type, hier_params)
        mixing = build_mixing(self.mix_type, mix_params)
        algorithm = build_algorithm(
            self.algorithm,
            hierarchy,
            mixing,
            init_num_clusters=self.init_num_clusters,
            n_aux=self.n_aux,
        )
        collector = MemoryCollector()
        algorithm.run(X, self.iterations, self.burnin, collector,
                      np.random.default_rng(self.random_state))
        # set once the chain has run, so that a rejected fit does not look fitted
        self.algorithm_, self.collector_ = algorithm, collector
        self._seed = int(self.random_state)  # score_samples reads the seed of this fit

        self.n_features_in_ = X.shape[1]
        records = list(self.collector_)  # the one replay of the chain
        allocs = postprocess.allocation_matrix(records)
        counts = postprocess._coclustering(allocs)
        self.similarity_matrix_ = counts / len(records)
        self.num_clusters_chain_ = postprocess.num_clusters_chain(records)
        self.best_record_ = records[postprocess._binder_argmin(allocs, counts)]
        self.labels_ = self.best_record_.allocations.copy()
        self.n_clusters_ = len(set(self.labels_.tolist()))
        return self

    def _check_fitted(self):
        if not hasattr(self, "algorithm_"):
            raise ValueError("this estimator is not fitted yet; call fit first")

    def __sklearn_is_fitted__(self):
        return hasattr(self, "algorithm_")

    # -- inference on new data ----------------------------------------------

    def predict(self, X):
        """Assign rows of X to the clusters of the point-estimate partition."""
        self._check_fitted()
        X = check_data_matrix(X, "X")
        algorithm = self.algorithm_
        algorithm.template.likelihood.check_dim(X)
        record = self.best_record_
        # argmax over the record's non-empty clusters; a new cluster's row is not scored
        rows = next(algorithm._record_rows([record], X))
        rows[[cs.cardinality == 0 for cs in record.cluster_states]] = -np.inf
        return rows.argmax(axis=0)

    def score_samples(self, X):
        """Posterior-mean predictive log density at the rows of X."""
        self._check_fitted()
        lpdf = self.algorithm_.eval_lpdf_grid(
            self.collector_, X, rng=np.random.default_rng([self._seed, 1])
        )
        return postprocess.log_mean_density(lpdf)

    def score(self, X, y=None):
        """Mean predictive log density of X."""
        return float(np.mean(self.score_samples(X)))

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

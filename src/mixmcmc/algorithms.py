"""MCMC drivers: marginal samplers and the blocked Gibbs sampler.

The marginal samplers sweep the allocations one datum at a time against
the masses induced by the mixing's partition prior, then refresh every
cluster's parameters from its full conditional. The blocked Gibbs sampler
keeps a fixed number of components with explicit stick-breaking weights.
All normalizations happen on the log scale with max subtraction.
"""

import copy
import math

import numpy as np

from ._util import logsumexp, sample_log_categorical
from ._validation import check_data_matrix, check_positive_int
from .chainio import ChainState, ClusterParams
from .exceptions import ConfigError

ALGORITHM_IDS = ("Neal2", "Neal3", "Neal8", "BlockedGibbs")


class _BaseAlgorithm:
    algo_id = None
    requires_conjugate = False
    requires_conditional_mixing = False

    def __init__(self, hierarchy, mixing, init_num_clusters=3):
        if mixing.is_conditional() != self.requires_conditional_mixing:
            kind = "conditional" if self.requires_conditional_mixing else "marginal"
            raise ConfigError(f"{self.algo_id} requires a {kind} mixing")
        if self.requires_conjugate and not hierarchy.is_conjugate():
            raise ConfigError(
                f"{self.algo_id} requires a conjugate hierarchy; "
                f"{hierarchy.name or type(hierarchy).__name__} with "
                f"{type(hierarchy.updater).__name__} is not"
            )
        self.template = hierarchy
        self.mixing = mixing
        self.init_num_clusters = check_positive_int(init_num_clusters, "init_num_clusters")
        self.data = None
        self.allocations = None
        self._rows = None

    @property
    def n(self):
        return 0 if self.data is None else self.data.shape[0]

    def _prepare_data(self, data):
        data = check_data_matrix(data, "data")
        if self.template.likelihood.is_multivariate:
            want = self.template.likelihood.dim
            if data.shape[1] != want:
                raise ValueError(
                    f"data has dimension {data.shape[1]}, hierarchy expects {want}"
                )
        elif data.shape[1] != 1:
            raise ValueError("univariate hierarchy expects 1-column data")
        self.data = data
        if data.shape[1] == 1:
            self._rows = [float(v) for v in data[:, 0]]
        else:
            self._rows = [data[i] for i in range(data.shape[0])]

    def run(self, data, iterations, burnin, collector, rng):
        """Run the chain, collecting the (iterations - burnin) retained states."""
        iterations = check_positive_int(iterations, "iterations")
        if burnin < 0 or burnin >= iterations:
            raise ValueError("need 0 <= burnin < iterations")
        self._prepare_data(data)
        self._initialize(rng)
        collector.start_collecting()
        for it in range(iterations):
            self.step(rng)
            if it >= burnin:
                collector.collect(self._snapshot(it))
        collector.finish_collecting()

    def _component_list(self):
        raise NotImplementedError

    def _snapshot(self, iteration):
        cluster_states = [
            ClusterParams(cl.card, cl.state.to_params()) for cl in self._component_list()
        ]
        return ChainState(
            iteration,
            cluster_states,
            self.allocations.copy(),
            self.mixing.state_params(),
        )

    def _scratch_likelihood(self):
        return self.template.likelihood.clone_empty()

    def eval_lpdf_grid(self, collector, grid, rng=None):
        """Per-record mixture log density on a grid; rows follow the chain order."""
        grid = check_data_matrix(grid, "grid")
        if collector.get_size() == 0:
            raise ValueError("cannot evaluate densities on an empty chain")
        if rng is None:
            rng = np.random.default_rng(0)
        scratch = self._scratch_likelihood()
        state_cls = type(self.template.state)
        mixing = copy.copy(self.mixing)
        rows = []
        for record in collector:
            mixing.set_state_params(record.mixing_params)
            rows.append(
                self._record_lpdf_grid(record, grid, scratch, state_cls, mixing, rng)
            )
        return np.vstack(rows)


class _MarginalAlgorithm(_BaseAlgorithm):
    """One allocation sweep for every marginal sampler.

    Each datum leaves its cluster, is scored against every existing cluster
    and every new-cluster candidate, and joins the one drawn. A sampler names
    the :class:`Hierarchy` method that scores a datum against an existing
    cluster and supplies its new-cluster candidates; the default candidate is
    the prior predictive, born from the single-datum full conditional.
    """

    requires_conditional_mixing = False
    _existing_score = "get_like_lpdf"

    def step(self, rng):
        n = self.n
        # looked up once per sweep, not once per (datum, cluster) pair
        score = getattr(type(self.template), self._existing_score)
        new_candidates = self._new_candidates()
        for i in range(n):
            stashed = self._remove_datum(i)
            y = self._rows[i]
            k = len(self.clusters)
            log_masses = [
                self.mixing.mass_existing_cluster(n, cluster.card, k, log=True)
                + score(cluster, y)
                for cluster in self.clusters
            ]
            log_new = self.mixing.mass_new_cluster(n, k, log=True)
            log_masses += new_candidates(y, log_new, stashed, rng)
            choice = sample_log_categorical(log_masses, rng)
            if choice < k:
                self.clusters[choice].add_datum(i, y)
                self.allocations[i] = choice
            else:
                self._open_cluster(i, rng, state=self._candidate_state(choice - k))
        self._refresh_clusters(rng)

    def _new_candidates(self):
        """Per-sweep function (y, log_new, stashed, rng) -> candidate log masses."""
        prior_pred = self.template.prior_predictive()
        return lambda y, log_new, stashed, rng: [log_new + prior_pred.lpdf(y)]

    def _candidate_state(self, j):
        """State of the chosen candidate j; None draws it from the full conditional."""
        return None

    def _initialize(self, rng):
        n = self.n
        k0 = min(self.init_num_clusters, n)
        self.clusters = []
        self.allocations = np.array([i % k0 for i in range(n)], dtype=int)
        for _ in range(k0):
            cluster = self.template.clone()
            cluster.sample_prior(rng)
            self.clusters.append(cluster)
        for i in range(n):
            self.clusters[self.allocations[i]].add_datum(i, self._rows[i])

    def _component_list(self):
        return self.clusters

    def _counts(self):
        return [cl.card for cl in self.clusters]

    def _remove_datum(self, i):
        """Detach datum i; returns the state of its cluster if it died."""
        h = int(self.allocations[i])
        cluster = self.clusters[h]
        cluster.remove_datum(i, self._rows[i])
        self.allocations[i] = -1
        if cluster.card > 0:
            return None
        last = len(self.clusters) - 1
        if h != last:
            self.clusters[h] = self.clusters[last]
            self.allocations[self.allocations == last] = h
        self.clusters.pop()
        return cluster.state

    def _open_cluster(self, i, rng, state=None):
        cluster = self.template.clone()
        if state is not None:
            cluster.state = state.copy()
        cluster.add_datum(i, self._rows[i])
        if state is None:
            # parameters born from the single-datum full conditional
            cluster.sample_full_cond(rng)
        self.allocations[i] = len(self.clusters)
        self.clusters.append(cluster)

    def _refresh_clusters(self, rng):
        for cluster in self.clusters:
            cluster.sample_full_cond(rng)
        self.mixing.update_state(self._counts(), self.n, rng)

    def _record_lpdf_grid(self, record, grid, scratch, state_cls, mixing, rng):
        n = record.allocations.shape[0]
        k = len(record.cluster_states)
        log_masses = np.empty(k + 1)
        parts = np.empty((k + 1, grid.shape[0]))
        for h, cs in enumerate(record.cluster_states):
            log_masses[h] = mixing.mass_existing_cluster(n, cs.cardinality, k, log=True)
            scratch.state = state_cls.from_params(cs.params)
            parts[h] = scratch.lpdf_grid(grid)
        log_masses[k] = mixing.mass_new_cluster(n, k, log=True)
        if self.template.is_conjugate():
            parts[k] = self.template.prior_predictive().lpdf_grid(grid)
        else:
            # plug-in new-cluster term: one prior draw per record
            scratch.state = self.template.prior.sample(rng)
            parts[k] = scratch.lpdf_grid(grid)
        log_weights = log_masses - logsumexp(log_masses)
        stacked = log_weights[:, None] + parts
        return _logsumexp_rows(stacked)


def _logsumexp_rows(stacked):
    mx = np.max(stacked, axis=0)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    return mx + np.log(np.sum(np.exp(stacked - mx), axis=0))


class Neal2Algorithm(_MarginalAlgorithm):
    """Marginal sampler for conjugate hierarchies with kernel evaluations."""

    algo_id = "Neal2"
    requires_conjugate = True


class Neal3Algorithm(_MarginalAlgorithm):
    """Marginal sampler for conjugate hierarchies with predictive evaluations."""

    algo_id = "Neal3"
    requires_conjugate = True
    _existing_score = "conditional_pred_lpdf"


class Neal8Algorithm(_MarginalAlgorithm):
    """Auxiliary-parameter marginal sampler; works with any hierarchy."""

    algo_id = "Neal8"
    requires_conjugate = False

    def __init__(self, hierarchy, mixing, init_num_clusters=3, n_aux=3):
        super().__init__(hierarchy, mixing, init_num_clusters)
        self.n_aux = check_positive_int(n_aux, "n_aux")
        self._aux = [hierarchy.clone() for _ in range(self.n_aux)]

    def _new_candidates(self):
        aux = self._aux
        log_naux = math.log(len(aux))

        def candidates(y, log_new, stashed, rng):
            # slot 0 takes back the state of the cluster the datum just emptied
            for j, cluster in enumerate(aux):
                if j == 0 and stashed is not None:
                    cluster.state = stashed
                else:
                    cluster.sample_prior(rng)
            log_new -= log_naux
            return [log_new + cluster.get_like_lpdf(y) for cluster in aux]

        return candidates

    def _candidate_state(self, j):
        return self._aux[j].state


class BlockedGibbsAlgorithm(_BaseAlgorithm):
    """Conditional sampler over a fixed number of weighted components."""

    algo_id = "BlockedGibbs"
    requires_conditional_mixing = True

    def _initialize(self, rng):
        n = self.n
        m = self.mixing.num_components
        k0 = min(self.init_num_clusters, m, n)
        self.components = []
        self.allocations = np.array([i % k0 for i in range(n)], dtype=int)
        for _ in range(m):
            comp = self.template.clone()
            comp.sample_prior(rng)
            self.components.append(comp)
        for i in range(n):
            self.components[self.allocations[i]].add_datum(i, self._rows[i])

    def _component_list(self):
        return self.components

    def step(self, rng):
        n = self.n
        m = self.mixing.num_components
        log_w = self.mixing.get_weights(log=True)
        logits = np.empty((m, n))
        for h, comp in enumerate(self.components):
            logits[h] = log_w[h] + comp.like_lpdf_grid(self.data)
        mx = logits.max(axis=0)
        probs = np.exp(logits - mx)
        probs /= probs.sum(axis=0)
        cum = np.cumsum(probs, axis=0)
        new_alloc = np.minimum((cum < rng.random(n)).sum(axis=0), m - 1)
        for i in np.nonzero(new_alloc != self.allocations)[0]:
            self.components[self.allocations[i]].remove_datum(int(i), self._rows[i])
            self.components[new_alloc[i]].add_datum(int(i), self._rows[i])
            self.allocations[i] = new_alloc[i]
        counts = np.bincount(self.allocations, minlength=m)
        self.mixing.update_state(counts, n, rng)
        for comp in self.components:
            comp.sample_full_cond(rng)

    def _record_lpdf_grid(self, record, grid, scratch, state_cls, mixing, rng):
        with np.errstate(divide="ignore"):
            log_w = mixing.get_weights(log=True)
        m = len(record.cluster_states)
        parts = np.full((m, grid.shape[0]), -np.inf)
        for h, cs in enumerate(record.cluster_states):
            if not np.isfinite(log_w[h]):
                continue
            scratch.state = state_cls.from_params(cs.params)
            parts[h] = log_w[h] + scratch.lpdf_grid(grid)
        return _logsumexp_rows(parts)


_ALGORITHM_CLASSES = {
    "Neal2": Neal2Algorithm,
    "Neal3": Neal3Algorithm,
    "Neal8": Neal8Algorithm,
    "BlockedGibbs": BlockedGibbsAlgorithm,
}


def build_algorithm(algo_id, hierarchy, mixing, init_num_clusters=3, n_aux=3):
    """Create an algorithm by id, validating hierarchy/mixing compatibility."""
    if algo_id not in _ALGORITHM_CLASSES:
        raise ConfigError(
            f"unknown algorithm '{algo_id}'; expected one of " + ", ".join(ALGORITHM_IDS)
        )
    if algo_id == "Neal8":
        return Neal8Algorithm(hierarchy, mixing, init_num_clusters, n_aux)
    return _ALGORITHM_CLASSES[algo_id](hierarchy, mixing, init_num_clusters)

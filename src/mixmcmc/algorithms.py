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

# Neal8 draws its auxiliary states in blocks of data of about this many
# n_aux * d * d cells, so that the batch's memory stays bounded at large n
_AUX_BATCH_CELLS = 1 << 16


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

    def _initial_num_clusters(self):
        raise NotImplementedError

    def _initialize(self, rng):
        """Draw the starting clusters from the prior and stripe the data over them."""
        n, k0 = self.n, self._initial_num_clusters()
        stripes = min(self.init_num_clusters, k0, n)
        self.allocations = np.array([i % stripes for i in range(n)], dtype=int)
        self.clusters = []
        for _ in range(k0):
            cluster = self.template.clone()
            cluster.sample_prior(rng)
            self.clusters.append(cluster)
        for i in range(n):
            self.clusters[self.allocations[i]].add_datum(i, self._rows[i])

    def _snapshot(self, iteration):
        cluster_states = [
            ClusterParams(cl.card, cl.state.to_params()) for cl in self.clusters
        ]
        return ChainState(
            iteration,
            cluster_states,
            self.allocations.copy(),
            self.mixing.state_params(),
        )

    def _record_log_weights(self, record, mixing):
        """Log weights of one record, the mixing set to its state.

        One per cluster of the record and, for a marginal sampler, a last one
        for a new cluster, whose density is ``_new_cluster_lpdf``.
        """
        raise NotImplementedError

    def _new_cluster_lpdf(self, grid, scratch, rng):
        """A function giving, record by record, a new cluster's log density on the grid.

        None here: a conditional sampler's records carry no new-cluster weight.
        """
        return None

    def _record_rows(self, records, grid, rng):
        """Yield, per record, its rows log w_h + log f_h(grid), one per weight.

        Each cluster's state is rebuilt once from its params; a row whose
        weight is -inf is -inf, its density not evaluated.
        """
        scratch = self.template.likelihood.clone_empty()
        state_cls = type(self.template.state)
        mixing = copy.copy(self.mixing)
        new_cluster_lpdf = self._new_cluster_lpdf(grid, scratch, rng)
        for record in records:
            mixing.set_state_params(record.mixing_params)
            log_w = self._record_log_weights(record, mixing)
            rows = np.empty((len(log_w), grid.shape[0]))
            for h, (w, cs) in enumerate(zip(log_w.tolist(), record.cluster_states)):
                if math.isfinite(w):
                    scratch.state = state_cls.from_params(cs.params)
                    rows[h] = scratch.lpdf_grid(grid)
                else:
                    rows[h] = -np.inf
            if len(log_w) > len(record.cluster_states):
                rows[-1] = new_cluster_lpdf()
            rows += log_w[:, None]
            yield rows

    def eval_lpdf_grid(self, records, grid, rng=None):
        """Per-record mixture log density on a grid; rows follow the chain order.

        ``records`` is a collector or a list of its records.
        """
        grid = check_data_matrix(grid, "grid")
        if len(records) == 0:
            raise ValueError("cannot evaluate densities on an empty chain")
        if rng is None:
            rng = np.random.default_rng(0)
        return np.vstack([_logsumexp_rows(rows) for rows in self._record_rows(records, grid, rng)])


def _logsumexp_rows(stacked):
    mx = np.max(stacked, axis=0)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):  # a column of -inf sums to log(0) = -inf
        return mx + np.log(np.sum(np.exp(stacked - mx), axis=0))


class _Memo(dict):
    """f(key), computed on first use of each key."""

    __slots__ = ("_f",)

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, key):
        value = self[key] = self._f(key)
        return value


class _MarginalAlgorithm(_BaseAlgorithm):
    """One allocation sweep for every marginal sampler.

    Each datum leaves its cluster, is scored against every existing cluster
    and every new-cluster candidate, and joins the one drawn. The sweep runs
    on a flat cluster store, parallel lists kept in step with
    ``self.clusters``: each cluster's size, its likelihood's statistic list
    (updated in place on every move), its log mass (looked up again when its
    size changes) and its scorer ``y -> log score``. The allocations are a
    Python list during the sweep. The store is built at the start of each
    sweep; before the refresh the allocations go back to the array and the
    member ids to the likelihoods. Births and deaths go through the cluster
    objects (``_open_cluster``, ``_remove_datum``).

    A sampler supplies the scorer of an existing cluster
    (:meth:`_cluster_scorer`) and its new-cluster candidates; the default
    candidate is the prior predictive, born from the single-datum full
    conditional.
    """

    requires_conditional_mixing = False
    # True when a cluster's scorer depends on its members: rebuilt after a
    # move, once the next datum has left, as that datum often leaves the same
    # cluster again
    _scorer_uses_members = False

    def step(self, rng):
        n = self.n
        self._build_store()
        new_candidates = self._new_candidates(rng)
        rows, labels, sizes, stats = self._rows, self._labels, self._sizes, self._stats
        log_masses, scorers, update_stats = self._log_masses, self._scorers, self._update_stats
        log_new_mass = _Memo(lambda k: self.mixing.mass_new_cluster(n, k))
        for i in range(n):
            stashed = self._remove_datum(i)
            if self._dirty:
                self._rescore_dirty()
            y = rows[i]
            k = len(scorers)
            logs = [mass + score(y) for mass, score in zip(log_masses, scorers)]
            logs += new_candidates(i, log_new_mass[k], stashed)
            choice = sample_log_categorical(logs, rng)
            if choice < k:
                labels[i] = choice
                update_stats(stats[choice], i, y, True)
                self._resized(choice, sizes[choice] + 1)
            else:
                state = self._candidate_state(i, choice - k, stashed)
                self._open_cluster(i, rng, state=state)
        self._rescore_dirty()
        self._sync_members()
        self._refresh_clusters(rng)

    def _cluster_scorer(self, h):
        """Scorer of existing cluster h: its kernel at the current state."""
        return self.clusters[h].likelihood.scorer()

    def _new_candidates(self, rng):
        """Per-sweep function (i, log_new, stashed) -> candidate log masses of datum i.

        ``stashed`` is the state of the cluster datum i just emptied, or None.
        """
        score, rows = self.template.prior_predictive().lpdf, self._rows
        return lambda i, log_new, stashed: [log_new + score(rows[i])]

    def _candidate_state(self, i, j, stashed):
        """State of datum i's chosen candidate j; None draws it from the full conditional."""
        return None

    def _initial_num_clusters(self):
        return min(self.init_num_clusters, self.n)

    def _counts(self):
        return [cl.card for cl in self.clusters]

    def _build_store(self):
        n, mixing = self.n, self.mixing
        self._labels = self.allocations.tolist()
        self._update_stats = type(self.template.likelihood).update_stats
        self._sizes = sizes = self._counts()
        self._stats = [cl.likelihood.stats for cl in self.clusters]
        # the existing-cluster mass depends on n and the size only, and the
        # mixing state is fixed during a sweep
        self._mass_of_size = _Memo(
            lambda size: mixing.mass_existing_cluster(n, size, len(sizes)))
        self._log_masses = [self._mass_of_size[size] for size in sizes]
        self._scorers = [self._cluster_scorer(h) for h in range(len(sizes))]
        self._dirty = set()  # clusters whose member-dependent scorer is stale

    def _resized(self, h, size):
        self._sizes[h] = size
        self._log_masses[h] = self._mass_of_size[size]
        if self._scorer_uses_members:
            self._dirty.add(h)

    def _rescore_dirty(self):
        for h in self._dirty:
            self._scorers[h] = self._cluster_scorer(h)
        self._dirty.clear()

    def _remove_datum(self, i):
        """Detach datum i; returns the state of its cluster if it died."""
        labels = self._labels
        h = labels[i]
        labels[i] = -1
        y = self._rows[i]
        size = self._sizes[h] - 1
        if size:
            self._update_stats(self._stats[h], i, y, False)
            self._resized(h, size)
            return None
        # a death goes through the cluster object, holding just this datum
        cluster = self.clusters[h]
        cluster.likelihood.set_members((i,))
        cluster.remove_datum(i, y)
        last = len(self.clusters) - 1
        self._dirty.discard(h)
        if h != last:
            for j, label in enumerate(labels):
                if label == last:
                    labels[j] = h
            if last in self._dirty:
                self._dirty.remove(last)
                self._dirty.add(h)
        for column in (self.clusters, self._sizes, self._stats, self._log_masses,
                       self._scorers):
            column[h] = column[last]
            column.pop()
        return cluster.state

    def _open_cluster(self, i, rng, state=None):
        cluster = self.template.clone()
        if state is not None:
            cluster.state = state.copy()
        cluster.add_datum(i, self._rows[i])
        if state is None:
            # parameters born from the single-datum full conditional
            cluster.sample_full_cond(rng)
        self._labels[i] = len(self.clusters)
        self.clusters.append(cluster)
        self._sizes.append(1)
        self._stats.append(cluster.likelihood.stats)
        self._log_masses.append(self._mass_of_size[1])
        self._scorers.append(self._cluster_scorer(len(self.clusters) - 1))

    def _sync_members(self):
        self.allocations[:] = self._labels
        members = [[] for _ in self.clusters]
        for i, h in enumerate(self._labels):
            members[h].append(i)
        for cluster, ids in zip(self.clusters, members):
            cluster.likelihood.set_members(ids)

    def _refresh_clusters(self, rng):
        for cluster in self.clusters:
            cluster.sample_full_cond(rng)
        self.mixing.update_state(self._counts(), self.n, rng)

    def _record_log_weights(self, record, mixing):
        n, k = record.allocations.shape[0], len(record.cluster_states)
        log_masses = np.array(
            [mixing.mass_existing_cluster(n, cs.cardinality, k) for cs in record.cluster_states]
            + [mixing.mass_new_cluster(n, k)])
        return log_masses - logsumexp(log_masses)

    def _new_cluster_lpdf(self, grid, scratch, rng):
        if self.template.is_conjugate():
            row = self.template.prior_predictive().lpdf_grid(grid)  # the same for every record
            return lambda: row

        def plug_in():  # one prior draw per record
            scratch.state = self.template.prior.sample(rng)
            return scratch.lpdf_grid(grid)

        return plug_in


class Neal2Algorithm(_MarginalAlgorithm):
    """Marginal sampler for conjugate hierarchies with kernel evaluations."""

    algo_id = "Neal2"
    requires_conjugate = True


class Neal3Algorithm(_MarginalAlgorithm):
    """Marginal sampler for conjugate hierarchies with predictive evaluations."""

    algo_id = "Neal3"
    requires_conjugate = True
    _scorer_uses_members = True

    def _cluster_scorer(self, h):
        return self.clusters[h].conditional_pred_scorer(self._sizes[h], self._stats[h])


class Neal8Algorithm(_MarginalAlgorithm):
    """Auxiliary-parameter marginal sampler; works with any hierarchy.

    The sweep draws every datum's ``n_aux`` auxiliary states from the
    prior in one batch and scores them in one array expression, when it
    reaches the datum's block (all data at once unless n is large). They
    do not depend on the chain state, so drawing them ahead of the datum
    leaves the kernel as it is. Slot 0 of a datum whose cluster just died
    takes back that cluster's state instead. A state object is built only
    for the candidate a datum joins.
    """

    algo_id = "Neal8"
    requires_conjugate = False

    def __init__(self, hierarchy, mixing, init_num_clusters=3, n_aux=3):
        super().__init__(hierarchy, mixing, init_num_clusters)
        self.n_aux = check_positive_int(n_aux, "n_aux")
        # the current block's auxiliary states, a StateBatch of shape
        # (block size, n_aux), and the index of its first datum
        self._aux = None
        self._aux_start = 0

    def _new_candidates(self, rng):
        n, n_aux, data = self.n, self.n_aux, self.data
        block = max(1, _AUX_BATCH_CELLS // (n_aux * data.shape[1] ** 2))
        like = self.template.likelihood.clone_empty()
        rows, log_naux = self._rows, math.log(n_aux)
        scores = []

        def candidates(i, log_new, stashed):
            # the sweep visits the data in order
            if i % block == 0:
                self._aux = self.template.prior.sample_batch(rng, (min(block, n - i), n_aux))
                self._aux_start = i
                scores[:] = like.score_batch(self._aux, data[i:i + block]).tolist()
            row = scores[i - self._aux_start]
            if stashed is not None:
                like.state = stashed
                row[0] = like.lpdf(rows[i])
            log_new -= log_naux
            return [log_new + score for score in row]

        return candidates

    def _candidate_state(self, i, j, stashed):
        if j == 0 and stashed is not None:
            return stashed
        return self._aux.state((i - self._aux_start, j))


class BlockedGibbsAlgorithm(_BaseAlgorithm):
    """Conditional sampler over a fixed number of weighted components."""

    algo_id = "BlockedGibbs"
    requires_conditional_mixing = True

    def _initial_num_clusters(self):
        return self.mixing.num_components

    def step(self, rng):
        n = self.n
        m = self.mixing.num_components
        log_w = self.mixing.get_weights()
        logits = np.empty((m, n))
        for h, comp in enumerate(self.clusters):
            logits[h] = log_w[h] + comp.likelihood.lpdf_grid(self.data)
        mx = logits.max(axis=0)
        probs = np.exp(logits - mx)
        probs /= probs.sum(axis=0)
        cum = np.cumsum(probs, axis=0)
        new_alloc = np.minimum((cum < rng.random(n)).sum(axis=0), m - 1)
        for i in np.nonzero(new_alloc != self.allocations)[0]:
            self.clusters[self.allocations[i]].remove_datum(int(i), self._rows[i])
            self.clusters[new_alloc[i]].add_datum(int(i), self._rows[i])
            self.allocations[i] = new_alloc[i]
        counts = np.bincount(self.allocations, minlength=m)
        self.mixing.update_state(counts, n, rng)
        for comp in self.clusters:
            comp.sample_full_cond(rng)

    def _record_log_weights(self, record, mixing):
        return mixing.get_weights()


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

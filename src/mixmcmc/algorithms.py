"""MCMC drivers: marginal samplers and the blocked Gibbs sampler.

The marginal samplers sweep the allocations one datum at a time against
the masses induced by the mixing's partition prior, then refresh every
cluster's parameters from its full conditional. A datum's draw reads its
row of a score table: exp(log score - reference) for every existing
cluster and then every new-cluster candidate, the reference being the
row's largest log score when the table was built (Neal3: the prior
predictive's). The row times the
linear masses exp(log mass) gives the weights, and one uniform picks a
category from their running sums. A datum whose total weight is zero,
subnormal or not finite is drawn from its log weights with max
subtraction instead. The blocked Gibbs sampler keeps a fixed number of
components with explicit stick-breaking weights and normalizes on the
log scale. Before its refresh every sampler recounts each cluster's size
and statistics from the allocations.
"""

import copy
import math
import sys
from bisect import bisect_right
from itertools import accumulate
from operator import mul

import numpy as np

from ._util import logsumexp, sample_log_categorical
from ._validation import check_data_matrix, check_int, check_positive_int
from .chainio import ChainState, ClusterParams
from .exceptions import ConfigError
from .states import stack_states

ALGORITHM_IDS = ("Neal2", "Neal3", "Neal8", "BlockedGibbs")

# Neal8 draws its auxiliary states in blocks of data of about this many
# n_aux * d * d cells, so that the batch's memory stays bounded at large n
_AUX_BATCH_CELLS = 1 << 16
# a marginal sampler's score table holds at most this many rows at a time,
# and Neal3 draws at most this many uniforms ahead
_TABLE_ROWS = 4096
# a datum whose total linear weight is below this (or not finite) is drawn
# in log space: a subnormal total has lost its relative precision
_TINY = sys.float_info.min


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
        self._rows = self._stat_terms = None

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
        # every datum's terms of the statistics; the Gamma kernel rejects data here
        self._stat_terms = self.template.likelihood.stat_terms(data)

    def run(self, data, iterations, burnin, collector, rng):
        """Run the chain, collecting the (iterations - burnin) retained states."""
        iterations = check_positive_int(iterations, "iterations")
        burnin = check_int(burnin, "burnin")
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
        self.allocations = np.arange(n) % stripes
        self.clusters = []
        for _ in range(k0):
            cluster = self.template.clone()
            cluster.sample_prior(rng)
            self.clusters.append(cluster)
        self._recount()

    def _recount(self):
        """Write every cluster's size and its statistics, recounted from the allocations.

        A cluster's statistics are the sums of its data's ``stat_terms`` in
        index order, so they depend on the partition and the data alone.
        """
        k, labels = len(self.clusters), self.allocations
        sizes = np.bincount(labels, minlength=k).tolist()
        all_stats = self.template.likelihood.label_stats(self._stat_terms, labels, k)
        for cluster, size, stats in zip(self.clusters, sizes, all_stats):
            cluster.likelihood.card = size
            cluster.likelihood.stats = stats

    def _draw_cluster_params(self, rng):
        """Draw every cluster's parameters from its full conditional.

        An empty cluster draws from the prior. An updater with a
        ``draw_batch`` (the Metropolis one) then moves all non-empty
        clusters in one batch, on the data and the allocations, renumbered
        over them when some cluster is empty (only BlockedGibbs keeps empty
        clusters); any other draws them one at a time, in list order.
        """
        draw_batch = getattr(self.template.updater, "draw_batch", None)
        if draw_batch is None:
            for cluster in self.clusters:
                cluster.sample_full_cond(rng)
            return
        occupied = []
        for cluster in self.clusters:
            if cluster.card:
                occupied.append(cluster.likelihood)
            else:
                cluster.sample_prior(rng)
        if not occupied:
            return
        labels = self.allocations
        if len(occupied) < len(self.clusters):
            # the batch numbers the occupied clusters 0..k-1 in list order
            labels = (np.cumsum([cluster.card > 0 for cluster in self.clusters]) - 1)[labels]
        draw_batch(occupied, self.template.prior, rng, self.data, labels)

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


class _Uniforms:
    """The sweep's uniforms, one ``rng.random()`` per datum, drawn ahead.

    ``ahead(start, stop)`` draws the uniforms of data start..stop-1 in one
    call of the generator; datum i's is ``values[i - base]``, a list read.
    One call for m uniforms gives the numbers m single calls would, but it
    leaves the generator ahead of those the sweep has used, so ``rewind(i)``
    must come before anything else draws from it: it goes back to the state
    before the call and draws the uniforms of the data before i again,
    leaving the generator where single calls would have.
    """

    __slots__ = ("_rng", "_state", "values", "base")

    def __init__(self, rng):
        self._rng, self._state, self.values, self.base = rng, None, [], 0

    @property
    def stop(self):
        """The first datum whose uniform is not drawn."""
        return self.base + len(self.values)

    def ahead(self, start, stop):
        self.base, self.values = start, []
        if stop > start:
            self._state = self._rng.bit_generator.state
            self.values = self._rng.random(stop - start).tolist()

    def rewind(self, i):
        used = i - self.base
        if used < len(self.values):
            self._rng.bit_generator.state = self._state
            self._rng.random(used)
        self.base, self.values = i, []


class _MarginalAlgorithm(_BaseAlgorithm):
    """One allocation sweep for every marginal sampler.

    Each datum leaves its cluster, is scored against every existing cluster
    and every new-cluster candidate, and joins the one drawn. The sweep moves
    labels only. It runs on a flat cluster store, parallel lists kept in
    step with ``self.clusters``: each cluster's size and its linear mass
    exp(log mass), listed by size for the whole run. The allocations are
    a Python list during the sweep. The labels are the one record of
    membership: the store is built at the start of each sweep, and before
    the refresh the labels go back to the allocations, each size to its
    cluster's ``card``, and every cluster's statistics are recounted from
    the labels (:meth:`_recount`), so they depend on the partition alone; a
    Metropolis refresh reads each cluster's data from the labels too.
    Births and deaths go through the cluster objects (``_open_cluster``,
    ``_remove_datum``): a newborn's full conditional reads the statistics
    of its one datum.

    The scores sit in a table, built when the sweep reaches a block of data
    (:meth:`_start_block`): the clusters' states, stacked into one batch,
    score the whole block in one ``score_batch`` call, and the new-cluster
    candidates are scored beside them (:meth:`_candidate_scores`). A
    datum's row is a list of exp(score - reference), clusters first and
    then candidates, where the reference is the row's largest log score. A birth inserts its column
    into the rows still to be drawn, scored in one ``lpdf_grid`` call; a
    death swap-pops its column, as the store's lists do. The cluster states
    do not change during a sweep, so the rows stay exact.

    A datum is drawn by one uniform against the running sums of its row
    times the linear masses. Where that total is zero, subnormal or not
    finite (a newborn scoring far above a row's reference overflows it; the
    row's top cluster died and the rest underflowed), that datum is drawn by
    ``sample_log_categorical`` from its log weights instead, again with one
    uniform. The uniforms are drawn ahead for a block of data in one call
    (:class:`_Uniforms`), and rewound before a birth, a guard draw or a
    block's draws, which leaves the generator's stream as single draws would.

    The default candidate is the prior predictive, born from the
    single-datum full conditional. Its hyperparameters are fixed, so its
    scores are computed once per run.
    """

    requires_conditional_mixing = False
    # new-cluster candidates offered to each datum
    _num_candidates = 1

    def step(self, rng):
        self._build_store(rng)
        labels, sizes, masses, mass_of_size = (
            self._labels, self._sizes, self._masses, self._mass_of_size)
        uniforms, last_candidate = self._uniforms, self._num_candidates - 1
        tiny, inf = _TINY, math.inf
        table, start, stop, us, base = (), 0, 0, (), 0
        # k clusters; a draw past the last category's cumulative sum (rounding) takes it
        k = len(sizes)
        hi = k + last_candidate
        # a death renumbers labels in place, which the iteration sees
        for i, h in enumerate(labels):
            # the size and mass upkeep of a move is written out here and
            # below, as the hottest lines of the sampler
            size = sizes[h] - 1
            if size:
                sizes[h] = size
                masses[h] = mass_of_size[size]
                stashed = None
            else:
                stashed = self._remove_datum(i)
                k, hi = k - 1, hi - 1
            if i == stop:
                table, start, stop = self._start_block(i, rng)
                us, base = uniforms.values, uniforms.base
            row = table[i - start]
            if stashed is not None:
                self._take_back(i, stashed, row, k)
            cum = list(accumulate(map(mul, masses, row)))
            total = cum[-1]
            if tiny <= total < inf:
                choice = bisect_right(cum, us[i - base] * total, 0, hi)
            else:
                uniforms.rewind(i)
                choice = sample_log_categorical(self._log_weights(i, stashed), rng)
                uniforms.ahead(i + 1, stop)
                us, base = uniforms.values, uniforms.base
            if choice < k:
                labels[i] = choice
                size = sizes[choice] + 1
                sizes[choice] = size
                masses[choice] = mass_of_size[size]
            else:
                uniforms.rewind(i + 1)
                self._open_cluster(i, rng, state=self._candidate_state(i, choice - k, stashed))
                uniforms.ahead(i + 1, stop)
                us, base, k, hi = uniforms.values, uniforms.base, k + 1, hi + 1
        uniforms.rewind(self.n)
        self._sync_members()
        self._refresh_clusters(rng)

    def _prepare_data(self, data):
        super()._prepare_data(data)
        if self.requires_conjugate:  # the samplers whose candidate is the prior predictive
            self._prior_scores = self.template.prior_predictive().lpdf_grid(self.data)

    def _initialize(self, rng):
        super()._initialize(rng)
        n, mixing = self.n, self.mixing
        # an existing cluster's mass depends on n and its size only (see
        # mixings), so these last the run: lists by size 1..n (0 is unused)
        self._log_mass_of_size = [-math.inf] + [
            mixing.mass_existing_cluster(n, size, None) for size in range(1, n + 1)]
        self._mass_of_size = [math.exp(log_mass) for log_mass in self._log_mass_of_size]

    def _block_rows(self):
        """Rows of a block of the score table."""
        return _TABLE_ROWS

    def _candidate_scores(self, start, stop, rng):
        """Log scores of data start..stop-1 under their candidates, shape (stop - start, c)."""
        return self._prior_scores[start:stop, None]

    def _candidate_log_scores(self, i, stashed):
        """Datum i's candidate log scores, for the guard's draw."""
        return [self.template.prior_predictive().lpdf(self._rows[i])]

    def _take_back(self, i, stashed, row, k):
        """Offer datum i the state of its cluster, which just died, as candidate row[k].

        Only Neal8 does; the other samplers draw a new cluster afresh.
        """

    def _candidate_state(self, i, j, stashed):
        """State of datum i's chosen candidate j; None draws it from the full conditional."""
        return None

    def _initial_num_clusters(self):
        return min(self.init_num_clusters, self.n)

    def _build_store(self, rng):
        n, mixing = self.n, self.mixing
        self._labels = self.allocations.tolist()
        self._sizes = sizes = [cl.card for cl in self.clusters]
        self._uniforms = _Uniforms(rng)
        # a new cluster's mass depends on n and the number of clusters, and
        # on the mixing state, which is fixed during a sweep but not a run
        k0, log_c = len(sizes), math.log(self._num_candidates)
        self._log_new_mass = _Memo(lambda k: mixing.mass_new_cluster(n, k) - log_c)
        # the linear masses of the c candidates when there are k clusters
        self._new_masses = _Memo(
            lambda k: [math.exp(self._log_new_mass[k])] * self._num_candidates)
        # the linear masses in a row's order: the k clusters', then the candidates'
        self._masses = [self._mass_of_size[size] for size in sizes] + self._new_masses[k0]
        self._table, self._block_start, self._block_stop = [], 0, 0

    def _start_block(self, start, rng):
        """Build the score table's rows of data start.. on; returns (table, start, stop).

        The block's uniforms are drawn ahead after its candidates, which may
        draw from the generator.
        """
        stop = min(start + self._block_rows(), self.n)
        self._uniforms.rewind(start)
        candidates = self._candidate_scores(start, stop, rng)
        k = len(self.clusters)
        # column-major, one column per category, so that the reduction runs along the data
        scores = np.empty((stop - start, k + candidates.shape[1]), order="F")
        scores[:, k:] = candidates
        if k:  # none when the one datum of the data has left its cluster
            batch = stack_states([cluster.state for cluster in self.clusters])
            scores[:, :k] = self.template.likelihood.score_batch(batch, self.data[start:stop])
        self._ref = ref = scores.max(axis=1)
        with np.errstate(invalid="ignore"):  # a row of -inf is left to the guard
            self._table = np.exp(scores - ref[:, None]).tolist()
        self._block_start, self._block_stop = start, stop
        self._uniforms.ahead(start, stop)
        return self._table, start, stop

    def _add_column(self, i, cluster):
        """Insert a newborn's column into the rows after datum i's."""
        lo = i + 1 - self._block_start
        rest = self._table[lo:]
        if rest:
            scores = cluster.likelihood.lpdf_grid(self.data[i + 1:self._block_stop])
            with np.errstate(over="ignore", invalid="ignore"):  # left to the guard
                column = np.exp(scores - self._ref[lo:]).tolist()
            h = len(self.clusters) - 1
            for row, value in zip(rest, column):
                row.insert(h, value)

    def _drop_column(self, i, h, last):
        """Swap-pop column h out of the rows still to be drawn, datum i's included."""
        for row in self._table[i - self._block_start:]:
            row[h] = row[last]
            del row[last]

    def _cluster_log_scores(self, y):
        return [cluster.likelihood.lpdf(y) for cluster in self.clusters]

    def _log_weights(self, i, stashed):
        """Datum i's log weights in the row's order, for the guard's draw."""
        logs = [self._log_mass_of_size[size] + score
                for size, score in zip(self._sizes, self._cluster_log_scores(self._rows[i]))]
        log_new = self._log_new_mass[len(self._sizes)]
        return logs + [log_new + score for score in self._candidate_log_scores(i, stashed)]

    def _remove_datum(self, i):
        """Detach datum i, its cluster's last member; returns the cluster's state.

        The death goes through the cluster object, holding just this datum.
        """
        labels = self._labels
        h = labels[i]
        labels[i] = -1
        cluster = self.clusters[h]
        cluster.likelihood.card = 1  # its store size: card is written back once per sweep
        cluster.remove_datum(self._rows[i])
        last = len(self.clusters) - 1
        if h != last:
            for j, label in enumerate(labels):
                if label == last:
                    labels[j] = h
        self._drop_column(i, h, last)
        for column in (self.clusters, self._sizes):
            column[h] = column[last]
            column.pop()
        masses = self._masses
        masses[h] = masses[last]
        masses[last:] = self._new_masses[last]
        return cluster.state

    def _open_cluster(self, i, rng, state=None):
        cluster = self.template.clone()
        if state is not None:
            cluster.state = state.copy()
        cluster.add_datum(self._rows[i])
        if state is None:
            # parameters born from the single-datum full conditional
            cluster.sample_full_cond(rng)
        self._labels[i] = len(self.clusters)
        self.clusters.append(cluster)
        self._sizes.append(1)
        k = len(self._sizes)
        self._masses[k - 1:] = [self._mass_of_size[1]] + self._new_masses[k]
        self._add_column(i, cluster)

    def _sync_members(self):
        self.allocations[:] = self._labels
        self._recount()

    def _refresh_clusters(self, rng):
        self._draw_cluster_params(rng)
        self.mixing.update_state(self._sizes, self.n, rng)

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
    """Marginal sampler for conjugate hierarchies with predictive evaluations.

    A cluster scores a datum by its posterior predictive, which changes with
    its members, so each block of the score table is one datum's row, built
    from the clusters' predictive scorers when the sweep reaches it. Its
    reference is the prior predictive, so the candidate's entry is 1. It is
    the one sampler that reads statistics during the sweep, so it moves
    them itself, once the next datum has left, as that datum often leaves
    the same cluster again: the labels tell which clusters changed, the one
    the previous datum joined (a newborn counted its datum at birth) and
    the one this datum left. Their scorers are rebuilt then. The uniforms
    are drawn ahead for up to ``_TABLE_ROWS`` data, not per block.
    """

    algo_id = "Neal3"
    requires_conjugate = True

    def _build_store(self, rng):
        super()._build_store(rng)
        self._scorers = [self._cluster_scorer(h) for h in range(len(self._sizes))]
        self._newborn = -1  # the last datum that opened a cluster

    def _cluster_scorer(self, h):
        cluster = self.clusters[h]
        return cluster.conditional_pred_scorer(self._sizes[h], cluster.likelihood.stats)

    def _move_stats(self, h, i, add):
        """Add datum i to, or take it from, the statistics of cluster h."""
        if h >= 0:
            like = self.clusters[h].likelihood
            like.update_stats(like.stats, self._rows[i] - like.ref, add)

    def _rescore(self, *clusters):
        for h in set(clusters):
            if h >= 0:
                self._scorers[h] = self._cluster_scorer(h)

    def _start_block(self, start, rng):
        # since the last block, datum start - 1 joined its cluster and datum
        # start left its own (-1 if that cluster died)
        labels, uniforms = self._labels, self._uniforms
        joined, left = (labels[start - 1] if start else -1), labels[start]
        if start - 1 != self._newborn:
            self._move_stats(joined, start - 1, True)
        self._move_stats(left, start, False)
        self._rescore(joined, left)
        if start == uniforms.stop:
            uniforms.ahead(start, min(start + _TABLE_ROWS, self.n))
        y, ref = self._rows[start], float(self._prior_scores[start])
        try:
            row = [math.exp(score(y) - ref) for score in self._scorers] + [1.0]
        except OverflowError:  # left to the guard
            row = [math.inf] * (len(self._scorers) + 1)
        return [row], start, start + 1

    def _cluster_log_scores(self, y):
        return [score(y) for score in self._scorers]

    def _add_column(self, i, cluster):
        self._newborn = i
        self._scorers.append(self._cluster_scorer(len(self.clusters) - 1))

    def _drop_column(self, i, h, last):
        self._scorers[h] = self._scorers[last]
        self._scorers.pop()


class Neal8Algorithm(_MarginalAlgorithm):
    """Auxiliary-parameter marginal sampler; works with any hierarchy.

    When the sweep reaches a block of the score table (all data at once
    unless n is large), it draws the block's ``n_aux`` auxiliary states per
    datum from the prior in one batch and scores them in one array
    expression. They do not depend on the chain state, so drawing them ahead
    of the datum leaves the kernel as it is. Slot 0 of a datum whose cluster
    just died takes back that cluster's state instead. A state object is
    built only for the candidate a datum joins.
    """

    algo_id = "Neal8"
    requires_conjugate = False

    def __init__(self, hierarchy, mixing, init_num_clusters=3, n_aux=3):
        super().__init__(hierarchy, mixing, init_num_clusters)
        self.n_aux = self._num_candidates = check_positive_int(n_aux, "n_aux")
        self._like = hierarchy.likelihood.clone_empty()
        # the current block's auxiliary states, a StateBatch of shape
        # (block size, n_aux), their log scores, and the block's first datum
        self._aux = self._aux_scores = None
        self._aux_start = 0

    def _block_rows(self):
        # a block's auxiliary states hold about _AUX_BATCH_CELLS numbers
        return max(1, _AUX_BATCH_CELLS // (self.n_aux * self.data.shape[1] ** 2))

    def _candidate_scores(self, start, stop, rng):
        self._aux = self.template.prior.sample_batch(rng, (stop - start, self.n_aux))
        self._aux_start = start
        self._aux_scores = self._like.score_batch(self._aux, self.data[start:stop])
        return self._aux_scores

    def _stashed_score(self, i, stashed):
        self._like.state = stashed
        return self._like.lpdf(self._rows[i])

    def _take_back(self, i, stashed, row, k):
        excess = self._stashed_score(i, stashed) - self._ref[i - self._block_start]
        try:
            row[k] = math.exp(excess)
        except OverflowError:  # left to the guard
            row[k] = math.inf

    def _candidate_log_scores(self, i, stashed):
        scores = self._aux_scores[i - self._aux_start].tolist()
        if stashed is not None:
            scores[0] = self._stashed_score(i, stashed)
        return scores

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
        self.allocations = np.minimum((cum < rng.random(n)).sum(axis=0), m - 1)
        self._recount()
        self.mixing.update_state(np.bincount(self.allocations, minlength=m), n, rng)
        self._draw_cluster_params(rng)

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

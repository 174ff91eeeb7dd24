"""MCMC drivers: marginal samplers and the blocked Gibbs sampler.

The marginal samplers sweep the allocations one datum at a time against
the masses induced by the mixing's partition prior, then refresh every
cluster's parameters from its full conditional. A datum's draw reads its
row of a score table: exp(log score - reference) for every existing
cluster and then every new-cluster candidate, the reference being the
row's largest log score when the table was built (Neal3: the prior
predictive's). The row times the linear masses exp(log mass) gives the
weights, and the datum's uniform picks a category from their running sums.
A datum whose total weight is zero, subnormal or not finite is drawn from
its log weights with max subtraction instead, with the same uniform. A
block's uniforms are drawn in one call, after its candidates, and a birth
draws its parameters after them: the uniforms are iid whatever order the
generator hands them out in, so the kernel is that of one draw per datum
in sweep order. The blocked Gibbs sampler keeps a fixed number of
components with explicit stick-breaking weights and normalizes on the
log scale, scoring all its components in one ``score_batch`` call.

A cluster is a likelihood, a ``clone_empty()`` of the template's, which
holds its size, statistics and state; the template's prior and updater
act on it, and a marginal sampler's birth or death counts its datum in or
out through the template's ``component`` of the cluster. Every sampler
recounts each cluster's size and statistics from the allocations, then
refreshes all its clusters in one ``draw_batch`` call of the updater; a
birth draws as a batch of one. Every kernel density a sampler reads comes
from the likelihood's ``score_batch``, of the stacked clusters or of one
state; a retained record's clusters are stacked and scored in one call
too, for the density grid and ``predict``. The prior predictive is the
template's ``predictive`` of an empty cluster, built once with the sampler
and scored once per run.
"""

import copy
import functools
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
from .likelihoods import moved_stats
from .states import stack_states

# Neal8 draws its auxiliary states in blocks of data of about this many
# n_aux * d * d cells, so that the batch's memory stays bounded at large n
_AUX_BATCH_CELLS = 1 << 16
# a marginal sampler's score table holds at most this many rows at a time;
# its block's uniforms are drawn with it
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
        # a conjugate hierarchy's prior predictive, built once: its hyperparameters are fixed
        self._prior_predictive = (hierarchy.predictive(0, hierarchy.likelihood.stats)
                                  if hierarchy.is_conjugate() else None)
        self.init_num_clusters = check_positive_int(init_num_clusters, "init_num_clusters")
        self.data = None
        self.allocations = None
        self._stat_terms = None

    @property
    def n(self):
        return 0 if self.data is None else self.data.shape[0]

    def _prepare_data(self, data):
        data = check_data_matrix(data, "data")
        self.template.likelihood.check_dim(data)
        self.data = data
        # every datum's terms of the statistics; the Gamma kernel rejects data here
        self._stat_terms = self.template.likelihood.stat_terms(data)

    def run(self, data, iterations, burnin, collector, rng):
        """Run the chain, collecting the (iterations - burnin) retained states."""
        iterations = check_positive_int(iterations, "iterations")
        burnin = check_int(burnin, "burnin")
        if burnin < 0 or burnin >= iterations:
            raise ValueError(f"need 0 <= burnin < iterations ({iterations}), got burnin {burnin}")
        self._prepare_data(data)
        self._initialize(rng)
        collector.start_collecting()
        try:
            for it in range(iterations):
                self.step(rng)
                if it >= burnin:
                    collector.collect(self._snapshot(it))
        finally:  # a sweep that raises leaves its collected records on disk
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
            cluster = self.template.likelihood.clone_empty()
            cluster.state = self.template.prior.sample(rng)
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
            cluster.card = size
            cluster.stats = stats

    def _draw_cluster_params(self, rng):
        """Draw every cluster's parameters, empty ones (BlockedGibbs) included, in one batch."""
        self.template.updater.draw_batch(self.clusters, self.template.prior, rng, self.data,
                                         self.allocations)

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

    def _new_cluster_lpdf(self, grid, rng):
        """A function giving, record by record, a new cluster's log density on the grid.

        It is called only for a record whose mixing weighs a new cluster.
        """
        template, predictive = self.template, self._prior_predictive
        if predictive is not None:  # the same for every record, computed once if at all
            return functools.cache(lambda: predictive.lpdf_grid(grid))
        # one prior draw per record
        return lambda: template.likelihood.score_batch(template.prior.sample(rng), grid)[:, 0]

    def _record_rows(self, records, grid, new_cluster_lpdf=None):
        """Yield, per record, its rows log w_h + log f_h(grid), one per cluster, then one for
        a new cluster if the mixing weighs one and ``new_cluster_lpdf`` (of
        ``_new_cluster_lpdf``) is given.

        ``grid`` is a checked data matrix of the kernel's dimension. The
        weights are the mixing's ``log_weights``, the mixing set to the record's
        state. A record's states are rebuilt from their params through the
        state's checks, stacked and scored in one ``score_batch`` call; a row
        whose weight is -inf is -inf, whatever its density. The rows are a
        C-ordered array, so that a sum over them adds the clusters one by one.
        """
        score = self.template.likelihood.score_batch
        state_cls = type(self.template.likelihood.state)
        mixing = copy.copy(self.mixing)
        for record in records:
            mixing.set_state_params(record.mixing_params)
            log_w = mixing.log_weights([cs.cardinality for cs in record.cluster_states])
            k = len(record.cluster_states)
            if new_cluster_lpdf is None:
                log_w = log_w[:k]
            rows = np.empty((len(log_w), grid.shape[0]))
            rows[:k] = score(stack_states([state_cls.from_params(cs.params)
                                           for cs in record.cluster_states]), grid).T
            if len(log_w) > k:
                rows[-1] = new_cluster_lpdf()
            rows[log_w == -np.inf] = -np.inf
            rows += log_w[:, None]
            yield rows

    def eval_lpdf_grid(self, records, grid, rng=None):
        """Per-record mixture log density on a grid; rows follow the chain order.

        ``records`` is a collector or a list of its records.
        """
        grid = check_data_matrix(grid, "grid")
        self.template.likelihood.check_dim(grid)
        if len(records) == 0:
            raise ValueError("cannot evaluate densities on an empty chain")
        if rng is None:
            rng = np.random.default_rng(0)
        record_rows = self._record_rows(records, grid, self._new_cluster_lpdf(grid, rng))
        return np.vstack([logsumexp(rows) for rows in record_rows])


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
    Births and deaths count the datum's own statistic list in or out through
    the cluster's ``component`` (``_open_cluster``, ``_remove_datum``): a
    newborn's full conditional reads the statistics of its one datum. Those
    lists are ``label_stats`` of each datum alone, computed once per run and
    shared, so nothing writes them in place.

    The scores sit in a table, built when the sweep reaches a block of data
    (:meth:`_start_block`): the clusters' states, stacked into one batch,
    score the whole block in one ``score_batch`` call, and the new-cluster
    candidates are scored beside them (:meth:`_candidate_scores`). A
    datum's row is a list of exp(score - reference), clusters first and
    then candidates, where the reference is the row's largest log score. A
    birth inserts its column into the rows still to be drawn, its state
    scored in one ``score_batch`` call; a death swap-pops its column, as
    the store's lists do. The cluster states do not change during a sweep,
    so the rows stay exact.

    A datum is drawn by its uniform against the running sums of its row
    times the linear masses. Where that total is zero, subnormal or not
    finite (a newborn scoring far above a row's reference overflows it; the
    row's top cluster died and the rest underflowed), that datum is drawn by
    ``sample_log_categorical`` from its log weights instead, with the same
    uniform. Those read the table's numbers: the clusters' scores in one
    ``score_batch`` call, the prior predictive's from ``_prior_scores``. A
    block's uniforms are drawn in one ``rng.random`` call right after its
    candidates, and a birth drawn from the full conditional draws after
    them; nothing is rewound.

    The default candidate is the prior predictive, born from the
    single-datum full conditional. Its hyperparameters are fixed, so its
    scores are computed once per run.
    """

    # new-cluster candidates offered to each datum
    _num_candidates = 1

    def step(self, rng):
        self._build_store(rng)
        labels, sizes, masses, mass_of_size = (
            self._labels, self._sizes, self._masses, self._mass_of_size)
        last_candidate = self._num_candidates - 1
        tiny, inf = _TINY, math.inf
        table, us, start, stop = (), (), 0, 0
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
                start = i
                table, us, stop = self._start_block(i, rng)
            row = table[i - start]
            if stashed is not None:
                self._take_back(i, stashed, row, k)
            cum = list(accumulate(map(mul, masses, row)))
            total = cum[-1]
            if tiny <= total < inf:
                choice = bisect_right(cum, us[i - start] * total, 0, hi)
            else:
                choice = sample_log_categorical(self._log_weights(i, stashed), us[i - start])
            if choice < k:
                labels[i] = choice
                size = sizes[choice] + 1
                sizes[choice] = size
                masses[choice] = mass_of_size[size]
            else:
                self._open_cluster(i, rng, state=self._candidate_state(i, choice - k, stashed))
                k, hi = k + 1, hi + 1
        self.allocations[:] = labels
        self._recount()
        self._draw_cluster_params(rng)
        self.mixing.update_state(sizes, self.n, rng)

    def _prepare_data(self, data):
        super()._prepare_data(data)
        # every datum's own statistic list, shared for the run and never written
        n = self.n
        self._datum_stats = self.template.likelihood.label_stats(
            self._stat_terms, np.arange(n), n)
        if self.requires_conjugate:  # the samplers whose candidate is the prior predictive
            self._prior_scores = self._prior_predictive.lpdf_grid(self.data)

    def _initialize(self, rng):
        super()._initialize(rng)
        n, mixing = self.n, self.mixing
        # an existing cluster's mass depends on n and its size only (see
        # mixings), so these last the run: lists by size 1..n (0 is unused)
        self._log_mass_of_size = [-math.inf] + [
            mixing.mass_existing_cluster(n, size) for size in range(1, n + 1)]
        self._mass_of_size = [math.exp(log_mass) for log_mass in self._log_mass_of_size]

    def _block_rows(self):
        """Rows of a block of the score table."""
        return _TABLE_ROWS

    def _candidate_scores(self, start, stop, rng):
        """Log scores of data start..stop-1 under their candidates, shape (stop - start, c)."""
        return self._prior_scores[start:stop, None]

    def _candidate_log_scores(self, i, stashed):
        """Datum i's candidate log scores, for the guard's draw."""
        return [float(self._prior_scores[i])]

    def _take_back(self, i, stashed, row, k):
        """Offer datum i the state ``stashed`` of its cluster, just dead, as candidate row[k].

        Only Neal8 does; the other samplers draw a new cluster afresh.
        """

    def _candidate_state(self, i, j, stashed):
        """State of datum i's chosen candidate j; None draws it from the full conditional."""
        return None

    def _initial_num_clusters(self):
        return min(self.init_num_clusters, self.n)

    def _build_store(self, rng):
        self._labels = self.allocations.tolist()
        self._sizes = sizes = [cl.card for cl in self.clusters]
        # the linear masses in a row's order: the k clusters', then the candidates'
        self._masses = [self._mass_of_size[size] for size in sizes] + self._new_masses(len(sizes))
        self._table, self._block_start, self._block_stop = [], 0, 0

    def _log_new_mass(self, k):
        """The log mass of each candidate when there are k clusters (for this sweep's mixing)."""
        return self.mixing.mass_new_cluster(self.n, k) - math.log(self._num_candidates)

    def _new_masses(self, k):
        """The linear masses of the candidates when there are k clusters."""
        return [math.exp(self._log_new_mass(k))] * self._num_candidates

    def _start_block(self, start, rng):
        """Build the score table's rows of data start.. on; returns (table, uniforms, stop).

        The block's rows and its data's uniforms are both indexed from
        start. The uniforms are drawn in one call, after the candidates,
        which may draw from the generator.
        """
        stop = min(start + self._block_rows(), self.n)
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
        return self._table, rng.random(stop - start).tolist(), stop

    def _add_column(self, i, cluster):
        """Insert a newborn's column into the rows after datum i's."""
        lo = i + 1 - self._block_start
        rest = self._table[lo:]
        if rest:
            scores = self.template.likelihood.score_batch(
                cluster.state, self.data[i + 1:self._block_stop])[:, 0]
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

    def _cluster_log_scores(self, i):
        """Datum i's log scores under the clusters, scored as the table scores them."""
        if not self.clusters:
            return []
        batch = stack_states([cluster.state for cluster in self.clusters])
        return self.template.likelihood.score_batch(batch, self.data[i:i + 1])[0].tolist()

    def _log_weights(self, i, stashed):
        """Datum i's log weights in the row's order, for the guard's draw."""
        logs = [self._log_mass_of_size[size] + score
                for size, score in zip(self._sizes, self._cluster_log_scores(i))]
        log_new = self._log_new_mass(len(self._sizes))
        return logs + [log_new + score for score in self._candidate_log_scores(i, stashed)]

    def _remove_datum(self, i):
        """Detach datum i, its cluster's last member; returns the cluster's state."""
        labels = self._labels
        h = labels[i]
        labels[i] = -1
        cluster = self.clusters[h]
        cluster.card = 1  # its store size: card is written back once per sweep
        self.template.component(cluster).remove_datum(self._datum_stats[i])
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
        masses[last:] = self._new_masses(last)
        return cluster.state

    def _open_cluster(self, i, rng, state=None):
        """Open a cluster of datum i alone, at a copy of ``state`` if one is given."""
        cluster = self.template.likelihood.clone_empty()
        if state is not None:
            cluster.state = state.copy()
        self.template.component(cluster).add_datum(self._datum_stats[i])
        if state is None:
            # parameters born from the single-datum full conditional
            self.template.updater.draw_batch([cluster], self.template.prior, rng, None, None)
        self._labels[i] = len(self.clusters)
        self.clusters.append(cluster)
        self._sizes.append(1)
        k = len(self._sizes)
        self._masses[k - 1:] = [self._mass_of_size[1]] + self._new_masses(k)
        self._add_column(i, cluster)


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
    the one this datum left. Each move adds or subtracts the datum's own
    statistic list into a new list, as a birth does, and their scorers are
    rebuilt then. Its blocks draw nothing, so the whole sweep's uniforms
    are drawn in one call when the store is built, before any birth.
    """

    algo_id = "Neal3"
    requires_conjugate = True

    def _prepare_data(self, data):
        super()._prepare_data(data)
        # the data as the predictives' scorers take them, a float or a row each
        data = self.data
        self._rows = [float(v) for v in data[:, 0]] if data.shape[1] == 1 else list(data)

    def _build_store(self, rng):
        super()._build_store(rng)
        self._scorers = [self._cluster_scorer(h) for h in range(len(self._sizes))]
        self._newborn = -1  # the last datum that opened a cluster
        self._uniforms = rng.random(self.n).tolist()

    def _cluster_scorer(self, h):
        return self.template.predictive(self._sizes[h], self.clusters[h].stats).lpdf

    def _move_stats(self, h, i, add):
        """Add datum i to, or take it from, the statistics of cluster h."""
        if h >= 0:
            like = self.clusters[h]
            like.stats = moved_stats(like.stats, self._datum_stats[i], add)

    def _rescore(self, *clusters):
        for h in set(clusters):
            if h >= 0:
                self._scorers[h] = self._cluster_scorer(h)

    def _start_block(self, start, rng):
        # since the last block, datum start - 1 joined its cluster and datum
        # start left its own (-1 if that cluster died)
        labels = self._labels
        joined, left = (labels[start - 1] if start else -1), labels[start]
        if start - 1 != self._newborn:
            self._move_stats(joined, start - 1, True)
        self._move_stats(left, start, False)
        self._rescore(joined, left)
        y, ref = self._rows[start], float(self._prior_scores[start])
        try:
            row = [math.exp(score(y) - ref) for score in self._scorers] + [1.0]
        except OverflowError:  # left to the guard
            row = [math.inf] * (len(self._scorers) + 1)
        return [row], [self._uniforms[start]], start + 1

    def _cluster_log_scores(self, i):
        y = self._rows[i]
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

    def __init__(self, hierarchy, mixing, init_num_clusters=3, n_aux=3):
        super().__init__(hierarchy, mixing, init_num_clusters)
        self.n_aux = self._num_candidates = check_positive_int(n_aux, "n_aux")
        # the current block's auxiliary states, a StateBatch of shape
        # (block size, n_aux), and their log scores
        self._aux = self._aux_scores = None

    def _block_rows(self):
        # a block's auxiliary states hold about _AUX_BATCH_CELLS numbers
        return max(1, _AUX_BATCH_CELLS // (self.n_aux * self.data.shape[1] ** 2))

    def _candidate_scores(self, start, stop, rng):
        self._aux = self.template.prior.sample_batch(rng, (stop - start, self.n_aux))
        self._aux_scores = self.template.likelihood.score_batch(self._aux, self.data[start:stop])
        return self._aux_scores

    def _stashed_score(self, i, stashed):
        """Datum i's log score at the state its cluster had, scored as its auxiliary states are."""
        return float(self.template.likelihood.score_batch(stashed, self.data[i:i + 1])[0, 0])

    def _take_back(self, i, stashed, row, k):
        excess = self._stashed_score(i, stashed) - self._ref[i - self._block_start]
        try:
            row[k] = math.exp(excess)
        except OverflowError:  # left to the guard
            row[k] = math.inf

    def _candidate_log_scores(self, i, stashed):
        scores = self._aux_scores[i - self._block_start].tolist()
        if stashed is not None:
            scores[0] = self._stashed_score(i, stashed)
        return scores

    def _candidate_state(self, i, j, stashed):
        if j == 0 and stashed is not None:
            return stashed
        return self._aux.state((i - self._block_start, j))


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
        scores = self.template.likelihood.score_batch(
            stack_states([comp.state for comp in self.clusters]), self.data)
        # C order, as the sum along the components below must add them one by one
        logits = np.ascontiguousarray((scores + log_w).T)
        mx = logits.max(axis=0)
        probs = np.exp(logits - mx)
        probs /= probs.sum(axis=0)
        cum = np.cumsum(probs, axis=0)
        self.allocations = np.minimum((cum < rng.random(n)).sum(axis=0), m - 1)
        self._recount()
        self.mixing.update_state([comp.card for comp in self.clusters], n, rng)
        self._draw_cluster_params(rng)


_ALGORITHM_CLASSES = {
    "Neal2": Neal2Algorithm,
    "Neal3": Neal3Algorithm,
    "Neal8": Neal8Algorithm,
    "BlockedGibbs": BlockedGibbsAlgorithm,
}
ALGORITHM_IDS = tuple(_ALGORITHM_CLASSES)


def build_algorithm(algo_id, hierarchy, mixing, init_num_clusters=3, n_aux=3):
    """Create an algorithm by id, validating hierarchy/mixing compatibility."""
    if algo_id not in _ALGORITHM_CLASSES:
        raise ConfigError(
            f"unknown algo_id '{algo_id}'; expected one of " + ", ".join(ALGORITHM_IDS)
        )
    if algo_id == "Neal8":
        return Neal8Algorithm(hierarchy, mixing, init_num_clusters, n_aux)
    return _ALGORITHM_CLASSES[algo_id](hierarchy, mixing, init_num_clusters)

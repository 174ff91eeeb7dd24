"""Span tracing around the calls into mixmcmc's modules, and the per-layer metrics.

``install`` wraps every public function and method of the traced modules
(and collectors' ``__iter__``) so that each call records a span. Spans are
aggregated in memory as they close, per name and per (parent, name) edge,
because the hot paths make millions of calls; a span's self time is its
duration minus the time its child spans cover. The benchmark's own files
do the wrapping: nothing inside the program changes.
"""

import collections
import functools
import sys
import time

LAYERS = ("config", "algorithms", "hierarchy", "priors", "updaters", "mixings",
          "chainio", "postprocess")
ROOT = "<root>"
PROBE = "trace.probe"  # the counting hooks' own work, kept out of every layer

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.stats = collections.defaultdict(lambda: [0, 0, 0])  # calls, total_ns, self_ns
        self.edges = collections.defaultdict(lambda: [0, 0])  # (parent, name) -> calls, total_ns
        self.counts = collections.Counter()
        self.stash = None  # state of the component the last removal emptied
        self.stack = [[ROOT, 0]]  # open spans: [name, ns covered by children]

    def wrap(self, name, fn):
        stack, stats, edges = self.stack, self.stats, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                parent[1] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                edge = edges[(parent[0], name)]
                edge[0] += 1
                edge[1] += dur

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def in_span(self, suffix):
        return any(frame[0].endswith(suffix) for frame in self.stack)

    def dump(self):
        return {
            "spans": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": v[0], "total_ns": v[1]}
                      for (p, n), v in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }


def _note_deaths(tracer, traced):
    # keep the state of a component the datum just emptied, to tell a re-seat from a birth
    def keep(hier):
        tracer.stash = hier.state.copy()

    keep = tracer.wrap(PROBE, keep)

    def remove_datum(self, *args, **kwargs):
        out = traced(self, *args, **kwargs)
        if self.card == 0:
            keep(self)
        else:
            tracer.stash = None
        return out

    return remove_datum


def _count_births(tracer, traced, same_state):
    # A datum entering an empty component during a sweep is a cluster birth,
    # unless the component takes back the state the datum's own cluster had
    # when the datum left it (Neal8 offers that state as auxiliary slot 0).
    def judge(hier):
        if tracer.in_span(".step"):
            if tracer.stash is not None and same_state(hier.state, tracer.stash):
                tracer.counts["reseats"] += 1
            else:
                tracer.counts["births"] += 1

    judge = tracer.wrap(PROBE, judge)

    def add_datum(self, *args, **kwargs):
        if self.card == 0:
            judge(self)
        return traced(self, *args, **kwargs)

    return add_datum


def _count_moves(tracer, traced, unconstrained):
    # a draw whose unconstrained parameters moved, beyond the exp/log round trip
    def moved(before, state):
        after = unconstrained(state)
        if before is None or after is None or before.shape != after.shape or (
                abs(before - after) > 1e-9 * abs(before) + 1e-12).any():
            tracer.counts["moves"] += 1

    snapshot = tracer.wrap(PROBE, unconstrained)
    moved = tracer.wrap(PROBE, moved)

    def draw(self, like, *args, **kwargs):
        before = snapshot(like.state)
        out = traced(self, like, *args, **kwargs)
        moved(before, like.state)
        return out

    return draw


def _wrap_member(tracer, name, member, unconstrained, same_state):
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(tracer.wrap(name, member.__func__))
    # the counting hooks sit outside the span, and their work in PROBE spans
    traced = tracer.wrap(name, member)
    if name == "hierarchy.Hierarchy.add_datum":
        return _count_births(tracer, traced, same_state)
    if name == "hierarchy.Hierarchy.remove_datum":
        return _note_deaths(tracer, traced)
    if name.startswith("updaters.") and name.endswith(".draw"):
        return _count_moves(tracer, traced, unconstrained)
    return traced


def install(tracer):
    """Wrap the traced modules' public callables in spans."""
    import importlib

    # imported here, after the traced run's import span, not at the top
    import numpy as np
    from mixmcmc.exceptions import CapabilityError

    def same_state(a, b):
        return type(a) is type(b) and all(
            np.array_equal(getattr(a, slot), getattr(b, slot)) for slot in type(a).__slots__)

    def unconstrained(state):
        try:
            return np.asarray(state.to_unconstrained(), dtype=float)
        except CapabilityError:  # e.g. a covariance state; conjugate draws always move
            return None

    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mixmcmc.{layer}")
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__iter__":
                        continue
                    if not (callable(member) or isinstance(member, (classmethod, staticmethod))):
                        continue
                    if isinstance(member, type):
                        continue
                    span = f"{layer}.{obj.__name__}.{mname}"
                    setattr(obj, mname, _wrap_member(tracer, span, member, unconstrained, same_state))
            elif callable(obj) and not attr.startswith("_"):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    # functions imported by name into other modules are replaced there too
    for modname, mod in list(sys.modules.items()):
        if modname == "mixmcmc" or modname.startswith("mixmcmc."):
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapped = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    setattr(mod, attr, wrapped)


class _View:
    """Queries over a trace dump by layer and method name."""

    def __init__(self, dump):
        self.spans = dump["spans"]
        self.edges = dump["edges"]
        self.counts = dump["counts"]

    @staticmethod
    def _match(name, layer, methods):
        parts = name.split(".")
        return parts[0] == layer and parts[-1] in methods

    def calls(self, layer, *methods):
        return sum(v["calls"] for k, v in self.spans.items() if self._match(k, layer, methods))

    def total_s(self, layer, *methods):
        ns = sum(v["total_ns"] for k, v in self.spans.items() if self._match(k, layer, methods))
        return ns / 1e9

    def self_s(self, layer, *methods):
        ns = sum(v["self_ns"] for k, v in self.spans.items()
                 if self._match(k, layer, methods or (k.split(".")[-1],)))
        return ns / 1e9

    def under(self, parent_suffix, layer, *methods):
        """(calls, seconds) of spans directly inside a span whose name ends in parent_suffix."""
        rows = [e for e in self.edges
                if e["parent"].endswith(parent_suffix) and self._match(e["name"], layer, methods)]
        return sum(e["calls"] for e in rows), sum(e["total_ns"] for e in rows) / 1e9


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(dump, facts, hot_layers):
    """Per-layer metrics of one traced pipeline.

    ``facts`` holds what the spans cannot know: n, iterations, records,
    grid_points, chain_bytes, csv_bytes and the traced pipeline's wall_s.
    """
    v = _View(dump)
    n_sweeps = facts["iterations"]
    m = {}
    m["config.setup_parse_s"] = (
        v.total_s("config", "read_config", "parse_algo_params")
        + v.total_s("hierarchy", "build_hierarchy")
        + v.total_s("mixings", "build_mixing")
        + v.total_s("algorithms", "build_algorithm")
    )
    step = v.total_s("algorithms", "step")
    _, refresh_in_step = v.under(".step", "hierarchy", "sample_full_cond")
    _, update_in_step = v.under(".step", "mixings", "update_state")
    m["algorithms.step_s"] = step
    m["algorithms.sweep_self_s"] = step - refresh_in_step - update_in_step
    m["algorithms.sweep_us_per_datum"] = 1e6 * _ratio(
        m["algorithms.sweep_self_s"], facts["n"] * n_sweeps)
    m["algorithms.snapshot_s"] = (
        v.total_s("algorithms", "run") - step - v.total_s("chainio", "collect"))
    births = v.counts.get("births", 0)
    aux_draws, _ = v.under(".step", "hierarchy", "sample_prior")
    m["algorithms.births_per_sweep"] = births / n_sweeps
    m["algorithms.aux_use_ratio"] = _ratio(births, aux_draws)
    grid_s = v.total_s("algorithms", "eval_lpdf_grid")
    cells = facts["records"] * facts["grid_points"]
    m["algorithms.grid_s"] = grid_s
    m["algorithms.grid_cells"] = cells
    m["algorithms.grid_ns_per_cell"] = 1e9 * _ratio(grid_s, cells)

    like = v.calls("hierarchy", "get_like_lpdf")
    pred = v.calls("updaters", "lpdf")
    m["hierarchy.like_evals"] = like
    m["hierarchy.pred_evals"] = pred
    m["hierarchy.eval_ns"] = 1e9 * _ratio(
        v.total_s("hierarchy", "get_like_lpdf") + v.total_s("updaters", "lpdf"), like + pred)
    m["hierarchy.add_remove_calls"] = v.calls("hierarchy", "add_datum", "remove_datum")
    m["hierarchy.add_remove_s"] = v.total_s("hierarchy", "add_datum", "remove_datum")
    m["hierarchy.refresh_s"] = v.total_s("hierarchy", "sample_full_cond")
    m["hierarchy.refresh_calls"] = v.calls("hierarchy", "sample_full_cond")
    m["hierarchy.clones"] = v.calls("hierarchy", "clone")

    m["priors.sample_calls"] = v.calls("priors", "sample")
    m["priors.sample_s"] = v.total_s("priors", "sample")
    draws = v.calls("updaters", "draw")
    m["updaters.draw_calls"] = draws
    m["updaters.draw_s"] = v.total_s("updaters", "draw")
    m["updaters.move_rate"] = _ratio(v.counts.get("moves", 0), draws)

    m["mixings.mass_calls"] = v.calls("mixings", "mass_existing_cluster", "mass_new_cluster")
    m["mixings.mass_s"] = v.total_s("mixings", "mass_existing_cluster", "mass_new_cluster")
    m["mixings.update_s"] = v.total_s("mixings", "update_state")

    m["chainio.read_csv_s"] = v.total_s("chainio", "read_csv_matrix")
    m["chainio.collect_s"] = v.total_s("chainio", "collect")
    m["chainio.bytes_written"] = facts["chain_bytes"]
    m["chainio.replay_passes"] = v.calls("chainio", "__iter__")
    m["chainio.records_decoded"] = v.calls("chainio", "decode_state")
    m["chainio.decode_s"] = v.total_s("chainio", "decode_state")
    m["chainio.csv_write_s"] = v.total_s("chainio", "write_csv_matrix")
    m["chainio.csv_bytes"] = facts["csv_bytes"]

    m["postprocess.similarity_s"] = v.total_s("postprocess", "similarity_matrix")
    m["postprocess.binder_s"] = v.self_s("postprocess", "binder_best_clustering")
    m["postprocess.binder_loss_calls"] = v.calls("postprocess", "binder_loss")
    m["postprocess.nclus_s"] = v.total_s("postprocess", "num_clusters_chain")
    m["postprocess.ess_s"] = v.total_s("postprocess", "ess")

    wall = facts["wall_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = v.self_s(layer)
    # ess runs after the pipeline's wall clock stops, as the CLI never calls it
    m["postprocess.self_s"] -= v.self_s("postprocess", "ess")
    m["setup.import_s"] = v.total_s("setup", "import")
    m["trace.probe_s"] = v.total_s("trace", "probe")
    covered = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
               + m["setup.import_s"] + m["trace.probe_s"])
    m["trace.wall_s"] = wall
    m["trace.self_sum_s"] = covered
    m["trace.coverage"] = _ratio(covered, wall)
    m["trace.hot_share"] = _ratio(sum(m[name] for name in hot_layers), wall)
    return m

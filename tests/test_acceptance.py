"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    adjusted_rand_index,
    all_partitions,
    binder_loss,
    fill,
    indicator_se,
    monte_carlo_se,
    nnig_dp_coclustering_probability,
    nnig_quadrature,
    similarity_matrix,
)

from mixmcmc.algorithms import build_algorithm
from mixmcmc.chainio import FileCollector, MemoryCollector, read_csv_matrix
from mixmcmc.cli import main as cli_main
from mixmcmc.hierarchy import build_hierarchy
from mixmcmc.likelihoods import GammaLikelihood, UniNormLikelihood
from mixmcmc.mixings import DirichletMixing, PitYorMixing, TruncatedSBMixing
from mixmcmc.postprocess import (
    autocorrelation,
    binder_best_clustering,
    ess,
    log_mean_density,
    num_clusters_chain,
)
from mixmcmc.priors import GammaPriorHypers, NIGHypers
from mixmcmc.states import UniLSState
from mixmcmc.updaters import (
    build_metropolis_updater,
    gamma_gamma_posterior_hypers,
    nnig_posterior_hypers,
)

NNIG_REF_ARGS = {
    "fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 2.0, "scale": 2.0}
}

GALAXY = read_csv_matrix(Path(__file__).parent / "data" / "galaxy.csv")


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {number}] {status} - {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} failed: {name} {detail}"


def _run_chain(algo, data, iterations, burnin, seed, collector=None):
    collector = collector if collector is not None else MemoryCollector()
    start = time.perf_counter()
    algo.run(np.asarray(data, dtype=float), iterations, burnin, collector, np.random.default_rng(seed))
    return collector, time.perf_counter() - start


def test_criterion_1_enumeration_oracle():
    target = nnig_dp_coclustering_probability(-1.0, 1.0, 0.0, 0.1, 2.0, 2.0, alpha=1.0)
    data = [[-1.0], [1.0]]
    failures = []
    details = [f"exact={target:.5f}"]
    for label, algo_id, kwargs in [
        ("Neal2", "Neal2", {}),
        ("Neal3", "Neal3", {}),
        ("Neal8[m=1]", "Neal8", {"n_aux": 1}),
        ("Neal8[m=3]", "Neal8", {"n_aux": 3}),
    ]:
        algo = build_algorithm(
            algo_id, build_hierarchy("NNIG", NNIG_REF_ARGS), DirichletMixing(1.0),
            init_num_clusters=2, **kwargs,
        )
        collector, elapsed = _run_chain(algo, data, 21_000, 1_000, seed=7)
        ind = np.array([float(r.allocations[0] == r.allocations[1]) for r in collector])
        err = abs(ind.mean() - target)
        bound = 3 * indicator_se(ind)
        details.append(f"{label}: freq={ind.mean():.5f} err={err:.5f} 3se={bound:.5f} t={elapsed:.1f}s")
        if err >= bound:
            failures.append(f"{label} off by {err:.5f} > {bound:.5f}")
        if elapsed >= 10.0:
            failures.append(f"{label} took {elapsed:.1f}s >= 10s")
    _report(1, "n=2 co-clustering matches brute-force enumeration", not failures,
            "; ".join(details + failures))


def test_criterion_2_conjugate_update_quadrature():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    failures = []
    hypers = NIGHypers(0.0, 0.1, 2.0, 2.0)
    hier = build_hierarchy("NNIG", NNIG_REF_ARGS)
    for trial in range(20):
        size = 1 if trial < 6 else int(rng.integers(2, 6))
        data = rng.normal(rng.normal() * 2, 1.0 + rng.random(), size=size)
        like = fill(UniNormLikelihood(UniLSState(0.0, 1.0)), data)
        post = nnig_posterior_hypers(like.card, like.stats, hypers)
        oracle = nnig_quadrature(data, 0.0, 0.1, 2.0, 2.0)
        mean_err = abs(post.mean - oracle["e_mean"]) / max(abs(oracle["e_mean"]), 1e-3)
        var_est = post.scale / (post.shape - 1.0)
        var_err = abs(var_est - oracle["e_var"]) / oracle["e_var"]
        if mean_err > 1e-3 or var_err > 1e-3:
            failures.append(f"moments off (trial {trial}): {mean_err:.2e}, {var_err:.2e}")
        if size == 1:
            prior_pred = hier.predictive(0, hier.likelihood.stats)
            pred_err = abs(prior_pred.lpdf(float(data[0])) - oracle["log_marginal"])
            # both sides are log densities; 1e-6 on the log is within 1e-6
            # relative on the density, stricter than 1e-6 absolute here
            if pred_err > 1e-6:
                failures.append(f"marginal off (trial {trial}): {pred_err:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s >= 5s")
    _report(2, "closed-form posterior and marginal match quadrature", not failures,
            f"20 datasets, t={elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_3_metropolis_conjugate_agreement():
    start = time.perf_counter()
    data = [0.4, -0.3, 1.2, 0.8, 0.1]
    hypers = NIGHypers(0.0, 0.1, 2.0, 2.0)
    failures = []
    details = []

    def make_cluster():
        return fill(UniNormLikelihood(UniLSState(0.5, 1.0)), data)

    cluster = make_cluster()
    post = nnig_posterior_hypers(cluster.card, cluster.stats, hypers)
    target_mean = post.mean
    target_var = post.scale / ((post.shape - 1.0) * post.var_scaling)
    prior = build_hierarchy("NNIG", NNIG_REF_ARGS).prior

    # the cluster moves as a batch of one
    rows, labels = np.reshape(data, (-1, 1)), np.zeros(len(data), dtype=int)
    for label, step_size, seed in [("rwmh", 0.5, 21), ("mala", 0.35, 22)]:
        updater = build_metropolis_updater(label, step_size)
        like = make_cluster()
        rng = np.random.default_rng(seed)
        chain = np.empty(100_000)
        for t in range(chain.size):
            updater.draw_batch([like], prior, rng, rows, labels)
            chain[t] = like.state.mean
        mean_se = monte_carlo_se(chain)
        mean_err = abs(chain.mean() - target_mean)
        sq_dev = (chain - chain.mean()) ** 2
        var_se = monte_carlo_se(sq_dev)
        var_err = abs(sq_dev.mean() - target_var)
        details.append(
            f"{label}: mean err {mean_err:.4f} (3se {3 * mean_se:.4f}), "
            f"var err {var_err:.4f} (3se {3 * var_se:.4f})"
        )
        if mean_err >= 3 * mean_se:
            failures.append(f"{label} mean off")
        if var_err >= 3 * var_se:
            failures.append(f"{label} variance off")

    # MALA gradients against central finite differences: the cluster's
    # target is the likelihood's and the prior's per-cluster expressions
    like = make_cluster()
    (numbers,) = UniNormLikelihood.unconstrained_stats([like], rows, labels)([like.state.mean])

    def target(u):
        e = math.exp(-u[1])
        like_terms = UniNormLikelihood.unconstrained_lpdf(*numbers, *u, e)
        prior_terms = prior._unconstrained_lpdf(*u, e)
        return [a + b for a, b in zip(like_terms, prior_terms)]

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=2).tolist()
        grad = target(u)[1:]
        h = 1e-6
        for j in range(2):
            up, dn = list(u), list(u)
            up[j] += h
            dn[j] -= h
            fd = (target(up)[0] - target(dn)[0]) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    if worst > 1e-5:
        failures.append(f"gradient off by {worst:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s >= 30s")
    _report(3, "Metropolis kernels reproduce the conjugate posterior", not failures,
            "; ".join(details + [f"grad rel err {worst:.2e}", f"t={elapsed:.1f}s"] + failures))


def test_criterion_4_cluster_recovery_small():
    rng = np.random.default_rng(31)
    data = np.concatenate([rng.normal(size=100) - 3.0, rng.normal(size=100) + 3.0]).reshape(-1, 1)
    args = {"fixed_values": {"mean": 0.0, "var_scaling": 0.1, "shape": 3.0, "scale": 2.0}}
    algo = build_algorithm(
        "Neal2", build_hierarchy("NNIG", args), DirichletMixing(0.1), init_num_clusters=3
    )
    collector, elapsed = _run_chain(algo, data, 1_500, 500, seed=20201124)
    ks = num_clusters_chain(collector)
    values, counts = np.unique(ks, return_counts=True)
    mode = int(values[counts.argmax()])
    p2 = float(np.mean(ks == 2))
    ok = mode == 2 and p2 >= 0.5 and elapsed < 10.0
    _report(4, "two-component recovery at the reference run size", ok,
            f"mode k={mode}, P(k=2)={p2:.3f}, t={elapsed:.1f}s")


def test_criterion_5_highdim_recovery():
    d = 10
    rng = np.random.default_rng(33)
    data = np.vstack([
        rng.standard_normal((500, d)) + 2.0,
        rng.standard_normal((500, d)) - 2.0,
    ])
    truth = np.array([0] * 500 + [1] * 500)
    nu = float(d + 10)
    nnw_args = {
        "fixed_values": {
            "mean": {"size": d, "data": [0.0] * d},
            "var_scaling": 0.1,
            "deg_free": nu,
            "scale": {
                "rows": d, "cols": d,
                "data": [float(v) for v in ((nu - d - 1.0) * np.eye(d)).reshape(-1)],
                "rowmajor": True,
            },
        }
    }
    failures = []
    details = []
    for algo_id, mixing, iters, burn in [
        ("Neal3", PitYorMixing(0.5, 0.1), 100, 30),
        ("Neal8", PitYorMixing(0.5, 0.1), 260, 160),
        ("BlockedGibbs", TruncatedSBMixing(20, 0.3), 800, 400),
    ]:
        algo = build_algorithm(
            algo_id, build_hierarchy("NNW", nnw_args), mixing, init_num_clusters=3
        )
        collector, elapsed = _run_chain(algo, data, iters, burn, seed=101)
        best = binder_best_clustering(collector)
        k = len(set(best.tolist()))
        ari = adjusted_rand_index(best, truth)
        details.append(f"{algo_id}: k={k} ARI={ari:.4f} t={elapsed:.0f}s")
        if k != 2:
            failures.append(f"{algo_id} found {k} clusters")
        if ari < 0.95:
            failures.append(f"{algo_id} ARI {ari:.3f} < 0.95")
        if elapsed >= 300.0:
            failures.append(f"{algo_id} took {elapsed:.0f}s >= 300s")
    _report(5, "ten-dimensional two-component recovery", not failures,
            "; ".join(details + failures))


def test_criterion_6_galaxy_smoke():
    args = {
        "fixed_values": {
            "mean": float(GALAXY.mean()), "var_scaling": 0.01, "shape": 2.0, "scale": 4.0
        }
    }
    algo = build_algorithm(
        "Neal2", build_hierarchy("NNIG", args), PitYorMixing(0.5, 0.1), init_num_clusters=3
    )
    collector, elapsed = _run_chain(algo, GALAXY, 5_000, 1_000, seed=343)
    ks = num_clusters_chain(collector)
    values, counts = np.unique(ks, return_counts=True)
    mode = int(values[counts.argmax()])
    grid = np.linspace(5.0, 40.0, 512)
    lpdf = algo.eval_lpdf_grid(collector, grid.reshape(-1, 1))
    mass = float(np.trapezoid(np.exp(log_mean_density(lpdf)), grid))
    rho = autocorrelation(ks.astype(float), 50)
    ok = 3 <= mode <= 7 and abs(mass - 1.0) <= 0.02 and rho[50] < 0.5 and elapsed < 30.0
    _report(6, "galaxy posterior summaries in expected ranges", ok,
            f"mode k={mode}, density mass={mass:.4f}, rho(50)={rho[50]:.3f}, t={elapsed:.1f}s")


def test_criterion_7_diagnostics_oracles():
    start = time.perf_counter()
    failures = []
    # ESS of an AR(1) chain against the analytic integrated autocorrelation
    rho = 0.9
    rng = np.random.default_rng(41)
    t_len = 100_000
    x = np.empty(t_len)
    x[0] = rng.normal()
    innov = rng.normal(size=t_len) * math.sqrt(1 - rho * rho)
    for i in range(1, t_len):
        x[i] = rho * x[i - 1] + innov[i]
    target = t_len * (1 - rho) / (1 + rho)
    est = ess(x)
    rel = abs(est - target) / target
    if rel > 0.3:
        failures.append(f"ESS {est:.0f} vs {target:.0f} ({rel:.2f} rel)")
    # Binder point estimate equals exhaustive enumeration for n <= 6
    from mixmcmc.chainio import ChainState

    checked = 0
    for n in (3, 4, 5, 6):
        parts = all_partitions(n)
        reps = rng.integers(1, 4, size=len(parts))
        chain = []
        it = 0
        for part, r in zip(parts, reps):
            for _ in range(int(r)):
                chain.append(ChainState(it, [], part, {}))
                it += 1
        pi = similarity_matrix(chain)
        best = binder_best_clustering(chain)
        global_min = min(binder_loss(p, pi) for p in parts)
        checked += 1
        if binder_loss(best, pi) != pytest.approx(global_min, abs=1e-12):
            failures.append(f"Binder suboptimal for n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"took {elapsed:.1f}s >= 20s")
    _report(7, "ESS and Binder estimates match their oracles", not failures,
            f"ESS rel err {rel:.3f}; exhaustive Binder checks n<=6 x{checked}; t={elapsed:.1f}s"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_8_serialization_and_determinism(tmp_path):
    from test_chainio import random_state

    failures = []
    # 500-state file round trip is lossless
    rng = np.random.default_rng(51)
    states = [random_state(rng, t) for t in range(500)]
    collector = FileCollector(tmp_path / "acc.chain")
    collector.start_collecting()
    for s in states:
        collector.collect(s)
    collector.finish_collecting()
    if list(FileCollector(tmp_path / "acc.chain")) != states:
        failures.append("file round trip lost information")

    # identical seed/config/data produce byte-identical chain and outputs
    (tmp_path / "algo.txt").write_text(
        'algo_id: "Neal3"\nrng_seed: 4242\niterations: 400\nburnin: 100\ninit_num_clusters: 2\n'
    )
    (tmp_path / "g0.txt").write_text(
        "fixed_values {\n mean: 0.0\n var_scaling: 0.1\n shape: 2.0\n scale: 2.0\n}\n"
    )
    (tmp_path / "py.txt").write_text("fixed_values {\n strength: 1.0\n discount: 0.1\n}\n")
    gen = np.random.default_rng(8)
    data = np.concatenate([gen.normal(size=30) - 3, gen.normal(size=30) + 3])
    (tmp_path / "data.csv").write_text("".join(f"{float(v)!r}\n" for v in data))
    (tmp_path / "grid.csv").write_text(
        "".join(f"{float(v)!r}\n" for v in np.linspace(-6, 6, 64))
    )
    outputs = ("chains.chain", "dens.csv", "dens.mean.csv", "ncl.csv", "clus.csv", "best.csv")
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        out.mkdir()
        code = cli_main([
            "run-mcmc",
            "--algo-params-file", str(tmp_path / "algo.txt"),
            "--hier-type", "NNIG", "--hier-args", str(tmp_path / "g0.txt"),
            "--mix-type", "PY", "--mix-args", str(tmp_path / "py.txt"),
            "--coll-name", str(out / "chains.chain"),
            "--data-file", str(tmp_path / "data.csv"),
            "--grid-file", str(tmp_path / "grid.csv"),
            "--dens-file", str(out / "dens.csv"),
            "--n-cl-file", str(out / "ncl.csv"),
            "--clus-file", str(out / "clus.csv"),
            "--best-clus-file", str(out / "best.csv"),
        ])
        if code != 0:
            failures.append(f"run {run} exited {code}")
        blobs.append({name: (out / name).read_bytes() for name in outputs})
    if blobs[0] != blobs[1]:
        failures.append("outputs differ between identical runs")
    _report(8, "lossless chain serialization and bit-identical reruns", not failures,
            "; ".join(failures) if failures else "500-state round trip; 6 output files identical")


def test_criterion_9_gamma_extension():
    # worked example: exact posterior hyperparameters
    failures = []
    like = fill(GammaLikelihood(1.0), [1.0, 3.0])
    post = gamma_gamma_posterior_hypers(like.card, like.stats, GammaPriorHypers(1.0, 2.0, 2.0))
    if (post.rate_alpha, post.rate_beta) != (4.0, 6.0):
        failures.append(f"worked example gave ({post.rate_alpha}, {post.rate_beta})")

    rng = np.random.default_rng(61)
    data = rng.exponential(scale=0.5, size=100).reshape(-1, 1)  # Exp(rate=2)
    args = {"fixed_values": {"shape": 1.0, "rate_alpha": 2.0, "rate_beta": 2.0}}
    algo = build_algorithm(
        "Neal2", build_hierarchy("GammaGamma", args), DirichletMixing(0.2), init_num_clusters=2
    )
    collector, _ = _run_chain(algo, data, 1_000, 300, seed=62)
    rates = []
    dominant_share = []
    for record in collector:
        cards = [cs.cardinality for cs in record.cluster_states]
        top = int(np.argmax(cards))
        rates.append(float(record.cluster_states[top].params["rate"][0]))
        dominant_share.append(cards[top] / 100.0)
    rate_mean = float(np.mean(rates))
    share = float(np.mean(dominant_share))
    if not 1.6 <= rate_mean <= 2.4:
        failures.append(f"posterior rate mean {rate_mean:.3f} outside [1.6, 2.4]")
    if share < 0.8:
        failures.append(f"dominant cluster holds only {share:.2f} of the data")
    _report(9, "Gamma-kernel extension recovers the generating rate", not failures,
            f"rate mean={rate_mean:.3f}, dominant share={share:.2f}"
            + ("; " + "; ".join(failures) if failures else ""))

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line with the measured
numbers before asserting, so a -s run reads as a scorecard.  Criterion 2
is expected to stay red on its threshold clause: the band-limited oracle
keeps a Gibbs overshoot of about 15% of the geodesic near the cut point
at every truncation, which puts a floor around 0.15 * distance on the
error no matter how large q grows.  The monotone clause holds; the
threshold clause cannot, and the test records that honestly instead of
loosening the bound.  See README for the measured floor.
"""

import time

import numpy as np

import lapgeo as lg
from lapgeo.estimator import _objective_cols
from lapgeo.spectral import operator_from_modes

from conftest import grad_sup_spectral

ANALYTIC_FIRST_FOUR = np.array([-1.0, -1.0, -4.0, -4.0])

# the conftest terminal-summary hook replays these at the end of the run
VERDICTS = []


def _verdict(criterion, ok, detail, elapsed, budget):
    line = (
        f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail} "
        f"({elapsed:.1f}s of {budget:.0f}s budget)"
    )
    VERDICTS.append(line)
    print(line)
    assert ok, line
    assert elapsed <= budget, f"criterion {criterion} overran: {elapsed:.1f}s"


def _graph_decomposition(n, seed):
    thetas = lg.sample_circle_angles(n, seed)
    cloud = lg.embed(thetas)
    cfg = lg.ManifoldConfig(1, 2 * np.pi, 0.5 * n ** -0.25)
    return lg.eigendecompose(lg.build_laplacian(cloud, cfg)), thetas


def test_criterion_1_spectral_recovery():
    start = time.monotonic()

    dec, _ = _graph_decomposition(2000, seed=0)
    rel = np.abs(dec.nonzero_eigenvalues[:4] - ANALYTIC_FIRST_FOUR) / np.abs(
        ANALYTIC_FIRST_FOUR
    )
    eig_ok = bool(np.all(rel <= 0.15))

    improved = 0
    errs = []
    for seed in range(5):
        pair = []
        for n in (1000, 4000):
            dec_n, thetas = _graph_decomposition(n, seed)
            ref_vals, ref_modes = lg.analytic_eigenbasis(thetas, 4)
            err = lg.spectral_error(dec_n, ref_vals, ref_modes, r=4)
            pair.append(err.value)
        errs.append(pair)
        improved += pair[1] < pair[0]
    vec_ok = improved >= 3

    elapsed = time.monotonic() - start
    _verdict(
        1,
        eig_ok and vec_ok,
        f"eigenvalue rel errs {np.round(rel, 4).tolist()} (need <= 0.15); "
        f"eigenvector error shrank 1000->4000 for {improved}/5 seeds",
        elapsed,
        120.0,
    )


def test_criterion_2_blur_replication():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    pairs = rng.uniform(0.0, 2 * np.pi, size=(20, 2))

    # whole frequency pairs: a half-added pair is a slot-counting artifact,
    # not a band limit
    q_grid = list(range(2, 41, 2))
    monotone_ok = True
    for t0, t1 in pairs:
        geo = lg.circle_geodesic(t0, t1)
        errs = [abs(lg.q_resolved_distance(t0, t1, q) - geo) for q in q_grid]
        if not all(a >= b - 1e-6 for a, b in zip(errs, errs[1:])):
            monotone_ok = False

    errs_25 = np.array(
        [
            abs(lg.q_resolved_distance(t0, t1, 25) - lg.circle_geodesic(t0, t1))
            for t0, t1 in pairs
        ]
    )
    threshold_ok = bool(np.all(errs_25 < 0.05))

    elapsed = time.monotonic() - start
    _verdict(
        2,
        monotone_ok and threshold_ok,
        f"monotone in q: {monotone_ok}; max|err| at q=25: {errs_25.max():.4f} "
        f"(need < 0.05; Gibbs floor is about 0.15 * geodesic)",
        elapsed,
        10.0,
    )


def test_criterion_3_loss_trend():
    start = time.monotonic()
    cfg = lg.ExperimentConfig(
        n_values=(10, 50),
        q_values=(5, 8, 10, "adaptive"),
        r_rule=12,
        bandwidth_rule={"c": 0.5, "alpha": 0.25},
        n_seeds=20,
        base_seed=100,
    )
    rows = lg.run_loss_experiment(cfg)
    means = {
        (r["n"], str(r["q_spec"])): r["loss"]
        for r in rows
        if r["seed"] == "mean"
    }
    verdicts = {}
    for q_spec in ("5", "8", "10", "adaptive"):
        verdicts[q_spec] = means[(50, q_spec)] < means[(10, q_spec)]

    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"q={q}: {means[(10, q)]:.3f}->{means[(50, q)]:.3f}" for q in verdicts
    )
    _verdict(3, all(verdicts.values()), detail, elapsed, 300.0)


def test_criterion_4_brute_force_equivalence():
    start = time.monotonic()
    thetas = lg.equally_spaced_angles(8)
    vals, modes = lg.analytic_eigenbasis(thetas, 6)
    dec = lg.eigendecompose(operator_from_modes(vals, modes))
    cfg = lg.DiracConfig(dec, lg.TruncationParams(q=2, r=6))

    grid = np.linspace(-1.0, 1.0, 201)
    gx, gy = np.meshgrid(grid, grid)
    grid_cols = np.vstack([gx.ravel(), gy.ravel()])

    rng = np.random.default_rng(4)
    opt = lg.OptimizerConfig(seed=0)
    worst = 0.0
    for _ in range(5):
        a, b = (int(i) for i in rng.choice(8, size=2, replace=False))
        brute = float(np.max(_objective_cols(cfg, grid_cols, a, b)))
        est = lg.estimate_distance(cfg, a, b, opt)
        worst = max(worst, abs(est - brute) / brute)

    elapsed = time.monotonic() - start
    _verdict(
        4,
        worst <= 0.02,
        f"worst relative gap to 201x201 grid search: {worst:.2e} (need <= 0.02)",
        elapsed,
        30.0,
    )


def test_criterion_5_algebraic_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    n_instances = 100
    failures = []
    for i in range(n_instances):
        n = int(rng.integers(6, 16))
        cloud = lg.PointCloud(rng.normal(size=(n, 3)))
        mcfg = lg.ManifoldConfig(2, 3.0, float(rng.uniform(0.6, 1.4)))
        lap = lg.build_laplacian(cloud, mcfg)

        # zero row sums and negative semidefiniteness
        scale = max(float(np.max(np.abs(lap.matrix))), 1.0)
        if np.max(np.abs(lap.matrix.sum(axis=1))) > 1e-9 * scale:
            failures.append((i, "row-sums"))
        w = np.linalg.eigvalsh(lap.matrix)
        if w[-1] > 1e-9 * max(np.abs(w).max(), 1.0):
            failures.append((i, "nsd"))

        dec = lg.eigendecompose(lap)
        r = min(5, dec.rank)
        q = min(3, r)
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q, r))

        # dirac_squared scale equivariance
        v = rng.normal(size=n)
        lam = float(rng.uniform(0.2, 4.0)) * (1 if rng.integers(2) else -1)
        base = lg.dirac_squared(cfg, v)
        scaled = lg.dirac_squared(cfg, lam * v)
        ref = max(float(np.max(np.abs(base))) * lam * lam, 1e-30)
        if np.max(np.abs(scaled - lam * lam * base)) > 1e-10 * ref:
            failures.append((i, "dirac-scale"))

        # objective scale invariance
        vhat = rng.uniform(-1.0, 1.0, size=q)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        val = lg.objective(cfg, vhat, a, b)
        c = float(rng.uniform(0.05, 1.0))
        if abs(lg.objective(cfg, c * vhat, a, b) - val) > 1e-9 * max(abs(val), 1.0):
            failures.append((i, "objective-scale"))

        # spectral route equals direct route
        direct = lg.grad_sup(cfg, vhat)
        spectral = grad_sup_spectral(cfg, vhat)
        if abs(direct - spectral) > 1e-8 * max(direct, 1.0):
            failures.append((i, "route-equality"))

        # projection idempotence and Pythagoras
        u = rng.normal(size=n)
        p = lg.project_leading(dec, u, r)
        if np.max(np.abs(lg.project_leading(dec, p, r) - p)) > 1e-9:
            failures.append((i, "idempotence"))
        lhs = float(np.linalg.norm(u) ** 2)
        rhs = float(np.linalg.norm(p) ** 2 + np.linalg.norm(u - p) ** 2)
        if abs(lhs - rhs) > 1e-9 * max(lhs, 1.0):
            failures.append((i, "pythagoras"))

    elapsed = time.monotonic() - start
    _verdict(
        5,
        not failures,
        f"{n_instances} randomized instances, failures: {failures or 'none'}",
        elapsed,
        60.0,
    )


def test_criterion_6_baseline_sanity():
    start = time.monotonic()
    thetas = lg.sample_circle_angles(500, seed=0)
    d = lg.run_baseline(lg.embed(thetas), h_graph=0.1).matrix

    geo = lg.circle_geodesic(thetas[:, None], thetas[None, :])
    off = ~np.eye(500, dtype=bool)
    connected = off & np.isfinite(d)
    rel = np.abs(d[connected] - geo[connected]) / geo[connected]
    mean_rel = float(rel.mean())

    triangle_ok = True
    for k in range(500):
        excess = d - (d[:, k][:, None] + d[k, :][None, :])
        finite = np.isfinite(excess)
        if np.any(excess[finite] > 0.0):
            triangle_ok = False
            break

    elapsed = time.monotonic() - start
    _verdict(
        6,
        mean_rel < 0.05 and triangle_ok,
        f"mean relative error {mean_rel:.5f} on "
        f"{int(connected.sum()) // 2} connected pairs (need < 0.05); "
        f"zero-slack triangle inequality: {triangle_ok}",
        elapsed,
        30.0,
    )


def test_criterion_7_beats_chordal():
    start = time.monotonic()
    n = 50
    wins = 0
    for seed in range(1000, 1020):
        thetas = lg.sample_circle_angles(n, seed)
        cloud = lg.embed(thetas)
        mcfg = lg.ManifoldConfig(1, 2 * np.pi, 0.8 * n ** -0.25)
        dec = lg.eigendecompose(lg.build_laplacian(cloud, mcfg))
        cfg = lg.DiracConfig(dec, lg.TruncationParams(q=4, r=12))
        est = lg.estimate_distance_rows(cfg, cloud, lg.OptimizerConfig(seed=seed)).rows(0, n)

        geo = lg.circle_geodesic(thetas[:, None], thetas[None, :])
        euclid = np.linalg.norm(
            cloud.points[:, None, :] - cloud.points[None, :, :], axis=2
        )
        off = ~np.eye(n, dtype=bool)
        err_est = np.abs(est - geo)[off].mean()
        err_euclid = np.abs(euclid - geo)[off].mean()
        wins += err_est < err_euclid

    elapsed = time.monotonic() - start
    _verdict(
        7,
        wins >= 10,
        f"spectral estimate beat chordal distance on {wins}/20 seeds (need >= 10)",
        elapsed,
        300.0,
    )

"""Child process of the benchmark: one pass of a workload through lapgeo.

    python3 perfbench/child.py SPEC.json

SPEC names the pass ("pairs", or a CLI verb with its argv), whether to
trace it, and where to write the result JSON.  With tracing on, every
call into a lapgeo layer is wrapped in a span (name, start, end, parent)
recorded in memory and written out when the pass ends.  Spans come from
this file only: for the CLI verbs the functions the verb calls are
wrapped where lapgeo.cli looks them up, so the traced pass makes exactly
the calls the verb makes, in the same order.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder for one thread; records nothing when off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named <layer>.<function>."""
        with self.span(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"):
            return fn(*args, **kwargs)


def _decomposition_counters(decs) -> dict:
    return {
        "modes": sum(int(d.eigenvalues.shape[0]) for d in decs),
        "eigvec_mb": sum(d.eigenvectors.nbytes for d in decs) / 1e6,
        "kernel_dim": max(int(d.kernel_dim) for d in decs),
    }


def run_pairs(spec: dict, tracer: Tracer) -> dict:
    """Library pass: load, build, decompose, then estimate a fixed list of
    pairs one at a time.  Writes the estimates as JSON."""
    import lapgeo as lg

    with tracer.span("bench.pairs"):
        cloud = tracer.call(lg.load_point_cloud, spec["points"])
        manifold = lg.ManifoldConfig(1, 2.0 * np.pi, spec["bandwidth"])
        lap = tracer.call(lg.build_laplacian, cloud, manifold)
        if tracer.enabled:
            with tracer.span("types.graph_laplacian"):
                lg.GraphLaplacian(lap.matrix)
        dec = tracer.call(lg.eigendecompose, lap)
        dirac = lg.DiracConfig(dec, lg.TruncationParams(spec["q"], spec["r"]))
        opt = lg.OptimizerConfig(seed=spec["seed"])
        estimates = [float(tracer.call(lg.estimate_distance, dirac, a, b, opt))
                     for a, b in spec["pairs"]]
    with open(spec["output"], "w", encoding="utf-8") as fh:
        json.dump({"estimates": estimates}, fh)
    return {"pairs": len(estimates), **_decomposition_counters([dec])}


def _replay_loss_cells(config: dict, tracer: Tracer, decs: list) -> int:
    """Serial replay of the loss experiment's (n, seed) cells through public
    functions, mirroring what each pooled cell computes."""
    import lapgeo as lg

    cfg = lg.ExperimentConfig.from_dict(config)
    cells = 0
    for n in cfg.n_values:
        for seed in range(cfg.base_seed, cfg.base_seed + cfg.n_seeds):
            cells += 1
            thetas = tracer.call(lg.sample_circle_angles, n, seed)
            cloud = tracer.call(lg.embed, thetas)
            manifold = lg.ManifoldConfig(1, 2.0 * np.pi, cfg.h_for(n))
            dec = tracer.call(lg.eigendecompose, tracer.call(lg.build_laplacian, cloud, manifold))
            decs.append(dec)
            r = min(cfg.r_for(n), dec.rank)
            for q_spec in cfg.q_values:
                if q_spec == "adaptive":
                    try:
                        q = tracer.call(lg.select_q, dec, r, 0.0)
                    except lg.NoAdmissibleQError:
                        continue
                else:
                    q = min(q_spec, r)
                dirac = lg.DiracConfig(dec, lg.TruncationParams(q, r))
                target = tracer.call(lg.circle_geodesic, thetas[0], thetas)
                coeffs = dec.leading(q).T @ target
                tracer.call(lg.oracle_plugin_estimate, dirac, coeffs, 0, 1)
                tracer.call(lg.q_resolved_distance, thetas[0], thetas[1], q)
    return cells


def run_cli(spec: dict, tracer: Tracer) -> dict:
    """Run lapgeo.cli.main on the verb's argv with every lapgeo function the
    CLI module calls wrapped in a span; then re-validate the built types,
    replay the loss sweep's cells, and gather the layer counters."""
    import lapgeo as lg
    import lapgeo.cli as cli

    results: dict[str, object] = {}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            out = tracer.call(fn, *args, **kwargs)
            results[name] = out
            return out
        return traced

    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__.startswith("lapgeo.") \
                and fn.__module__ != cli.__name__:
            setattr(cli, name, wrap(name, fn))

    with tracer.span("cli.main"):
        code = cli.main(spec["argv"])
    if code != 0:
        return {"exit": code}

    counters: dict[str, object] = {"exit": code}
    if "build_laplacian" in results:
        with tracer.span("types.graph_laplacian"):
            lg.GraphLaplacian(results["build_laplacian"].matrix)
    for key in ("estimate_all_distances", "shortest_path_distances"):
        if key in results:
            with tracer.span("types.distance_matrix"):
                lg.DistanceMatrix(results[key].matrix)
    decs = [results["eigendecompose"]] if "eigendecompose" in results else []
    if "build_neighbor_graph" in results:
        counters["edges"] = int(results["build_neighbor_graph"].adjacency.nnz // 2)
    if "run_loss_experiment" in results:
        with open(spec["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        with tracer.span("bench.serial_replay"):
            counters["cells"] = _replay_loss_cells(config, tracer, decs)
    if decs:
        counters.update(_decomposition_counters(decs))
    return counters


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["trace"])
    counters = run_pairs(spec, tracer) if spec["pass"] == "pairs" else run_cli(spec, tracer)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"counters": counters, "spans": tracer.spans}, fh)
    return int(counters.get("exit", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

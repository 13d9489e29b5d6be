"""Benchmark of lapgeo on seeded unit-circle workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lapgeo checkout; lapgeo is imported from ./src.
Each pass of a workload is a child process, run one at a time.  With
--trace 0 the run sets up (interpreter start plus `import lapgeo`) several
times, then repeats untraced passes for S seconds, checking every output,
and reports the end-to-end metrics.  With --trace 1 it alternates
untraced passes with traced ones and reports the per-layer metrics.
The last line of standard output is the result JSON; the line before it
holds the details (every pass, output digests and the environment).
--workload all runs every workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from metrics import (
    file_digest,
    layer_self_times,
    median,
    span_total,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 3
# a workload's run, whatever its passes do, ends within 180 s: children
# still running at this deadline are killed and counted as failed
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_err_mean": "rad",
    "ref_err_max": "rad",
    "success_pct": "%",
}

LAYERS = ("cli", "io", "types", "laplacian", "spectral", "estimator",
          "baseline", "harness", "circle", "bench")

# per-layer metric (seconds) -> span whose summed duration it is
SPAN_TOTALS = {
    "io.load_point_cloud_s": "io.load_point_cloud",
    "io.save_distance_matrix_s": "io.save_distance_matrix",
    "types.graph_laplacian_s": "types.graph_laplacian",
    "types.distance_matrix_s": "types.distance_matrix",
    "laplacian.build_laplacian_s": "laplacian.build_laplacian",
    "spectral.eigendecompose_s": "spectral.eigendecompose",
    "estimator.estimate_all_distances_s": "estimator.estimate_all_distances",
    "baseline.build_neighbor_graph_s": "baseline.build_neighbor_graph",
    "baseline.shortest_path_distances_s": "baseline.shortest_path_distances",
    "harness.run_loss_experiment_s": "harness.run_loss_experiment",
    "harness.serial_replay_s": "bench.serial_replay",
    "circle.q_resolved_distance_s": "circle.q_resolved_distance",
}

# per-layer metric -> (unit, counter written by the traced child or value
# read from the pass's output by its check)
COUNTERS = {
    "spectral.modes": ("count", "modes"),
    "spectral.eigvec_mb": ("MB", "eigvec_mb"),
    "spectral.kernel_dim": ("count", "kernel_dim"),
    "estimator.chordal_floor_frac": ("1", "chordal_floor_frac"),
    "baseline.edges": ("count", "edges"),
    "baseline.triangle_slack_max": ("rad", "triangle_slack_max"),
    "harness.cells": ("count", "cells"),
    "harness.ok_frac": ("1", "ok_frac"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name in SPAN_TOTALS})
    units.update({name: unit for name, (unit, _) in COUNTERS.items()})
    units.update({"io.output_mb": "MB",
                  "harness.pool_speedup": "1", "trace.overhead_s": "s"})
    return units


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np
    import scipy

    ncpu = os.cpu_count() or 1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"))
    if caches:
        llc = caches[-1].read_text().strip()
    return {
        "nproc": ncpu,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "harness_pool_size": min(32, ncpu + 4),
        "last_level_cache": llc,
    }


class Runner:
    """Launches child passes in a private work directory of the checkout."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.checked: dict[tuple, tuple] = {}  # (input, output digest) -> check result
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = f"{src}{os.pathsep}{old}" if old else src
        self.count = 0

    def child(self, argv: list[str]) -> dict:
        """Run one child to exit through spawn.py: wall time from launch to
        exit, exit code and the child's own peak resident set."""
        self.count += 1
        log = self.work / f"child{self.count}.err"
        result = self.work / f"child{self.count}.json"
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(HERE / "spawn.py"), str(result), *argv],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.root,
                start_new_session=True)
            start = time.perf_counter()
            try:
                proc.wait(timeout=max(self.deadline - start, 0.0))
            except subprocess.TimeoutExpired:
                pass  # reported below as a child killed by SIGKILL
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        rec = {"wall_s": time.perf_counter() - start, "cpu_s": 0.0,
               "exit": -signal.SIGKILL, "peak_rss_mb": 0.0}
        if result.exists():
            rec = json.loads(result.read_text(encoding="utf-8"))
            result.unlink()
        rec["stderr"] = log.read_text(errors="replace")[-400:]
        log.unlink()
        return rec

    def setup(self) -> float:
        return self.child([sys.executable, "-c", "import lapgeo"])["wall_s"]

    def run_pass(self, workload, k: int, traced: bool) -> dict:
        """One pass of the workload on its input k, the output checked and
        then removed."""
        tag = f"pass{self.count + 1}"
        out = self.work / f"{tag}.out"
        spec = workload.child_spec(out, k)
        if spec["pass"] == "cli" and not traced:
            argv = [sys.executable, "-m", "lapgeo.cli", *spec["argv"]]
        else:
            spec.update(trace=traced, result=str(self.work / f"{tag}.result.json"))
            spec_path = self.work / f"{tag}.spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        rec = self.child(argv)
        rec["input"] = k
        rec["problems"] = []
        if rec["exit"] != 0:
            rec["problems"].append(f"exit code {rec['exit']}: {rec['stderr']}")
        elif not out.exists():
            rec["problems"].append("no output written")
        else:
            rec["output_mb"] = out.stat().st_size / 1e6
            rec["digest"] = file_digest(out)
            key = (k, rec["digest"])
            if key not in self.checked:
                self.checked[key] = workload.check(out, k)
            problems, values = self.checked[key]
            rec["problems"] += problems
            rec.update(values)
        if traced and rec["exit"] == 0:
            with open(spec["result"], encoding="utf-8") as fh:
                rec["trace"] = json.load(fh)
            if spec["pass"] != "cli":
                rec.pop("output_mb", None)
        for path in self.work.glob(f"{tag}.*"):
            path.unlink()
        del rec["stderr"]
        return rec


def _flag_nondeterminism(workload, passes) -> None:
    """Fail the passes whose output differs from the first pass's, for a
    workload whose output is promised to repeat byte for byte."""
    if not workload.repeatable_output:
        return
    first: dict[int, str] = {}
    for p in passes:
        if "digest" in p:
            ref = first.setdefault(p["input"], p["digest"])
            if p["digest"] != ref:
                p["problems"].append(f"output digest {p['digest']} differs from {ref}")


def _value(x, unit):
    return {"value": x, "unit": unit}


def end_to_end(setups, passes) -> dict:
    ok = [p for p in passes if not p["problems"]]

    def med(key):
        vals = [p[key] for p in ok if key in p]
        return median(vals) if vals else None

    values = {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "ref_err_mean": med("ref_err_mean"),
        "ref_err_max": med("ref_err_max"),
        "success_pct": 100.0 * len(ok) / len(passes),
    }
    return {k: _value(v, END_TO_END[k]) for k, v in values.items()}


def layer_values(rec: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = rec["trace"]["spans"]
    counters = {**rec, **rec["trace"]["counters"]}
    self_s = layer_self_times(spans)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({name: span_total(spans, span) for name, span in SPAN_TOTALS.items()})
    out.update({name: float(counters.get(key, 0)) for name, (_, key) in COUNTERS.items()})
    out["io.output_mb"] = rec.get("output_mb", 0.0)
    pooled = out["harness.run_loss_experiment_s"]
    out["harness.pool_speedup"] = out["harness.serial_replay_s"] / pooled if pooled else 0.0
    out["trace.overhead_s"] = rec["wall_s"] - untraced_wall
    return out


def per_layer(untraced, traced) -> dict:
    wall = median([p["wall_s"] for p in untraced])
    rows = [layer_values(p, wall) for p in traced if "trace" in p]
    units = per_layer_units()
    return {name: _value(median([r[name] for r in rows]) if rows else None, unit)
            for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    workload = WORKLOADS[name]
    work = root / ".bench_build" / "perfbench" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, deadline)
    try:
        setups = [] if trace else [runner.setup() for _ in range(SETUP_REPEATS)]
        workload.prepare(work, seed)
        untraced, traced, spent = [], [], []
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            done = len(traced) if trace else len(untraced)
            if spent and (now + median(spent) > deadline or (
                    done >= (1 if trace else MIN_PASSES) and now - start + median(spent) > seconds)):
                break
            t0 = time.perf_counter()
            k = len(spent) % workload.n_inputs
            untraced.append(runner.run_pass(workload, k, traced=False))
            if trace:
                traced.append(runner.run_pass(workload, k, traced=True))
            spent.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _flag_nondeterminism(workload, untraced + traced)
    everything = untraced + traced
    failed = sum(1 for p in everything if p["problems"])
    metrics = per_layer(untraced, traced) if trace else end_to_end(setups, untraced)
    for p in traced:
        p.pop("trace", None)
    detail = {"workload": name, "seed": seed, "trace": int(trace), "setup_s": setups,
              "untraced": untraced, "traced": traced, "environment": environment()}
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lapgeo" / "__init__.py").is_file():
        print(f"perfbench: no lapgeo source under {root / 'src'}; "
              "run from the root of a lapgeo checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

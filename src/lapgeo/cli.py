"""Command-line interface.

Verbs:
  loss-experiment --config cfg.json
  estimate --input points.csv --dim D --volume V --bandwidth H
           (--q Q | --adaptive [--epsilon E]) --r R [--seed S] --output out.csv
  baseline --input points.csv --radius H --output out.csv

Flags (--q against --r, --epsilon only with --adaptive, --seed, --samples,
--refine, --dim, --volume, --bandwidth, --radius) and the output's directory
are checked before the input is read; only the kernel scale, which needs n,
waits for it.

Exit codes: 0 success, 1 input error (files, flags, malformed data),
2 numerical failure (no admissible q, degenerate estimation).
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import build_neighbor_graph, check_radius, shortest_path_distances
from .errors import InputError, NumericalError
from .estimator import DiracConfig, OptimizerConfig, estimate_all_distances
from .harness import ExperimentConfig, run_loss_experiment
from .io import check_output_dir, load_point_cloud, save_distance_matrix
from .laplacian import build_laplacian
from .spectral import check_epsilon, eigendecompose, select_q
from .types import ManifoldConfig, TruncationParams


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; bad flags are input
    # errors here, which the contract maps to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lapgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    loss = sub.add_parser("loss-experiment", help="run the seeded loss sweep")
    loss.add_argument("--config", required=True, help="JSON experiment config")

    est = sub.add_parser("estimate", help="all-pairs spectral distance estimate")
    est.add_argument("--input", required=True, help="point cloud CSV")
    est.add_argument("--dim", required=True, type=int, help="intrinsic dimension d")
    est.add_argument("--volume", required=True, type=float, help="manifold volume")
    est.add_argument("--bandwidth", required=True, type=float, help="kernel bandwidth h")
    group = est.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, help="fixed linear truncation")
    group.add_argument("--adaptive", action="store_true", help="choose q from the spectrum")
    est.add_argument("--r", required=True, type=int, help="quadratic truncation")
    est.add_argument("--epsilon", type=float, default=None, help="--adaptive gap slack, >= 0")
    est.add_argument(
        "--seed", type=int, default=OptimizerConfig.seed,
        help="default 0 (>= 0), unused: the landmark solver draws nothing",
    )
    est.add_argument(
        "--samples", type=int, default=OptimizerConfig.n_samples,
        help="landmark pairs of the primal-dual solve, >= 1 (at most one per point)",
    )
    est.add_argument(
        "--refine", type=int, default=OptimizerConfig.n_refine,
        help="exponentiated-gradient updates per landmark pair, >= 0",
    )
    est.add_argument("--output", required=True, help="distance matrix CSV")

    base = sub.add_parser("baseline", help="shortest-path baseline distances")
    base.add_argument("--input", required=True, help="point cloud CSV")
    base.add_argument("--radius", required=True, type=float, help="edge radius")
    base.add_argument("--output", required=True, help="distance matrix CSV")
    return parser


def _cmd_loss(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors
        raise InputError(f"cannot read config: {exc}") from exc
    cfg = ExperimentConfig.from_dict(data)
    if cfg.output_path is None:
        raise InputError("config has no output_path; nothing to write")
    check_output_dir(cfg.output_path)
    run_loss_experiment(cfg)
    return 0


def _cmd_estimate(args) -> int:
    if args.epsilon is not None and not args.adaptive:
        raise InputError("--epsilon applies only with --adaptive")
    check_epsilon(args.epsilon or 0.0)
    # select_q returns a q in 1..r, so q = 1 checks r alone
    trunc = TruncationParams(1 if args.adaptive else args.q, args.r)
    manifold = ManifoldConfig(args.dim, args.volume, args.bandwidth)
    opt = OptimizerConfig(n_samples=args.samples, n_refine=args.refine, seed=args.seed)
    check_output_dir(args.output)
    cloud = load_point_cloud(args.input)
    dec = eigendecompose(build_laplacian(cloud, manifold), args.r)
    if args.adaptive:
        trunc = TruncationParams(select_q(dec, args.r, args.epsilon or 0.0), args.r)
    dirac = DiracConfig(dec, trunc)
    print(f"q={trunc.q} r={trunc.r} rank={dec.rank}", file=sys.stderr)
    dist = estimate_all_distances(dirac, cloud, opt)
    save_distance_matrix(args.output, dist)
    return 0


def _cmd_baseline(args) -> int:
    check_radius(args.radius)
    check_output_dir(args.output)
    cloud = load_point_cloud(args.input)
    graph = build_neighbor_graph(cloud, args.radius)
    save_distance_matrix(args.output, shortest_path_distances(graph))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "loss-experiment": _cmd_loss,
        "estimate": _cmd_estimate,
        "baseline": _cmd_baseline,
    }[args.verb]
    try:
        return handler(args)
    except InputError as exc:
        print(f"lapgeo: input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"lapgeo: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

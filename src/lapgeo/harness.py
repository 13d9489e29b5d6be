"""Loss-experiment driver: sweep sample sizes, truncation specs and seeds
on the circle, comparing the plug-in spectral estimate, objective() of the
geodesic target's leading coefficients, against the resolution-matched
oracle distance for the first sample pair.

Replications run one after another, one (n, seed) cell at a time; each
cell computes its eigendecomposition (the kernel and r = dec.held modes)
and geodesic target once and shares them across q-specs.  The adaptive q
is whatever select_q returns; rows are ordered (n, q-spec, seed) and
written once the sweep ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import circle_geodesic, embed, q_resolved_distance, sample_circle_angles
from .errors import InputError, NoAdmissibleQError
from .estimator import DiracConfig, objective
from .io import write_loss_csv
from .laplacian import build_laplacian
from .spectral import eigendecompose, select_q
from .types import ManifoldConfig, TruncationParams

ADAPTIVE = "adaptive"


def _is_int(x) -> bool:
    # JSON true/false parse as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, float)


@dataclass(frozen=True)
class ExperimentConfig:
    """Loss-experiment settings; mirrors the JSON config file field for
    field.

    q_values mixes fixed integers with the string "adaptive".  r_rule is a
    fixed count (int) or a fraction of n (float in (0, 1)); either way r is
    capped at n - 2, keeping the noise-dominated trailing eigenvalues out
    of the quadratic truncation.  bandwidth_rule is {"c": ..., "alpha": ...}
    for h = c * n^(-alpha), or an explicit list matching n_values.
    """

    manifold: str = "circle"
    n_values: tuple = (10, 20, 30, 40, 50)
    q_values: tuple = (5, 8, 10, ADAPTIVE)
    r_rule: float = 20
    bandwidth_rule: object = field(default_factory=lambda: {"c": 0.5, "alpha": 0.25})
    n_seeds: int = 20
    base_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.manifold != "circle":
            raise InputError(f"unknown manifold {self.manifold!r}; only 'circle' is available")
        if not isinstance(self.n_values, (tuple, list)) or not all(map(_is_int, self.n_values)):
            raise InputError(f"n_values must be a list of ints, got {self.n_values!r}")
        if len(self.n_values) == 0 or list(self.n_values) != sorted(set(self.n_values)):
            raise InputError("n_values must be non-empty and strictly increasing")
        if min(self.n_values) < 4:
            raise InputError("n_values entries must be at least 4")
        if not isinstance(self.q_values, (tuple, list)) or len(self.q_values) == 0:
            raise InputError(f"q_values must be a non-empty list, got {self.q_values!r}")
        for q in self.q_values:
            if q != ADAPTIVE and (not _is_int(q) or q < 1):
                raise InputError(f"q_values entries must be positive ints or {ADAPTIVE!r}, got {q!r}")
        if not _is_real(self.r_rule):
            raise InputError(f"r_rule must be an int or a fraction, got {self.r_rule!r}")
        if isinstance(self.r_rule, float) and not (0 < self.r_rule < 1):
            raise InputError("fractional r_rule must be in (0, 1)")
        if isinstance(self.r_rule, int) and self.r_rule < 1:
            raise InputError("fixed r_rule must be >= 1")
        if isinstance(self.bandwidth_rule, dict):
            if (set(self.bandwidth_rule) != {"c", "alpha"}
                    or not all(map(_is_real, self.bandwidth_rule.values()))):
                raise InputError('bandwidth_rule dict must be {"c": ..., "alpha": ...}')
        elif not isinstance(self.bandwidth_rule, (tuple, list)) or not all(
            map(_is_real, self.bandwidth_rule)
        ):
            raise InputError(
                f"bandwidth_rule must be a dict or a list of numbers, got {self.bandwidth_rule!r}"
            )
        elif len(self.bandwidth_rule) != len(self.n_values):
            raise InputError("explicit bandwidth list must match n_values in length")
        if not _is_int(self.n_seeds) or self.n_seeds < 1:
            raise InputError(f"n_seeds must be an int >= 1, got {self.n_seeds!r}")
        if not _is_int(self.base_seed) or self.base_seed < 0:
            raise InputError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise InputError(f"output_path must be a string, got {self.output_path!r}")
        for n in self.n_values:  # ManifoldConfig checks h, before any cell runs
            try:
                self.manifold_for(n)
            except OverflowError as exc:
                raise InputError(f"bandwidth_rule overflows at n = {n}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InputError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        for key in ("n_values", "q_values"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        return cls(**data)

    def r_for(self, n: int) -> int:
        if isinstance(self.r_rule, float):
            r = math.floor(self.r_rule * n)
        else:
            r = int(self.r_rule)
        return max(1, min(r, n - 2))

    def h_for(self, n: int) -> float:
        if isinstance(self.bandwidth_rule, dict):
            return float(self.bandwidth_rule["c"] * n ** (-self.bandwidth_rule["alpha"]))
        return float(self.bandwidth_rule[list(self.n_values).index(n)])

    def manifold_for(self, n: int) -> ManifoldConfig:
        return ManifoldConfig(intrinsic_dim=1, volume=2.0 * np.pi, bandwidth=self.h_for(n))


def _run_cell(cfg: ExperimentConfig, n: int, seed: int):
    """All q-spec rows for one (n, seed) replication, sharing the spectrum
    and the geodesic target."""
    thetas = sample_circle_angles(n, seed)
    cloud = embed(thetas)
    dec = eigendecompose(build_laplacian(cloud, cfg.manifold_for(n)), cfg.r_for(n))
    r = dec.held
    target = circle_geodesic(thetas[0], thetas)
    rows = []
    for q_spec in cfg.q_values:
        row = {
            "n": n, "q_spec": q_spec, "r_used": r, "seed": seed,
            "q_used": "", "estimate": math.nan, "oracle": math.nan,
            "loss": math.nan, "status": "ok",
        }
        if q_spec == ADAPTIVE:
            try:
                q_used = select_q(dec, r, epsilon=0.0)
            except NoAdmissibleQError:
                row["status"] = "no-admissible-q"
                rows.append(row)
                continue
        else:
            # a fixed q above r cannot be represented; clamp and disclose
            # through the separate q_spec/q_used columns
            q_used = min(q_spec, r)
        dirac = DiracConfig(dec, TruncationParams(q_used, r))
        coeffs = dec.leading(q_used).T @ target
        estimate = objective(dirac, coeffs, 0, 1)
        oracle = q_resolved_distance(thetas[0], thetas[1], q_used)
        row["q_used"] = q_used
        if not np.isfinite(estimate):
            row["status"] = "degenerate"
        else:
            row["estimate"] = float(estimate)
            row["oracle"] = float(oracle)
            row["loss"] = abs(float(estimate) - float(oracle))
        rows.append(row)
    return rows


def run_loss_experiment(cfg: ExperimentConfig):
    """Run the full sweep; returns the ordered row dicts (data rows plus a
    mean row per (n, q-spec) group) and writes them to cfg.output_path if
    set."""
    seeds = [cfg.base_seed + i for i in range(cfg.n_seeds)]
    ordered = []
    for n in cfg.n_values:
        cells = [_run_cell(cfg, n, seed) for seed in seeds]
        # cells[seed][q-spec] -> groups[q-spec][seed]
        for q_spec, group in zip(cfg.q_values, zip(*cells)):
            ordered.extend(group)
            losses = [r["loss"] for r in group if r["status"] == "ok"]
            ordered.append({
                "n": n, "q_spec": q_spec, "q_used": "", "r_used": group[0]["r_used"],
                "seed": "mean",
                "estimate": math.nan, "oracle": math.nan,
                "loss": float(np.mean(losses)) if losses else math.nan,
                "status": f"mean-of-{len(losses)}",
            })
    if cfg.output_path is not None:
        write_loss_csv(cfg.output_path, ordered)
    return ordered

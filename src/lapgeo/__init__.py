"""Intrinsic distance estimation from graph-Laplacian spectra.

Build a Gaussian-kernel graph Laplacian from a point cloud, decompose it,
and estimate pairwise geodesic distances through a truncated spectral
surrogate for the gradient sup-norm; analytic circle oracles and a
shortest-path baseline make every claim testable.
"""

import os as _os

# Before anything imports numpy, whose OpenBLAS reads this once, at load
# (as does scipy's own OpenBLAS, which the baseline loads later).  After
# each threaded call OpenBLAS's idle workers busy-wait 2^timeout TSC cycles
# before they sleep: 2^28, about 0.13 s at 2.1 GHz, by default.  The CSV
# writer's pool (io.worker_count()), which computes the Chebyshev floor
# chunk by chunk as it formats, runs right after the eigensolver's
# products, and on two cores it shared the CPUs with that spin.  2^22
# cycles (about 2 ms) still spans the gaps between the filter's
# back-to-back products.  Measured on a 2-core host, 1000
# circle points, fresh processes: the CSV write 99 -> 68 ms, the floor
# 23 -> 22 ms, the whole estimate 249 -> 218 ms, eigendecompose 32 ms
# either way.  20 to 26 did as well; below 20, eigendecompose's first call
# grew by up to 1 ms and the loss sweep by about 3 ms (BENCH_blas_idle.json).
# The BLAS thread count is untouched, so no output changes.  A value the
# user set wins; once numpy is loaded, this has no effect.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

import logging as _logging

from .baseline import (
    NeighborGraph,
    build_neighbor_graph,
    run_baseline,
    shortest_path_distances,
)
from .circle import (
    analytic_eigenbasis,
    circle_geodesic,
    distance_fourier_coeffs,
    embed,
    equally_spaced_angles,
    q_resolved_distance,
    sample_circle_angles,
    sample_uniform_circle,
)
from .errors import (
    EstimationFailedError,
    InputError,
    LapgeoError,
    NoAdmissibleQError,
    NumericalError,
)
from .estimator import (
    DEGENERATE,
    DiracConfig,
    DistanceRows,
    OptimizerConfig,
    dirac_squared,
    estimate_distance,
    estimate_distance_rows,
    grad_sup,
    objective,
    oracle_plugin_estimate,
)
from .harness import ExperimentConfig, run_loss_experiment
from .io import load_distance_matrix, load_point_cloud, save_distance_matrix
from .laplacian import build_laplacian, gram_distances
from .spectral import (
    SpectralDecomposition,
    SpectralError,
    eigendecompose,
    operator_from_modes,
    project_leading,
    select_q,
    spectral_error,
)
from .types import (
    DistanceMatrix,
    GraphLaplacian,
    ManifoldConfig,
    PointCloud,
    TruncationParams,
    validate_candidate,
)

__version__ = "0.1.0"

# library convention: no output unless the application configures logging
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

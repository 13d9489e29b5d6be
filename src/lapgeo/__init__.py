"""Intrinsic distance estimation from graph-Laplacian spectra.

Build a Gaussian-kernel graph Laplacian from a point cloud, decompose it,
and estimate pairwise geodesic distances through a truncated spectral
surrogate for the gradient sup-norm; analytic circle oracles and a
shortest-path baseline make every claim testable.
"""

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
    covering_radius_circle,
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
    OptimizerConfig,
    dirac_squared,
    estimate_all_distances,
    estimate_distance,
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
    validate_point_cloud,
)

__version__ = "0.1.0"

# library convention: no output unless the application configures logging
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

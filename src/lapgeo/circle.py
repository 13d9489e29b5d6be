"""Analytic ground truth on the unit circle in R^2.

Everything here has a closed form: geodesic distances, the Laplace
eigenbasis sampled at given angles, Fourier coefficients of the distance
function, the q-term rescaled partial sum used as a resolution-limited
distance oracle, and the covering radius of an angle sample.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .types import PointCloud

TWO_PI = 2.0 * np.pi
SQRT_PI = np.sqrt(np.pi)


def circle_geodesic(t1, t2):
    """Arc-length distance on the unit circle, elementwise, in [0, pi]."""
    d = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def sample_circle_angles(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform angles in [0, 2pi), deterministic given seed."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, n)


def equally_spaced_angles(n: int) -> np.ndarray:
    """n equally spaced angles; the sampled trig basis is then exactly
    orthogonal for frequencies below the Nyquist limit."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return TWO_PI * np.arange(n) / n


def embed(thetas: np.ndarray) -> PointCloud:
    """Embed angles as (cos t, sin t) rows."""
    t = np.asarray(thetas, dtype=float)
    return PointCloud(np.column_stack([np.cos(t), np.sin(t)]))


def sample_uniform_circle(n: int, seed: int) -> PointCloud:
    """n uniform points on the unit circle as a PointCloud."""
    return embed(sample_circle_angles(n, seed))


def analytic_eigenbasis(thetas, count: int):
    """First `count` Laplace eigenfunctions sampled at the given angles.

    Columns come in frequency pairs (sin k, cos k)/sqrt(pi), k = 1, 2, ...,
    which are orthonormal in L^2 of the circle; the eigenvalue of both
    members of pair k is -k^2.  Returns (eigenvalues (count,), modes
    (n, count)).
    """
    if count < 1:
        raise InputError(f"need count >= 1, got {count}")
    t = np.asarray(thetas, dtype=float)
    eigenvalues = np.empty(count)
    modes = np.empty((t.shape[0], count))
    for j in range(count):
        k = j // 2 + 1
        eigenvalues[j] = -float(k * k)
        modes[:, j] = (np.sin(k * t) if j % 2 == 0 else np.cos(k * t)) / SQRT_PI
    return eigenvalues, modes


def distance_fourier_coeffs(t0: float, q: int) -> np.ndarray:
    """Coefficients of dist(t0, .) in the orthonormal basis of
    analytic_eigenbasis, first q entries.

    The distance function is pi/2 - (4/pi) sum over odd k of
    cos(k(t - t0))/k^2, so only odd frequencies survive:
    coefficient on sin k is -4 sin(k t0) / (k^2 sqrt(pi)), on cos k
    -4 cos(k t0) / (k^2 sqrt(pi)).  The constant pi/2 is not part of the
    basis and is handled by callers that need absolute values.
    """
    if q < 1:
        raise InputError(f"need q >= 1, got {q}")
    coeffs = np.zeros(q)
    for j in range(q):
        k = j // 2 + 1
        if k % 2 == 0:
            continue
        amp = -4.0 / (k * k * SQRT_PI)
        coeffs[j] = amp * (np.sin(k * t0) if j % 2 == 0 else np.cos(k * t0))
    return coeffs


GRID_SIZE = 10_000


def q_resolved_distance(t0: float, t1: float, q: int) -> float:
    """Separation achieved by the q-term partial Fourier sum of
    dist(t0, .), rescaled to gradient sup-norm at most 1.

    The partial sum f (constant included) is evaluated analytically; its
    derivative's sup is taken on a uniform grid of GRID_SIZE points via
    term-wise differentiation.  Returns |f(t0) - f(t1)| / max(sup|f'|, 1),
    which never exceeds the true geodesic distance by more than the grid
    tolerance.
    """
    coeffs = distance_fourier_coeffs(t0, q)
    # one product per point: a joint 2-row product rounds differently
    f0 = np.pi / 2.0 + coeffs @ analytic_eigenbasis([t0], q)[1][0]
    f1 = np.pi / 2.0 + coeffs @ analytic_eigenbasis([t1], q)[1][0]

    ks = np.arange(q) // 2 + 1
    grid = np.linspace(0.0, TWO_PI, GRID_SIZE, endpoint=False)
    phases = np.outer(ks, grid)
    dbasis = np.empty_like(phases)
    dbasis[0::2] = np.cos(phases[0::2])  # sin rows
    dbasis[1::2] = -np.sin(phases[1::2])  # cos rows
    dbasis *= ks[:, None] / SQRT_PI
    sup_grad = np.max(np.abs(coeffs @ dbasis))
    return float(np.abs(f0 - f1) / max(sup_grad, 1.0))


def covering_radius_circle(thetas) -> float:
    """Half the largest angular gap between circularly sorted samples: the
    farthest any circle point can be from the sample set."""
    t = np.sort(np.asarray(thetas, dtype=float) % TWO_PI)
    if t.size == 0:
        raise InputError("need at least one point")
    gaps = np.diff(t, append=t[0] + TWO_PI)
    return float(np.max(gaps) / 2.0)

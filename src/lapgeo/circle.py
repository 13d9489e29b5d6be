"""Analytic ground truth on the unit circle in R^2.

Everything here has a closed form: geodesic distances, the Laplace
eigenbasis sampled at given angles, Fourier coefficients of the distance
function, and the q-term rescaled partial sum used as a
resolution-limited distance oracle.

The oracle's derivative rows on its grid depend only on the row index,
so one module-level table serves every q up to its height: it is built
on the first oracle call, not at import, and rebuilt taller only when a
larger q is asked for (q rows of GRID_SIZE doubles, 0.9 MB at q = 11).

Uniform samples come from numpy's default_rng(seed) stream (SeedSequence,
PCG64, uniform), reproduced here bit for bit, so they do not move with
the installed numpy and numpy.random (with the secrets, hashlib and
OpenSSL modules it imports) is never loaded.  tests/test_circle.py pins
the stream against numpy and against golden values.  The 128-bit state
steps in Python integers, about 0.3 us per draw.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

from .errors import InputError
from .types import PointCloud

TWO_PI = 2.0 * np.pi
SQRT_PI = np.sqrt(np.pi)


def circle_geodesic(t1, t2):
    """Arc-length distance on the unit circle, elementwise, in [0, pi]."""
    d = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed) -> tuple[int, int]:
    """PCG64's (state, inc) as numpy's SeedSequence(seed) seeds them.

    The entropy is the seed's 32-bit little-endian words.  They are
    hashed into a pool of four words, the pool is cross-mixed, and eight
    32-bit words are drawn from it: two 64-bit seed words and two
    increment words.  All of it is arithmetic mod 2**32.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    w = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _MASK32
        v = v * h & _MASK32
        w.append(v ^ v >> 16)
    s0, s1, s2, s3 = (w[2 * k] | w[2 * k + 1] << 32 for k in range(4))
    # PCG64's srandom: state = inc + initstate, then one step
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


def _pcg64_doubles(n: int, seed) -> np.ndarray:
    """The first n doubles in [0, 1) of numpy's PCG64(SeedSequence(seed)):
    the top 53 bits of each XSL-RR output over 2**53."""
    state, inc = _seed_state(seed)
    states = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        states.append(state.to_bytes(16, "little"))
    lo, hi = np.frombuffer(b"".join(states), dtype="<u8").reshape(n, 2).T
    # XSL-RR: hi ^ lo rotated right by the state's top six bits
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return (x >> np.uint64(11)) * 2.0**-53


def sample_circle_angles(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform angles in [0, 2pi), deterministic given seed.

    The angles are those of numpy's default_rng(seed).uniform(0, 2pi, n),
    bit for bit, computed here (SeedSequence, then PCG64, then uniform), so
    they depend only on n and seed, not on the installed numpy, and
    numpy.random is never loaded.  tests/test_circle.py pins the stream
    against numpy and against golden values.  The 128-bit state steps in
    Python integers, about 0.3 us per draw.  A negative or non-integer
    seed is an InputError.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return _pcg64_doubles(n, seed) * TWO_PI


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

# rows 0..height-1 of the basis derivatives on the grid, read-only; only
# ever replaced by a taller table, under the lock
_dgrid = np.empty((0, GRID_SIZE))
_dgrid_lock = threading.Lock()


def _derivative_rows(q: int) -> np.ndarray:
    """Derivatives of the first q columns of analytic_eigenbasis at the
    GRID_SIZE grid points, one row each: k cos(kt) on sin rows, -k sin(kt)
    on cos rows, over sqrt(pi)."""
    ks = np.arange(q) // 2 + 1
    grid = np.linspace(0.0, TWO_PI, GRID_SIZE, endpoint=False)
    phases = np.outer(ks, grid)
    dbasis = np.empty_like(phases)
    dbasis[0::2] = np.cos(phases[0::2])  # sin rows
    dbasis[1::2] = -np.sin(phases[1::2])  # cos rows
    dbasis *= ks[:, None] / SQRT_PI
    dbasis.flags.writeable = False
    return dbasis


def _derivative_table(q: int) -> np.ndarray:
    """The shared derivative table, at least q rows tall."""
    global _dgrid
    with _dgrid_lock:
        table = _dgrid
        if table.shape[0] < q:
            table = _dgrid = _derivative_rows(q)
    return table


def q_resolved_distance(t0: float, t1: float, q: int) -> float:
    """Separation achieved by the q-term partial Fourier sum of
    dist(t0, .), rescaled to gradient sup-norm at most 1.

    The partial sum f (constant included) is evaluated analytically; its
    derivative's sup is taken on a uniform grid of GRID_SIZE points via
    term-wise differentiation, from the first q rows of the shared
    derivative table (see the module docstring).  Returns
    |f(t0) - f(t1)| / max(sup|f'|, 1), which never exceeds the true
    geodesic distance by more than the grid tolerance.
    """
    coeffs = distance_fourier_coeffs(t0, q)
    # one product per point: a joint 2-row product rounds differently
    f0 = np.pi / 2.0 + coeffs @ analytic_eigenbasis([t0], q)[1][0]
    f1 = np.pi / 2.0 + coeffs @ analytic_eigenbasis([t1], q)[1][0]
    sup_grad = np.max(np.abs(coeffs @ _derivative_table(q)[:q]))
    return float(np.abs(f0 - f1) / max(sup_grad, 1.0))

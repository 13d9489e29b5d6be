r"""CSV input and output.

Point clouds: one row per point, comma-separated decimal coordinates,
optional single header row auto-detected (a first row that fails numeric
parsing is a header; a later unparsable or ragged row is an error naming
its file line).  A leading UTF-8 byte-order mark is skipped.

Distance matrices: one row per point, each entry as `format(x, ".17g")`
(17 significant digits, so values round-trip losslessly; infinities are
"inf"), entries joined by "," and rows ended by "\r\n". The writer builds
these bytes with numpy, exactly, in chunks of whole rows of about a fixed
number of entries.  It takes any row source, an object with n and
rows(a, b): a DistanceMatrix, whose rows are slices of its matrix, or the
estimator's DistanceRows, which computes each chunk as it is formatted, so
that the estimate is written without its n x n matrix.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

from .errors import InputError
from .types import DistanceMatrix, PointCloud, _adopt


def _parse_row(row, row_number: int):
    try:
        return [float(cell) for cell in row]
    except ValueError as exc:
        raise InputError(f"row {row_number}: could not parse as numbers: {exc}")


def load_point_cloud(path) -> PointCloud:
    """Read a point cloud CSV, auto-detecting an optional header row.  A
    file with no data row (empty, or a header alone) is an InputError
    naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            raw = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    rows = {}  # file line -> coordinates
    for k, (line, row) in enumerate(raw):
        try:
            rows[line] = _parse_row(row, line)
        except InputError:
            if k:  # only the first non-empty row may be a header
                raise
    if not rows:
        raise InputError(f"{path}: no data rows")
    width = len(next(iter(rows.values())))
    for line, r in rows.items():
        if len(r) != width:
            raise InputError(f"row {line}: expected {width} columns, got {len(r)}")
    return PointCloud(list(rows.values()))  # rejects non-finite values


# 10**k for k = 0..22, every one an exact double, with its Veltkamp split
_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

_BLOCK = 1 << 14  # entries per chunk of rows (at least one row); bounds the scratch memory
_FIELD = 26  # the longest %.17g text, "-2.2250738585072014e-308", plus "\r\n"


def _scaled(x, k):
    """Dekker's TwoProduct: p + e == x * 10**k exactly, p the rounded product."""
    p = x * _POW10[k]
    xh, xl = _split(x)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return p, ((xh * ph - p) + xh * pl + xl * ph) + xl * pl


@cache
def _digit_tables():
    """For g in 0..9999: its four ASCII digits as one little-endian uint32,
    and how many of them precede its trailing zeros (-100 for g = 0); built
    on first use, read-only."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    chars = (digits + ord("0")).astype(np.uint8).view("<u4").ravel()
    trailing = (digits[:, ::-1] != 0).argmax(axis=1)
    kept = np.where(g == 0, -100, 4 - trailing).astype(np.int8)
    chars.setflags(write=False)
    kept.setflags(write=False)
    return chars, kept


def _decimal(x):
    """Exponent X and 17-digit integer N with N * 10**(X - 16) the value of
    x rounded to 17 significant digits, half to even, for 1e-6 < x < 1e17.

    With k = 16 - X in 0..22, 10**k is exact and x * 10**k = p + e exactly.
    In [1e16, 1e17) p is an even integer (p >= 2**53), so p + rint(e)
    rounds p + e half to even, as `format` does.  X comes from log10 and is
    corrected once when p + e falls outside [1e16, 1e17); the test is on p
    and e, not on the rounded N.  N never carries to 1e17: no double in
    (1e-6, 1e17) lies within half a unit of the 17th digit below a power
    of ten (the layout tests hold the doubles next to each such power).
    """
    X = np.floor(np.log10(x)).astype(np.intp)
    np.clip(X, -6, 16, out=X)
    p, e = _scaled(x, 16 - X)
    up = (p > 1e17) | ((p == 1e17) & (e >= 0))
    down = (p < 1e16) | ((p == 1e16) & (e < 0))
    fix = np.flatnonzero(up | down)
    if fix.size:
        X[fix] += up[fix].astype(np.intp) - down[fix]
        p[fix], e[fix] = _scaled(x[fix], 16 - X[fix])
    N = p.astype(np.int64) + np.rint(e).astype(np.int64)
    return X.astype(np.int8), N


def _digits(N):
    """The 17 ASCII digits of each N, one row each, and how many of them
    are significant: up to the last nonzero one."""
    chars, kept = _digit_tables()
    # // by a scalar divides by multiplication (numpy's libdivide), which
    # np.divmod does not; each remainder is a multiply-subtract
    hi = N // 10**8
    lo = (N - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    d0 = hi // np.uint32(10**8)
    r = hi - d0 * np.uint32(10**8)
    g1 = r // np.uint32(10**4)
    g2 = r - g1 * np.uint32(10**4)
    g3 = lo // np.uint32(10**4)
    g4 = lo - g3 * np.uint32(10**4)
    words = np.empty((N.size, 5), dtype="<u4")
    words[:, 0] = (d0 + ord("0")) << 24  # the leading digit, in byte 3
    for col, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, col] = chars[g]
    sig = np.maximum(np.maximum(1 + kept[g1], 5 + kept[g2]),
                     np.maximum(9 + kept[g3], 13 + kept[g4]))
    return words.view(np.uint8)[:, 3:], np.maximum(sig, 1)


def _layout(X, D, sig):
    """C's %g text of rows of digits D at exponents X (rows in ascending X)
    and its length: fixed notation for -4 <= X <= 16 (integer zeros kept,
    no point without a fraction), otherwise d.ddd followed by e-05 or e-06."""
    mantissa = np.where(sig > 1, sig + 1, 1).astype(np.int8)
    length = np.where(X >= 0, np.where(sig > X + 1, sig + 1, X + 1),
                      np.where(X >= -4, sig + 1 - X, mantissa + 4))
    text = np.empty((X.size, _FIELD), dtype=np.uint8)
    bounds = np.cumsum(np.bincount(X + 6, minlength=23))
    for x, a, b in zip(range(-6, 17), [0, *bounds[:-1]], bounds):
        if a == b:
            continue
        t, d = text[a:b], D[a:b]
        if x >= 0:
            t[:, :x + 1] = d[:, :x + 1]
            t[:, x + 1] = ord(".")
            t[:, x + 2:18] = d[:, x + 1:]
        elif x >= -4:
            t[:, :1 - x] = np.frombuffer(b"0.000", np.uint8)[:1 - x]
            t[:, 1 - x:18 - x] = d
        else:
            t[:, 0] = d[:, 0]
            t[:, 1] = ord(".")
            t[:, 2:18] = d[:, 1:]
            rows = np.arange(b - a)
            for j, c in enumerate(b"e-05" if x == -5 else b"e-06"):
                t[rows, mantissa[a:b] + j] = c
    return text, length


def _format_block(source, a, b):
    """The CSV bytes of rows a..b of a row source."""
    v = source.rows(a, b)
    n = v.shape[1]
    v = v.reshape(-1)
    size = v.size
    fast = (v > 1e-6) & (v < 1e17)
    X, N = _decimal(np.where(fast, v, 1.0))
    # laid out sorted by exponent, so that each exponent's layout is a few
    # slice copies over one run of rows, then put back in place
    order = np.argsort(X, kind="stable")
    D, sig = _digits(N[order])
    # scratch is dropped once spent, so the text, the mask and the output
    # are the largest arrays alive at once: about 90 bytes per entry
    del N
    sorted_text, length = _layout(X[order], D, sig)
    del D, sig
    text = np.empty_like(sorted_text)
    text.view(f"V{_FIELD}")[order] = sorted_text.view(f"V{_FIELD}")
    L = np.empty(size, dtype=np.uint8)
    L[order] = length
    del order, length

    if not fast.all():
        zero = np.flatnonzero(v == 0.0)
        negative = np.signbit(v[zero])
        text[zero, 0] = np.where(negative, ord("-"), ord("0"))
        text[zero, 1] = ord("0")
        L[zero] = 1 + negative
        inf = np.flatnonzero(v == np.inf)
        text[inf, :3] = np.frombuffer(b"inf", np.uint8)
        L[inf] = 3
        for i in np.flatnonzero(~fast & (v != 0.0) & (v != np.inf)):
            s = format(float(v[i]), ".17g").encode()
            text[i, :len(s)] = np.frombuffer(s, np.uint8)
            L[i] = len(s)

    text[np.arange(size), L] = ord(",")
    row_ends = np.arange(n - 1, size, n)
    text[row_ends, L[row_ends]] = ord("\r")
    text[row_ends, L[row_ends] + 1] = ord("\n")
    L += 1
    L[row_ends] += 1
    # the sorted text is spent: its buffer holds the mask of kept bytes
    keep = np.less(np.arange(_FIELD, dtype=np.uint8), L[:, None], out=sorted_text.view(bool))
    return text[keep]


def worker_count() -> int:
    """Threads of the CSV writer, lapgeo's one thread pool (numpy releases
    the GIL in the ufuncs that format a chunk): one per usable CPU, or per
    CPU where affinity is unknown (macOS, Windows).  The writer runs right
    after the eigensolver's threaded BLAS products; it gets every CPU only
    once BLAS's idle threads sleep, which lapgeo's OPENBLAS_THREAD_TIMEOUT
    default makes happen within milliseconds."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def save_distance_matrix(path, dist) -> None:
    r"""Write a distance matrix as CSV.

    dist is a row source: a DistanceMatrix, or any object with n and
    rows(a, b) giving rows a..b of an n x n matrix as a (b - a, n) float
    array, such as estimate_distance_rows' DistanceRows.  The file holds
    exactly the bytes of
    `"".join(",".join(format(x, ".17g") for x in row) + "\r\n" for row in m)`:
    17 significant digits, C's %g layout, "inf" for disconnected pairs, so
    `load_distance_matrix` reads back the same doubles.  Entries in
    (1e-6, 1e17), and zeros and infinities, are formatted by numpy in
    chunks of max(1, _BLOCK // n) rows; any other entry goes through
    `format` one at a time.  Each chunk is taken from the source and
    formatted on one of worker_count() threads, at most one more chunk than
    threads at a time, and chunks are written in order; a chunk's bytes do
    not depend on the thread that formats it.  A 0 x 0 matrix gives an
    empty file.  A file that cannot be opened or written is an InputError
    naming the path.
    """
    n = dist.n
    step = max(1, _BLOCK // max(n, 1))
    workers = worker_count()
    try:
        with open(path, "wb") as fh, ThreadPoolExecutor(workers) as pool:
            pending = deque()
            for a in range(0, n, step):
                pending.append(pool.submit(_format_block, dist, a, min(a + step, n)))
                if len(pending) > workers:
                    fh.write(pending.popleft().result())
            while pending:
                fh.write(pending.popleft().result())
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def check_output_dir(path) -> None:
    """Raise InputError unless the directory that would hold path exists,
    so that a run can fail before it computes what it cannot write."""
    directory = os.path.dirname(os.fspath(path)) or "."
    if not os.path.isdir(directory):
        raise InputError(f"cannot write {path}: no directory {directory}")


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a distance matrix CSV written by save_distance_matrix."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as an InputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            m = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise InputError(f"{path}: could not parse as numbers: {exc}")
    if m.size == 0:
        raise InputError(f"{path} is empty")
    return _adopt(DistanceMatrix, m)


LOSS_HEADER = ["n", "q_spec", "q_used", "r_used", "seed", "estimate", "oracle", "loss", "status"]


def write_loss_csv(path, rows) -> None:
    """Write loss-experiment rows (dicts keyed by LOSS_HEADER fields); a
    file that cannot be opened or written is an InputError naming the path."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(LOSS_HEADER)
            for row in rows:
                writer.writerow(
                    format(row[key], ".17g") if isinstance(row[key], float) else str(row[key])
                    for key in LOSS_HEADER
                )
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")

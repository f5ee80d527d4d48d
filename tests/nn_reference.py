"""Straightforward implementations kept as the references that the
program's faster code must match bit for bit: the nearest-neighbour
baseline's vectorised full scan, which its pruned scan must reproduce, and
the ``sliding_window_view`` im2col that ``nn.ops._kernel_major_cols``
builds from strides."""

import numpy as np

from multifuture.training import z_normalize


def full_scan_distances(train_values, query, n_p, n_h):
    """Every start's distance to ``query``: the query subtracted from all
    normalized windows at once, in the time-major layout that
    ``z_normalize`` leaves on the sliding-window view."""
    values = np.asarray(train_values, dtype=np.float64)
    n_starts = len(values) - n_p - n_h + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        values, n_p, axis=0)[:n_starts]                     # (starts, d, n_p)
    normalized = z_normalize(windows, axis=2)
    q = z_normalize(np.asarray(query, dtype=np.float64), axis=0).T
    sq = np.subtract(normalized, q)
    np.square(sq, out=sq)
    return np.sqrt(sq.sum(axis=2)).sum(axis=1)


def full_scan(train_values, query, n_p, n_h):
    """The ``(d, n_h)`` continuation of the full scan's nearest start."""
    values = np.asarray(train_values, dtype=np.float64)
    best = int(np.argmin(full_scan_distances(values, query, n_p, n_h)))
    return values[best + n_p:best + n_p + n_h].T


def kernel_major_cols(xp, kernel):
    """im2col of padded ``(..., rows, length + kernel - 1, channels)`` data
    as ``(..., rows * length, kernel * channels)``, through
    ``sliding_window_view``."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=-2)
    *lead, rows, length, channels, _ = windows.shape
    return windows.swapaxes(-1, -2).reshape(*lead, rows * length, kernel * channels)

"""Straightforward implementations kept as the references that the
program's faster code must match bit for bit: the nearest-neighbour
baseline's vectorised full scan, which its pruned scan must reproduce, and
the ``sliding_window_view`` im2col that ``nn.ops._planned_cols`` and
``nn.ops._gather_cols`` build from strides and index maps."""

import numpy as np

from multifuture.training import ZNORM_EPSILON, z_normalize


def normalized_windows(train_values, n_p, n_h):
    """Every start's ``n_p``-hour input window, z-normalized along time with
    each sum taken one hour after the other, as ``(starts, d, n_p)``.

    The windows are copied time-outer, ``(n_p, starts, d)``, and summed with
    ``np.cumsum`` along axis 0, which adds hour after hour whatever the
    shape.  (A reduction of that copy is pairwise when ``starts * d == 1``,
    since the time axis is then the only one left.)  For ``d >= 2`` these
    are the bits of ``z_normalize(windows, axis=2)`` on the sliding-window
    view, whose strided time axis numpy also sums in order; for ``d == 1``
    that view's time axis is contiguous and numpy sums it pairwise.
    """
    values = np.asarray(train_values, dtype=np.float64)
    n_starts = len(values) - n_p - n_h + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        values, n_p, axis=0)[:n_starts]                     # (starts, d, n_p)
    hours = np.moveaxis(windows, 2, 0).copy()               # (n_p, starts, d)
    mean = np.cumsum(hours, axis=0)[-1] / n_p
    centered = hours - mean
    std = np.sqrt(np.cumsum(centered * centered, axis=0)[-1] / n_p)
    return np.moveaxis(centered / np.maximum(std, ZNORM_EPSILON), 0, 2)


def full_scan_distances(train_values, query, n_p, n_h):
    """Every start's distance to ``query``: the query subtracted from all
    normalized windows at once, in the time-major ``(n_p, d)`` per start
    layout of the sliding-window view."""
    normalized = np.ascontiguousarray(
        normalized_windows(train_values, n_p, n_h).swapaxes(1, 2)).swapaxes(1, 2)
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

"""Measurable sets on a grid axis, concentration defects, and moment norms.

A mask is a boolean flag per grid cell; its measure is the flagged cell count
times the cell width, so masks model finite unions of half-open cells.  The
concentration defect of a signal on a mask U is the relative L^2 mass outside,

    defect(f, U) = ( sum_{j not in U} w |f_j|^2 )^(1/2) / ||f||_2,

a number in [0, 1]: defect 0 means full concentration on U, defect close to 1
means almost all energy lives elsewhere.  A signal is eps-concentrated on U
when defect(f, U) <= eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FREQUENCY, TIME, Grid, Signal, _quadrature_lq, frozen_array, norm_lq

_AXES = (TIME, FREQUENCY)


@dataclass(frozen=True)
class MaskSet:
    """Finite union of grid cells on one axis, stored as boolean flags."""

    grid: Grid
    axis: str
    flags: np.ndarray

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.flags) * self.grid.spacing(self.axis))

    @cached_property
    def flags_fft(self) -> np.ndarray:
        """Read-only np.fft.fft of the flags as 0/1 floats, taken on first use and kept."""
        spectrum = np.fft.fft(self.flags.astype(float))
        spectrum.setflags(write=False)
        return spectrum


def mask_from_flags(grid: Grid, axis: str, flags) -> MaskSet:
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    arr = frozen_array(flags, dtype=bool)
    if arr.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} flags, got shape {arr.shape}")
    return MaskSet(grid, axis, arr)


def concentration_defect(f: Signal, u: MaskSet) -> float:
    """Relative L^2 mass of f outside u, clamped into [0, 1]."""
    if u.grid != f.grid or u.axis != f.domain:
        raise ValueError("mask must live on the signal's grid and axis")
    e, total = _energy_profile(f, "concentration defect")
    outside = float(e[~u.flags].sum())
    return float(min(1.0, np.sqrt(max(0.0, outside / total))))


def _energy_profile(f: Signal, quantity: str) -> tuple[np.ndarray, float]:
    """(|f|^2, its sum) for the named quantity of f, which is undefined for the zero signal."""
    e = np.abs(f.samples) ** 2
    total = float(e.sum())
    if total == 0.0:
        raise ValueError(f"{quantity} of the zero signal is undefined")
    return e, total


def minimal_concentration_set(f: Signal, epsilon: float) -> MaskSet:
    """Smallest-measure mask on f's own axis on which f is epsilon-concentrated.

    Cells are admitted greedily in order of decreasing energy |f_j|^2 (ties by
    ascending index) until the excluded energy is at most epsilon^2 ||f||^2.
    For cell masks on a uniform grid the greedy set is exactly optimal, which
    the tests confirm against subset enumeration at small n.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    e, total = _energy_profile(f, "concentration set")
    order = np.argsort(-e, kind="stable")
    flags = np.zeros(f.grid.n, dtype=bool)
    flags[order[: _admitted_count(e, order, total, epsilon * epsilon * total)]] = True
    return mask_from_flags(f.grid, f.domain, flags)


def _admitted_count(e: np.ndarray, order: np.ndarray, total: float, budget: float) -> int:
    """First k whose excluded energy total - e[order[0]] - ... - e[order[k-1]],
    subtracted one cell at a time in that order, is at most budget; n if none."""
    excluded = np.empty(e.size)
    excluded[0] = total
    np.take(e, order[:-1], out=excluded[1:], mode="clip")  # in range; "clip" skips the buffered copy
    np.subtract.accumulate(excluded, out=excluded)
    within = excluded <= budget
    return int(within.argmax()) if within.any() else e.size


def energy_centroid(f: Signal) -> float:
    """Energy-weighted mean of the axis variable."""
    e, total = _energy_profile(f, "centroid")
    return float(np.sum(f.axis * e) / total)


def weighted_moment_norm(f: Signal, center: float, alpha: float, q: float) -> float:
    """|| |x - center|^alpha f ||_q on the signal's own axis.

    Samples with f = 0 are skipped: they add exactly 0 to the quadrature sum
    and to the maximum, so only the order of summation differs from the sum
    over all n samples.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"moment exponent must be positive, got {alpha!r}")
    axis, mags = _support(f.axis, np.abs(f.samples))
    return _moment_lq(np.abs(axis - float(center)), mags, f.spacing, alpha, q)


def _support(axis: np.ndarray, mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The axis values and magnitudes at the samples with magnitude |f| > 0: a moment's summands."""
    nonzero = mags > 0
    if nonzero.all():
        return axis, mags
    return axis[nonzero], mags[nonzero]


def _moment_lq(dist: np.ndarray, mags: np.ndarray, spacing: float, alpha: float, q: float) -> float:
    """|| dist^alpha * mags ||_q by quadrature, dist the distances to the moment centre.

    A power past the double range is inf, and so is the norm.
    """
    with np.errstate(over="ignore"):
        weighted = dist**alpha
    weighted *= mags
    return _quadrature_lq(weighted, spacing, q)


def std_dev(f: Signal, center: float | None = None) -> float:
    """Energy spread || |x - center| f ||_2 / ||f||_2; center defaults to the centroid."""
    total = norm_lq(f, 2.0)
    if total == 0.0:
        raise ValueError("spread of the zero signal is undefined")
    if center is None:
        center = energy_centroid(f)
    return weighted_moment_norm(f, center, 1.0, 2.0) / total


def support_mask(f: Signal) -> MaskSet:
    """Cells where |f| exceeds 1e-12 times the peak magnitude."""
    mags = np.abs(f.samples)
    peak = float(mags.max())
    flags = mags > 1e-12 * peak if peak > 0 else np.zeros(f.grid.n, dtype=bool)
    return mask_from_flags(f.grid, f.domain, flags)

"""Time-frequency transforms: Gabor, spectrogram, and Wigner distributions.

All transforms share the grid conventions of :mod:`uplab.core` and produce
n-by-n matrices indexed [time, frequency] with cell weight dx * dw.  Window
shifts are cyclic in the sample index, which makes the energy identity

    ||V_w f||_2 = ||f||_2 ||w||_2

exact for every signal, at the cost of wrap-around for signals with mass near
the grid edge (a documented trade the harness flags).

Every row of V_w f comes from one kernel, ``_gabor_rows``, which builds a
block of rows in FFT order and transforms it.  ``gabor_transform`` runs it
over all n rows.  ``spectrogram_marginals`` runs it over row blocks of at
most ``_BLOCK_BYTES`` and keeps only the two marginal vectors.  It does the
same arithmetic in the same order as ``marginals(spectrogram(f, f, w))``,
forming |V_w f|^2 as conj(V_w f) * V_w f in both, so its profiles are
bit-identical to that dense route at every array size and block height; the
tests use the dense route as the oracle.

The cross-Wigner distribution is

    Wig(f, g)(x, w) = int exp(-2*pi*i*t*w) f(x + t/2) conj(g(x - t/2)) dt,

evaluated on the half-sample lattice via trigonometric 2x upsampling with the
Nyquist bin split symmetrically (real input stays real).  The unpaired extreme
lag is dropped so that Wig(f, g) = conj(Wig(g, f)) holds exactly; in
particular Wig(f, f) is exactly real and its frequency marginal recovers
|f(t_j)|^2 exactly, which the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TIME,
    _BLOCK_BYTES,
    Grid,
    Signal,
    _quadrature_lq,
    boundary_energy_fraction,
    frozen_array,
    signal_from_samples,
)


@dataclass(frozen=True)
class TFMatrix:
    """Complex values on the time-frequency lattice, indexed [time, frequency]."""

    grid: Grid
    values: np.ndarray

    @property
    def cell_weight(self) -> float:
        return self.grid.dx * self.grid.dw


def tfmatrix_from_values(grid: Grid, values) -> TFMatrix:
    arr = frozen_array(values)
    if arr.shape != (grid.n, grid.n):
        raise ValueError(f"expected shape {(grid.n, grid.n)}, got {arr.shape}")
    return TFMatrix(grid, arr)


def gaussian_window(lam: float, grid: Grid) -> Signal:
    """Sample the unit-energy Gaussian (2*lam)^(1/4) exp(-pi*lam*t^2) as a time signal.

    Rejects windows the grid cannot represent: more than 1e-6 of the sampled
    energy within three cells of the edge (too wide), or fewer than four
    samples above half maximum (too narrow).
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"window width must be positive and finite, got {lam!r}")
    t = grid.times
    vals = (2.0 * lam) ** 0.25 * np.exp(-np.pi * lam * t * t)
    signal = signal_from_samples(grid, vals, TIME)
    edge = boundary_energy_fraction(signal)
    if edge > 1e-6:
        raise ValueError(
            f"window lam={lam} is not contained by the grid (edge energy fraction {edge:.2e})"
        )
    above_half = int(np.count_nonzero(vals >= 0.5 * vals.max()))
    if above_half < 4:
        raise ValueError(
            f"window lam={lam} is not resolved by the grid ({above_half} samples above half maximum)"
        )
    return signal


def _check_gabor_args(f: Signal, window: Signal) -> None:
    if f.domain != TIME or window.domain != TIME:
        raise ValueError("Gabor transform expects time-domain signal and window")
    if f.grid != window.grid:
        raise ValueError("signal and window must share a grid")
    if not np.any(window.samples):
        raise ValueError("window must be nonzero")


def _gabor_rows(f: Signal, window: Signal, j0: int, j1: int) -> np.ndarray:
    """Rows j0:j1 of V_w f, as dx * fftshift(fft(.)) of the integrand in FFT order.

    In FFT order the integrand of row j is ifftshift(f)[k] * conj(w[(k - j) mod n]);
    the window gather is a reversed sliding view of conj(w) repeated twice.
    """
    n = f.grid.n
    cw = np.conj(window.samples)
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((cw, cw)), n)
    integrand = np.fft.ifftshift(f.samples)[None, :] * shifts[n - j0 : n - j1 : -1]
    return f.grid.dx * np.fft.fftshift(np.fft.fft(integrand, axis=1), axes=1)


def gabor_transform(f: Signal, window: Signal) -> TFMatrix:
    """V_w f(x_j, w_k) = dx * sum_m exp(-2*pi*i*t_m*w_k) f(t_m) conj(w(t_m - x_j)).

    The window is shifted cyclically, one FFT per time shift.
    """
    _check_gabor_args(f, window)
    return tfmatrix_from_values(f.grid, _gabor_rows(f, window, 0, f.grid.n))


def spectrogram_marginals(f: Signal, window: Signal) -> tuple[np.ndarray, np.ndarray]:
    """marginals(spectrogram(f, f, window)), streamed over row blocks of V_w f.

    Each block's |V_w f|^2 rows are formed as conj(v) * v, the product order
    of `spectrogram`, and summed as the dense route sums them (per row along
    frequency; row by row into the frequency accumulator), so both profiles
    are bit-identical to the dense ones for any block height while only one
    block is held.
    """
    _check_gabor_args(f, window)
    n = f.grid.n
    step = max(1, _BLOCK_BYTES // (16 * n))
    row_sums = np.empty(n, dtype=np.complex128)
    col_sum = np.zeros(n, dtype=np.complex128)
    for j0 in range(0, n, step):
        v = _gabor_rows(f, window, j0, min(j0 + step, n))
        block = np.conj(v)
        block *= v
        row_sums[j0 : j0 + step] = block.sum(axis=1)
        for row in block:
            col_sum += row
    return f.grid.dw * row_sums, f.grid.dx * col_sum


def tf_norm_lp(m: TFMatrix, p: float) -> float:
    """Quadrature L^p norm on the plane, (dx*dw*sum |m|^p)^(1/p); max at p = inf."""
    return _quadrature_lq(np.abs(m.values), m.cell_weight, p)


def spectrogram(f: Signal, g: Signal, window: Signal) -> TFMatrix:
    """Two-window spectrogram V_w f * conj(V_w g); real and nonnegative for g = f.

    When g is f the transform is computed once and reused.  The product is
    formed as conj(V_w g) * V_w f at every size, so its rounding does not
    depend on whether numpy reuses a temporary operand in place.
    """
    vf = gabor_transform(f, window)
    vg = vf if g is f else gabor_transform(g, window)
    return tfmatrix_from_values(f.grid, np.conj(vg.values) * vf.values)


def marginals(m: TFMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Axis sums (time profile, frequency profile) with the dual-cell weights.

    Profiles are returned as complex vectors: for a spectrogram or Wigner
    matrix of a pair (f, g) with g != f the marginals are genuinely complex,
    and callers compare their moduli.  For g = f they are real up to rounding.
    """
    time_profile = m.grid.dw * m.values.sum(axis=1)
    freq_profile = m.grid.dx * m.values.sum(axis=0)
    return time_profile, freq_profile


def trig_upsample2(values: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant on the half-sample lattice.

    Output index p corresponds to position (p - n) * dx / 2 when the input
    index m sits at (m - n/2) * dx; even outputs reproduce the inputs exactly.
    The Nyquist bin is split evenly so real input yields real output.
    """
    n = values.shape[-1]
    spec = np.fft.fft(values, axis=-1)
    shape = list(values.shape)
    shape[-1] = 2 * n
    out = np.zeros(shape, dtype=np.complex128)
    half = n // 2
    out[..., :half] = spec[..., :half]
    out[..., half] = 0.5 * spec[..., half]
    out[..., 2 * n - half] = 0.5 * spec[..., half]
    out[..., 2 * n - half + 1 :] = spec[..., half + 1 :]
    return 2.0 * np.fft.ifft(out, axis=-1)


def wigner(f: Signal, g: Signal | None = None) -> TFMatrix:
    """Cross-Wigner distribution of (f, g); auto-Wigner of f when g is omitted."""
    if g is None:
        g = f
    if f.domain != TIME or g.domain != TIME:
        raise ValueError("Wigner distribution expects time-domain signals")
    if f.grid != g.grid:
        raise ValueError("signals must share a grid")
    n = f.grid.n
    # r[j, m2] = f2[2j + m2 - n] * conj(g2[2j - m2 + n]), zero where either
    # half-sample index leaves [0, 2n): strided windows over the zero-padded
    # f2 and the reversed zero-padded conj(g2)
    pad = np.zeros(n, dtype=np.complex128)
    fp = np.concatenate((pad, trig_upsample2(f.samples), pad))
    gr = np.concatenate((pad, np.conj(trig_upsample2(g.samples)), pad))[::-1]
    windows = np.lib.stride_tricks.sliding_window_view
    r = windows(fp, 2 * n)[0 : 2 * n : 2] * windows(gr, 2 * n)[2 * n - 1 :: -2]
    r[:, 0] = 0.0  # unpaired extreme lag, dropped to keep Hermitian symmetry exact
    folded = r[:, :n] + r[:, n:]
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vals = f.grid.dx * np.fft.fft(folded * sign[None, :], axis=1)
    if g is f or g.samples is f.samples:
        vals = vals.real.astype(np.complex128)
    return tfmatrix_from_values(f.grid, vals)

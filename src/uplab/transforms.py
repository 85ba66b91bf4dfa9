"""Time-frequency transforms: Gabor, spectrogram marginals, and Wigner distributions.

All transforms share the grid conventions of :mod:`uplab.core` and produce
n-by-n matrices indexed [time, frequency] with cell weight dx * dw.  Window
shifts are cyclic in the sample index, which makes the energy identity

    ||V_w f||_2 = ||f||_2 ||w||_2

exact for every signal, at the cost of wrap-around for signals with mass near
the grid edge (a documented trade the harness flags).

Every row of V_w f comes from one kernel, ``_gabor_rows``, which builds a
block of rows in FFT order in a buffer its caller passes and transforms it.
``gabor_transform`` runs it over all n rows.  ``spectrogram_marginals`` runs
it over row blocks of at most ``_BLOCK_BYTES`` and keeps only the two
marginal vectors.  The dense spectrogram conj(V_w f) * V_w f and its
``marginals`` live in the tests as the oracle: the streamed profiles do the
same arithmetic in the same order, so they are bit-identical to it at every
array size and block height.

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


def _gabor_rows(f: Signal, window: Signal, j0: int, out: np.ndarray) -> np.ndarray:
    """Rows j0:j0 + len(out) of V_w f, as dx * fftshift(fft(.)) of the integrand in FFT order.

    In FFT order the integrand of row j is ifftshift(f)[k] * conj(w[(k - j) mod n]);
    the window gather is a reversed sliding view of conj(w) repeated twice.
    ``out`` holds the integrand, then the rows: the fftshift and the dx
    scaling are taken as one product per half row.  The FFT output is the
    only array allocated.
    """
    n, half = f.grid.n, f.grid.n // 2
    j1 = j0 + out.shape[0]
    cw = np.conj(window.samples)
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((cw, cw)), n)
    np.multiply(np.fft.ifftshift(f.samples)[None, :], shifts[n - j0 : n - j1 : -1], out=out)
    spectrum = np.fft.fft(out, axis=1)
    np.multiply(f.grid.dx, spectrum[:, half:], out=out[:, :half])
    np.multiply(f.grid.dx, spectrum[:, :half], out=out[:, half:])
    return out


def gabor_transform(f: Signal, window: Signal) -> TFMatrix:
    """V_w f(x_j, w_k) = dx * sum_m exp(-2*pi*i*t_m*w_k) f(t_m) conj(w(t_m - x_j)).

    The window is shifted cyclically, one FFT per time shift.
    """
    _check_gabor_args(f, window)
    n = f.grid.n
    values = _gabor_rows(f, window, 0, np.empty((n, n), dtype=np.complex128))
    values.setflags(write=False)
    return TFMatrix(f.grid, values)


def spectrogram_marginals(f: Signal, window: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Time and frequency marginals of the spectrogram |V_w f|^2, streamed over row blocks.

    Each block's |V_w f|^2 rows are formed as conj(v) * v and summed as the
    dense spectrogram's ``marginals`` sums them (per row along frequency; row
    by row into the frequency accumulator), so both profiles are bit-identical
    to that dense route, the tests' oracle, for any block height while only
    one block is held.  The row and |v|^2 buffers are reused across blocks.
    """
    _check_gabor_args(f, window)
    n = f.grid.n
    step = max(1, _BLOCK_BYTES // (16 * n))
    # one allocation for both buffers: with glibc, two separate ones let the
    # heap be trimmed and faulted in again on every call (measured at n = 256)
    rows, power = np.empty((2, min(step, n), n), dtype=np.complex128)
    row_sums = np.empty(n, dtype=np.complex128)
    col_sum = np.zeros(n, dtype=np.complex128)
    for j0 in range(0, n, step):
        count = min(step, n - j0)
        v = _gabor_rows(f, window, j0, rows[:count])
        block = np.conj(v, out=power[:count])
        block *= v
        row_sums[j0 : j0 + step] = block.sum(axis=1)
        for row in block:
            col_sum += row
    return f.grid.dw * row_sums, f.grid.dx * col_sum


def tf_norm_lp(m: TFMatrix, p: float) -> float:
    """Quadrature L^p norm on the plane, (dx*dw*sum |m|^p)^(1/p); max at p = inf."""
    return _quadrature_lq(np.abs(m.values), m.cell_weight, p)


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
    del r  # the n-by-2n product is the largest array; free it before the transform
    folded *= np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vals = f.grid.dx * np.fft.fft(folded, axis=1)
    if g is f or g.samples is f.samples:
        vals = vals.real.astype(np.complex128)
    vals.setflags(write=False)
    return TFMatrix(f.grid, vals)

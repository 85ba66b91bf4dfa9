"""Time-frequency transforms: Gabor, spectrogram masses, and Wigner distributions.

All transforms share the grid conventions of :mod:`uplab.core` and produce
n-by-n matrices indexed [time, frequency] with cell weight dx * dw.  Window
shifts are cyclic in the sample index, which makes the energy identity

    ||V_w f||_2 = ||f||_2 ||w||_2

exact for every signal, at the cost of wrap-around for signals with mass near
the grid edge (a documented trade the harness flags).

Every row of V_w f comes from one kernel, ``_gabor_rows``, which builds a
block of rows in FFT order in a buffer its caller passes and transforms the
rows whose integrand is not identically zero; a shift whose window meets no
nonzero sample of f (tails that underflow to 0.0 on a wide grid) leaves a
zero row, which is its exact transform.  ``gabor_transform`` runs it over
all n rows.  ``spectrogram_masses`` runs it over row blocks of at most
``_BLOCK_BYTES`` and keeps only the spectrogram's masses on a time set and a
frequency set, computing |V_w f|^2 only on the rows and columns those sums
read.  The dense spectrogram conj(V_w f) * V_w f and its ``marginals`` live
in the tests as the oracle: the stream does the same arithmetic in the same
order on every cell it keeps, so both masses are bit-identical to it at
every array size and block height.

The cross-Wigner distribution is

    Wig(f, g)(x, w) = int exp(-2*pi*i*t*w) f(x + t/2) conj(g(x - t/2)) dt,

evaluated on the half-sample lattice via trigonometric 2x upsampling with the
Nyquist bin split symmetrically (real input stays real).  The unpaired extreme
lag is dropped so that Wig(f, g) = conj(Wig(g, f)) holds exactly; in
particular Wig(f, f) is exactly real and its frequency marginal recovers
|f(t_j)|^2 exactly, which the tests pin.  One builder of its lag products serves
``wigner`` and the Weyl route of :mod:`uplab.operators`: it folds them in row
blocks straight into the one n-by-n array it returns, in the row order its caller
asks for, and ``wigner`` transforms that array in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TIME,
    _BLOCK_BYTES,
    Grid,
    Signal,
    _finite_array,
    _quadrature_lq,
    boundary_energy_fraction,
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
    return TFMatrix(grid, _finite_array(values, (grid.n, grid.n), "time-frequency values"))


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


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of True in a boolean vector, in order."""
    edges = np.flatnonzero(np.concatenate(([False], flags)) != np.concatenate((flags, [False]))).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _gabor_operands(f: Signal, window: Signal) -> tuple[np.ndarray, np.ndarray]:
    """ifftshift(f) and the window gather of ``_gabor_rows``, built once per transform.

    Row n - j of the gather is conj(w[(k - j) mod n]) over k: a reversed
    sliding view of conj(w) repeated twice, so it allocates 2n samples only.
    """
    n = f.grid.n
    cw = np.conj(window.samples)
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((cw, cw)), n)
    return np.fft.ifftshift(f.samples), shifts


def _gabor_rows(fz: np.ndarray, shifts: np.ndarray, dx: float, j0: int, out: np.ndarray) -> np.ndarray:
    """Rows j0:j0 + len(out) of V_w f, as dx * fftshift(fft(.)) of the integrand in FFT order.

    In FFT order the integrand of row j is fz[k] * shifts[n - j][k], with
    (fz, shifts) from ``_gabor_operands``.  ``out`` holds the integrand,
    then the rows: the fftshift and the dx scaling are taken as one product
    per half row.  A row whose integrand is identically zero is already its
    transform, so only the runs of live rows are transformed; their FFT
    outputs are the only row-sized arrays allocated.  Returns the live-row
    flags.
    """
    n, half = fz.shape[0], fz.shape[0] // 2
    j1 = j0 + out.shape[0]
    np.multiply(fz[None, :], shifts[n - j0 : n - j1 : -1], out=out)
    live = out.view(np.float64).any(axis=1)
    for a, b in _runs(live):
        spectrum = np.fft.fft(out[a:b], axis=1)
        np.multiply(dx, spectrum[:, half:], out=out[a:b, :half])
        np.multiply(dx, spectrum[:, :half], out=out[a:b, half:])
    return live


def gabor_transform(f: Signal, window: Signal) -> TFMatrix:
    """V_w f(x_j, w_k) = dx * sum_m exp(-2*pi*i*t_m*w_k) f(t_m) conj(w(t_m - x_j)).

    The window is shifted cyclically, one FFT per time shift that meets f.
    """
    _check_gabor_args(f, window)
    n = f.grid.n
    values = np.empty((n, n), dtype=np.complex128)
    _gabor_rows(*_gabor_operands(f, window), f.grid.dx, 0, values)
    values.setflags(write=False)
    return TFMatrix(f.grid, values)


def _leading(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols cells of a contiguous buffer, as a rows-by-cols view."""
    return buffer.reshape(-1)[: rows * cols].reshape(rows, cols)


def spectrogram_masses(f: Signal, window: Signal, time_set, freq_set) -> tuple[complex, complex]:
    """Masses of the spectrogram |V_w f|^2 on a time set T and a frequency set Omega.

    With (time_profile, freq_profile) the ``marginals`` of the dense
    spectrogram, returns dx * sum_{j in T} time_profile[j] and
    dw * sum_{k in Omega} freq_profile[k]; T and Omega are boolean flags
    over the time and frequency samples.  V_w f is streamed in row blocks of
    at most ``_BLOCK_BYTES``, of which ``_gabor_rows`` transforms only the
    shifts that meet f.
    |V_w f|^2 is formed as conj(v) * v on the rows of T, each summed along
    frequency, and on the Omega columns of the live rows, added row by row
    in ascending time.  That is the dense route's arithmetic in its order,
    and every skipped cell would add an exact zero, so both masses are
    bit-identical to it, the tests' oracle.  The row and |v|^2 buffers are
    reused across blocks: the gathered Omega columns go to the |v|^2 buffer,
    their |v|^2 over the rows they were read from, and its running sum down
    the rows back to the |v|^2 buffer.
    """
    _check_gabor_args(f, window)
    grid = f.grid
    n = grid.n
    time_set, freq_set = np.asarray(time_set, dtype=bool), np.asarray(freq_set, dtype=bool)
    if time_set.shape != (n,) or freq_set.shape != (n,):
        raise ValueError(f"sets must flag the {n} grid samples, got shapes {time_set.shape} and {freq_set.shape}")
    cols = np.flatnonzero(freq_set)
    step = max(1, _BLOCK_BYTES // (16 * n))
    # one allocation for both buffers: with glibc, two separate ones let the
    # heap be trimmed and faulted in again on every call (measured at n = 256)
    rows, power = np.empty((2, min(step, n), n), dtype=np.complex128)
    row_sums = np.zeros(np.count_nonzero(time_set), dtype=np.complex128)
    col_sum = np.zeros(cols.size, dtype=np.complex128)
    operands = _gabor_operands(f, window)
    done = 0  # rows of T summed so far
    for j0 in range(0, n, step):
        v = rows[: min(step, n - j0)]
        live = _gabor_rows(*operands, grid.dx, j0, v)
        for s, e in _runs(time_set[j0 : j0 + len(v)]):
            block = np.conj(v[s:e], out=power[: e - s])
            block *= v[s:e]
            row_sums[done : done + e - s] = block.sum(axis=1)
            done += e - s
        for s, e in _runs(live):
            # mode="clip" writes straight into out; the default mode buffers it
            picked = np.take(v[s:e], cols, axis=1, out=_leading(power, e - s, cols.size), mode="clip")
            block = np.conj(picked, out=_leading(v[s:e], e - s, cols.size))
            block *= picked
            # a running sum down the rows: col_sum + row 0 + row 1 + ..., in that order
            block[0] += col_sum
            col_sum[:] = np.add.accumulate(block, axis=0, out=picked)[-1]
    return grid.dx * np.sum(grid.dw * row_sums), grid.dw * np.sum(grid.dx * col_sum)


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


def _wigner_lags(f: Signal, g: Signal, shift: int) -> np.ndarray:
    """Folded lag products F[j, m] = r[j, m] + r[j, m + n] of Wig(f, g) = dx * fft((-1)^m F, axis=1),
    r[j, m2] = f2[2j + m2 - n] * conj(g2[2j - m2 + n]) on the upsamplings, 0 outside [0, 2n).

    Row j of F is written to row (j + shift) mod n of the result, 0 <= shift < n, so a
    caller that needs ifftshift(F, axes=0) passes shift = n/2 and makes no copy.  The
    n-by-2n r is formed in row blocks of at most ``_BLOCK_BYTES`` and folded straight
    into the result, which is the only n-by-n array allocated."""
    if f.domain != TIME or g.domain != TIME:
        raise ValueError("Wigner distribution expects time-domain signals")
    if f.grid != g.grid:
        raise ValueError("signals must share a grid")
    n = f.grid.n
    pad = np.zeros(n, dtype=np.complex128)
    fp = np.concatenate((pad, trig_upsample2(f.samples), pad))
    gr = np.concatenate((pad, np.conj(trig_upsample2(g.samples)), pad))[::-1]
    windows = np.lib.stride_tricks.sliding_window_view
    fw, gw = windows(fp, 2 * n)[0 : 2 * n : 2], windows(gr, 2 * n)[2 * n - 1 :: -2]
    step = max(1, _BLOCK_BYTES // (32 * n))
    r = np.empty((min(step, n), 2 * n), dtype=np.complex128)
    folded = np.empty((n, n), dtype=np.complex128)
    # blocks stop where the destination rows wrap, so each lands in one contiguous slice
    for start, stop in ((0, n - shift), (n - shift, n)):
        for j0 in range(start, stop, step):
            j1 = min(j0 + step, stop)
            block = np.multiply(fw[j0:j1], gw[j0:j1], out=r[: j1 - j0])
            block[:, 0] = 0.0  # unpaired extreme lag, dropped to keep Hermitian symmetry exact
            d0 = (j0 + shift) % n
            np.add(block[:, :n], block[:, n:], out=folded[d0 : d0 + j1 - j0])
    return folded


def wigner(f: Signal, g: Signal | None = None) -> TFMatrix:
    """Cross-Wigner distribution of (f, g); auto-Wigner of f when g is omitted."""
    if g is None:
        g = f
    vals = _wigner_lags(f, g, 0)
    vals *= np.where(np.arange(f.grid.n) % 2 == 0, 1.0, -1.0)
    np.fft.fft(vals, axis=1, out=vals)
    np.multiply(f.grid.dx, vals, out=vals)
    if g is f or g.samples is f.samples:
        vals.imag = 0.0
    vals.setflags(write=False)
    return TFMatrix(f.grid, vals)

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
all n rows.  ``spectrogram_masses`` runs it only over the shifts that the
cyclic hulls of the supports of f and w allow, in chunks of rows on one
thread, or on two when the process may use two CPUs and the stream fills
more than one block of ``_BLOCK_BYTES``.  It keeps only the spectrogram's
masses on a time set and a frequency set, computing |V_w f|^2 only on the
rows and columns those sums read: each row of T is summed into its own slot,
and the frequency columns are added down the rows one chunk at a time in
ascending time, the only step the two threads take in turn.  The dense
spectrogram conj(V_w f) * V_w f and its ``marginals`` live in the tests as
the oracle: the stream does the same arithmetic in the same order on every
cell it keeps, so both masses are bit-identical to it at every array size,
block height and thread count.

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

import os
import threading
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


def _gabor_rows(
    fz: np.ndarray, shifts: np.ndarray, dx: float, j0: int, out: np.ndarray, spectrum: np.ndarray | None
) -> np.ndarray:
    """Rows j0:j0 + len(out) of V_w f, as dx * fftshift(fft(.)) of the integrand in FFT order.

    In FFT order the integrand of row j is fz[k] * shifts[n - j][k], with
    (fz, shifts) from ``_gabor_operands``.  ``out`` holds the integrand,
    then the rows: the fftshift and the dx scaling are taken as one product
    per half row.  A row whose integrand is identically zero is already its
    transform, so only the runs of live rows are transformed, each into the
    same rows of ``spectrum``, a buffer shaped like ``out`` (or into a new
    array when it is None).  Returns the (start, stop) runs of live rows.
    """
    n, half = fz.shape[0], fz.shape[0] // 2
    j1 = j0 + out.shape[0]
    np.multiply(fz[None, :], shifts[n - j0 : n - j1 : -1], out=out)
    live = _runs(out.view(np.float64).any(axis=1))
    for a, b in live:
        transformed = np.fft.fft(out[a:b], axis=1, out=None if spectrum is None else spectrum[a:b])
        np.multiply(dx, transformed[:, half:], out=out[a:b, :half])
        np.multiply(dx, transformed[:, :half], out=out[a:b, half:])
    return live


def _cyclic_hull(samples: np.ndarray) -> tuple[int, int]:
    """(start, length) of the shortest cyclic run of indices that holds every nonzero sample; (0, 0) if none."""
    nonzero = np.flatnonzero(samples)
    if nonzero.size == 0:
        return 0, 0
    # the gap from each nonzero index to the next, cyclically; the hull is the circle less the largest
    gaps = np.diff(nonzero, append=nonzero[0] + samples.size)
    i = int(np.argmax(gaps))
    return int(nonzero[(i + 1) % nonzero.size]), samples.size + 1 - int(gaps[i])


def _candidate_runs(f: Signal, window: Signal) -> list[tuple[int, int]]:
    """Ascending (start, stop) runs of the shifts whose window can meet f: a superset of the live rows.

    Row j of ``_gabor_rows`` pairs f[p] with conj(w[q]) where j = p - q - n/2 (mod n).
    With f and w nonzero only on the cyclic hulls [a, a + lf) and [b, b + lw), a
    live j lies on the cyclic run of lf + lw - 1 shifts from a - b - lw + 1 - n/2.
    """
    n = f.grid.n
    (a, lf), (b, lw) = _cyclic_hull(f.samples), _cyclic_hull(window.samples)
    if lf == 0:
        return []
    if lf + lw - 1 >= n:
        return [(0, n)]
    start = (a - b - lw + 1 - n // 2) % n
    stop = start + lf + lw - 1
    return [(start, stop)] if stop <= n else [(0, stop - n), (start, n)]


def gabor_transform(f: Signal, window: Signal) -> TFMatrix:
    """V_w f(x_j, w_k) = dx * sum_m exp(-2*pi*i*t_m*w_k) f(t_m) conj(w(t_m - x_j)).

    The window is shifted cyclically, one FFT per time shift that meets f.
    """
    _check_gabor_args(f, window)
    n = f.grid.n
    values = np.empty((n, n), dtype=np.complex128)
    _gabor_rows(*_gabor_operands(f, window), f.grid.dx, 0, values, None)
    values.setflags(write=False)
    return TFMatrix(f.grid, values)


def _leading(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols cells of a contiguous buffer, as a rows-by-cols view."""
    return buffer.reshape(-1)[: rows * cols].reshape(rows, cols)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spectrogram_masses(f: Signal, window: Signal, time_set, freq_set) -> tuple[complex, complex]:
    """Masses of the spectrogram |V_w f|^2 on a time set T and a frequency set Omega.

    With (time_profile, freq_profile) the ``marginals`` of the dense
    spectrogram, returns dx * sum_{j in T} time_profile[j] and
    dw * sum_{k in Omega} freq_profile[k]; T and Omega are boolean flags
    over the time and frequency samples.  Only the shifts on the cyclic run
    that the hulls of the supports of f and w allow are streamed, in chunks
    of rows, and of those ``_gabor_rows`` transforms only the rows that meet f.
    |V_w f|^2 is formed as conj(v) * v on the rows of T, each summed along
    frequency into its own slot, and on the Omega columns of the live rows,
    added row by row in ascending time.  That is the dense route's arithmetic
    in its order, and every skipped cell would add an exact zero, so both
    masses are bit-identical to it, the tests' oracle.

    When the process may use more than one CPU and the candidate shifts fill
    more than one block of ``_BLOCK_BYTES`` rows, a second thread takes every
    other chunk, and each thread's chunks are half a block high.  Each thread
    reuses its own row and |v|^2 buffers: an FFT writes to the |v|^2 buffer,
    the gathered Omega columns go there too, and their |v|^2 to the row
    buffer.  Only the running sum down the Omega columns is ordered: it takes
    one chunk at a time, in ascending time, under a condition.  An exception
    in either thread stops both, and the helper is joined before it is raised.
    """
    _check_gabor_args(f, window)
    grid = f.grid
    n = grid.n
    time_set, freq_set = np.asarray(time_set, dtype=bool), np.asarray(freq_set, dtype=bool)
    if time_set.shape != (n,) or freq_set.shape != (n,):
        raise ValueError(f"sets must flag the {n} grid samples, got shapes {time_set.shape} and {freq_set.shape}")
    cols = np.flatnonzero(freq_set)
    slots = np.concatenate(([0], np.cumsum(time_set)))  # the sum of row j of T goes to row_sums[slots[j]]
    row_sums = np.zeros(slots[-1], dtype=np.complex128)
    col_sum = np.zeros(cols.size, dtype=np.complex128)
    operands = _gabor_operands(f, window)
    runs = _candidate_runs(f, window)
    step = max(1, _BLOCK_BYTES // (16 * n))
    threads = 2 if step > 1 and sum(e - s for s, e in runs) > step and _usable_cpus() > 1 else 1
    height = step // threads
    chunks = [(j0, min(j0 + height, e)) for s, e in runs for j0 in range(s, e, height)]
    # one allocation for all buffers: with glibc, separate ones let the heap be
    # trimmed and faulted in again on every call (measured at n = 256)
    buffers = np.empty((threads, 2, min(height, n), n), dtype=np.complex128)
    turn = threading.Condition()
    summed = 0  # chunks added to col_sum, in order; -1 once a thread has failed
    errors = []

    def stream(k: int) -> None:
        nonlocal summed
        rows, power = buffers[k]
        for i in range(k, len(chunks), threads):
            j0, j1 = chunks[i]
            v = rows[: j1 - j0]
            live = _gabor_rows(*operands, grid.dx, j0, v, power[: j1 - j0])
            for s, e in _runs(time_set[j0:j1]):
                block = np.conj(v[s:e], out=power[: e - s])
                block *= v[s:e]
                row_sums[slots[j0 + s] : slots[j0 + e]] = block.sum(axis=1)
            count = sum(e - s for s, e in live)
            picked, at = _leading(power, count, cols.size), 0
            for s, e in live:
                # mode="clip" writes straight into out; the default mode buffers it
                np.take(v[s:e], cols, axis=1, out=picked[at : at + e - s], mode="clip")
                at += e - s
            block = np.conj(picked, out=_leading(rows, count, cols.size))
            block *= picked
            with turn:
                turn.wait_for(lambda: summed in (i, -1))
                if summed < 0:
                    return
                if count:
                    # a running sum down the rows: col_sum + row 0 + row 1 + ..., in that order
                    block[0] += col_sum
                    col_sum[:] = np.add.accumulate(block, axis=0, out=picked)[-1]
                summed = i + 1
                turn.notify_all()

    def guarded(k: int) -> None:
        nonlocal summed
        try:
            stream(k)
        except BaseException as exc:
            errors.append(exc)
            with turn:
                summed = -1
                turn.notify_all()

    if threads == 1:
        stream(0)
    else:
        helper = threading.Thread(target=guarded, args=(1,))
        helper.start()
        guarded(0)
        helper.join()
        if errors:
            raise errors[0]
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

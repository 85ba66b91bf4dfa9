"""Dense linear operators: smoothed concentration, localization, Weyl.

Operators are materialized as n-by-n complex matrices acting on time-domain
sample vectors, g = M f.  With uniform quadrature weights the operator norm
with respect to the weighted L^2 inner product equals the largest Euclidean
singular value of M, so norms can be cross-checked against a full SVD.  Each
assembly gathers its matrix once from a kernel tabulated by row and cyclic lag
(``_lag_operator``) and freezes it in place; ``linear_op`` copies its input and
refuses non-finite entries.  Every assembly holds at most two n-by-n arrays, the
kernel and the gathered matrix: its FFTs are taken in place, and its row-block
buffers (the Wigner fold's, the half-lag phases') are sized by ``_BLOCK_BYTES``.
``operator_norm`` holds two as well, the caller's matrix and its Gram matrix, which
it builds from column blocks of the same size.
Without a matrix, a smoothed time symbol multiplies time samples, and
``apply_freq_symbol`` multiplies a spectrum by a frequency symbol on the same grid and transforms back.

The Weyl quantization evaluates the symbol at half-sample midpoints,

    (Op(a) f)(x) = int int exp(2*pi*i*(x - y)*w) a((x + y)/2, w) f(y) dy dw,

as a half-lag phase shift: the lag kernel of a tabulated symbol at lag l is
shifted by -l/2 samples along time by trigonometric interpolation.  Because
the frequency quadrature has spacing dw, the lag kernel is periodic with
period n*dx; lags are therefore wrapped into [-n/2, n/2], which is the
periodization of the continuum kernel.  This keeps purely-time symbols exactly
diagonal, purely-frequency symbols exactly the conjugated multiplier, and
matches the localization operator picture for contained data.  The assembly
takes the symbol's lag spectrum; a localization operator's is a product of two.
A symbol with more than 1e-8 of its lag energy in the Nyquist row is refused at
any scale: sums of |lags|^2 that overflow are taken again on rescaled rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .concentration import MaskSet
from .core import FREQUENCY, TIME, _BLOCK_BYTES, Grid, Signal, _edge_mass, _finite_array, fourier, signal_from_samples
from .transforms import TFMatrix, _wigner_lags


class PowerIterationError(RuntimeError):
    """Raised when the operator-norm iteration fails to converge."""


@dataclass(frozen=True)
class LinearOp:
    """Dense n-by-n operator on the time-domain samples of a grid, as a frozen matrix."""

    grid: Grid
    matrix: np.ndarray


def linear_op(grid: Grid, matrix) -> LinearOp:
    return LinearOp(grid, _finite_array(matrix, (grid.n, grid.n), "operator matrix"))


def _lag_operator(grid: Grid, kern: np.ndarray, scale: float) -> LinearOp:
    """Frozen operator with entry (m, m') = scale * (-1)^d * kern[m, d], d = (m - m') mod n
    (n is even); kern, one row per sample or one row for a circulant, is scaled in place."""
    n = grid.n
    kern *= scale * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    # a view, so the matrix is the only n-by-n array built: window s over
    # v[k] = (n-1-k) mod n reads v[s + m'] = (m - m') mod n at m = n-1-s
    lags = np.lib.stride_tricks.sliding_window_view(np.arange(n - 1, -n, -1) % n, n)[::-1]
    matrix = np.take_along_axis(kern, lags, axis=1)
    matrix.setflags(write=False)
    return LinearOp(grid, matrix)


@dataclass(frozen=True)
class SmoothedSymbol:
    """Values in [0, 1] of a Gaussian-smoothed mask indicator, or of the sharp one, one per cell of one axis."""

    grid: Grid
    axis: str
    values: np.ndarray


def gaussian_smoothed_indicator(mask: MaskSet, lam: float) -> SmoothedSymbol:
    """Convolve a mask indicator with the unit-mass Gaussian kernel for lam.

    On the time axis the kernel rate is mu = 2*lam, on the frequency axis
    mu = 2/lam, so the two families sharpen toward the raw indicators as
    lam grows (time) or shrinks (frequency).  The sampled kernel is
    renormalized to unit discrete mass, which keeps the smoothed values in
    [0, 1] exactly and lets arbitrarily narrow kernels degrade gracefully to
    the identity.  A kernel too wide for the grid (more than 1e-6 of its mass
    within three cells of the edge) is rejected.
    """
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"smoothing parameter must be positive and finite, got {lam!r}")
    grid = mask.grid
    mu = 2.0 * lam if mask.axis == TIME else 2.0 / lam
    h = grid.spacing(mask.axis)
    x = grid.axis(mask.axis)
    kernel = np.sqrt(mu) * np.exp(-np.pi * mu * x * x)
    mass = float(kernel.sum())
    edge = _edge_mass(kernel) / mass
    if edge > 1e-6:
        raise ValueError(
            f"smoothing kernel (mu={mu:.4g}) is not contained by the {mask.axis} axis "
            f"(edge mass fraction {edge:.2e})"
        )
    kernel = kernel / (h * mass)
    # np.multiply, not *: at large n, * may reuse the kernel's temporary with the operands swapped,
    # and numpy's SIMD complex product rounds a * b and b * a differently
    conv = np.fft.ifft(np.multiply(mask.flags_fft, np.fft.fft(np.fft.ifftshift(kernel))))
    values = np.clip(h * conv.real, 0.0, 1.0)
    values.setflags(write=False)
    return SmoothedSymbol(grid, mask.axis, values)


def apply_freq_symbol(sym: SmoothedSymbol, fhat: Signal) -> Signal:
    """Fourier multiplier on the spectrum fhat of f: multiply by the smoothed values, invert to time."""
    if sym.axis != FREQUENCY or fhat.domain != FREQUENCY:
        raise ValueError("frequency symbol application requires a spectrum and a frequency symbol")
    if sym.grid != fhat.grid:
        raise ValueError("symbol and spectrum must share a grid")
    return fourier(signal_from_samples(fhat.grid, sym.values * fhat.samples, FREQUENCY))


def smoothed_concentration_ops(
    mask_t: MaskSet, mask_w: MaskSet, lam1: float, lam2: float
) -> tuple[LinearOp, LinearOp]:
    """Dense (L1, L2): multiplication by the smoothed time indicator, and the
    conjugated multiplier for the smoothed frequency indicator."""
    if mask_t.axis != TIME or mask_w.axis != FREQUENCY:
        raise ValueError("expected a time mask and a frequency mask")
    if mask_t.grid != mask_w.grid:
        raise ValueError("masks must share a grid")
    grid = mask_t.grid
    sym1 = gaussian_smoothed_indicator(mask_t, lam1)
    sym2 = gaussian_smoothed_indicator(mask_w, lam2)
    l1 = np.diag(sym1.values.astype(np.complex128))
    l1.setflags(write=False)
    # F^-1 diag(v) F is the circulant (-1)^d ifft(v)[d]: dx * dw = 1/n, and centring alternates signs
    return LinearOp(grid, l1), _lag_operator(grid, np.fft.ifft(sym2.values)[None, :], 1.0)


def localization_operator(symbol: TFMatrix, phi: Signal, psi: Signal) -> LinearOp:
    """Anti-Wick style operator: analyze with phi, weight by the symbol, rebuild with psi.

    Weakly, (L f, g) = sum_cells a * V_phi f * conj(V_psi g) * dx * dw, which
    the tests verify directly.  With B = n * ifft(a, axis=1) the row DFT of the
    symbol, the entry at lag d = (m - m') mod n is

        L[m, m'] = dx^2 dw (-1)^d sum_j psi[(m-j+n/2) mod n] conj(phi[(m'-j+n/2) mod n]) B[j, d],

    a cyclic convolution over the time shift j for each lag, so assembly is a
    few n-by-n FFT passes: O(n^2 log n).
    """
    if phi.domain != TIME or psi.domain != TIME:
        raise ValueError("windows must be time-domain signals")
    if symbol.grid != phi.grid or phi.grid != psi.grid:
        raise ValueError("symbol and windows must share a grid")
    grid = symbol.grid
    n, n2 = grid.n, grid.n // 2
    # window products G[u, d] = conj(phi[(u-d+n/2) mod n]) psi[(u+n/2) mod n], as in _gabor_rows
    cphi = np.conj(np.roll(phi.samples, -n2))
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((cphi, cphi))[::-1], n)
    conv = shifts[n - 1 :: -1] * np.roll(psi.samples, -n2)[:, None]
    np.fft.fft(conv, axis=0, out=conv)
    spectrum = np.fft.ifft(symbol.values, axis=1)
    conv *= np.fft.fft(spectrum, axis=0, out=spectrum)
    del spectrum  # freed before the matrix is gathered: conv and the matrix are the two n-by-n arrays
    np.fft.ifft(conv, axis=0, out=conv)
    return _lag_operator(grid, conv, n * grid.dx * grid.dx * grid.dw)


def weyl_operator(symbol: TFMatrix) -> LinearOp:
    """Weyl quantization of a tabulated symbol a(x, w).

    The kernel at row m and wrapped lag l in [-n/2, n/2] is the lag kernel
    B = n * dw * ifft(a, axis=1) at column l, evaluated at x_m - l*dx/2, so
    each lag column is a trigonometric shift of B by -l/2 samples along time.
    The Nyquist row of that shift is split symmetrically, and symbols with
    more than 1e-8 of their energy in it are rejected.
    """
    return _weyl_assembly(symbol.grid, _symbol_lags(symbol.values))


def _symbol_lags(values: np.ndarray) -> np.ndarray:
    """A tabulated symbol's lag spectrum ifft(fft(a, axis=0), axis=1), both FFTs taken in one array.

    Finite entries whose sums pass the double range give a non-finite spectrum, which
    ``_weyl_assembly`` refuses with one ValueError; numpy's own warnings are silenced here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lags = np.fft.fft(values, axis=0)
        return np.fft.ifft(lags, axis=1, out=lags)


def _weyl_assembly(grid: Grid, lags: np.ndarray) -> LinearOp:
    """weyl_operator from the symbol's lag spectrum lags = ifft(fft(a, axis=0), axis=1).

    lags is turned into the kernel in place: the half-lag phases multiply it in row
    blocks of at most ``_BLOCK_BYTES``, looked up in a table of the 2n distinct values
    exp(-i*pi*k/n), and its time FFT is taken in place.  lags and the gathered matrix
    are the only n-by-n arrays held (the Nyquist test's rescaled sums hold one row).
    """
    n, n2 = grid.n, grid.n // 2
    # sums of |lags|^2 with no n-by-n temporary
    total = np.vdot(lags, lags).real
    nyq = np.vdot(lags[n2], lags[n2]).real
    if not math.isfinite(total):  # overflowed: the same sums, a row at a time, of lags over their largest modulus
        peak = np.max([np.abs(row).max() for row in lags])
        if not math.isfinite(peak):
            raise ValueError("tabulated symbol's lag spectrum is not finite")
        rows = [np.vdot(row / peak, row / peak).real for row in lags]
        total, nyq = sum(rows), rows[n2]
    if total > 0 and nyq / total > 1e-8:
        raise ValueError(
            "tabulated symbol has energy at the Nyquist row "
            f"(fraction {nyq / total:.2e}); the half-lag shift is ill-defined"
        )
    # signed index of each time frequency and each lag, with +n/2 at index n/2
    ell = np.arange(n)
    ell[n2 + 1 :] -= n
    # the phase of (ell, ell') is exp(-i*pi*ell*ell'/n); ell*ell' mod 2n indexes it in [0, 2*pi)
    phases = np.exp((-1j * np.pi / n) * np.arange(2 * n, dtype=np.float64))
    step = max(1, _BLOCK_BYTES // (16 * n))
    for j0 in range(0, n, step):
        shift = phases[np.outer(ell[j0 : j0 + step], ell) % (2 * n)]
        if j0 <= n2 < j0 + step:
            shift[n2 - j0] = np.cos(0.5 * np.pi * ell)
        lags[j0 : j0 + step] *= shift
    del shift  # freed before the matrix is gathered
    kern = np.fft.ifft(lags, axis=0, out=lags)
    # lag n/2 takes the wrapped branch -n/2 on rows m < n/2; its shift by +n/4
    # there is the -n/4 shift read n/2 rows further down
    kern[:n2, n2] = kern[n2:, n2]
    return _lag_operator(grid, kern, n * grid.dx * grid.dw)


def weyl_from_localization(symbol: TFMatrix, phi: Signal, psi: Signal) -> LinearOp:
    """Weyl form of the localization operator: quantize the symbol convolved with Wig(psi, phi).

    That symbol's lag spectrum is dx * (the symbol's) * fft(ifftshift(F, axes=0), axis=0), with F
    the windows' folded Wigner lag products: the lag-axis FFTs of wigner, of a 2-D convolution
    and of the assembly compose to two reversals that cancel: no distribution or 2-D FFT is formed."""
    if symbol.grid != phi.grid or phi.grid != psi.grid:
        raise ValueError("symbol and windows must share a grid")
    lags = _wigner_lags(psi, phi, symbol.grid.n // 2)  # rows in ifftshift order
    np.fft.fft(lags, axis=0, out=lags)
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the double range is refused below
        lags *= _symbol_lags(symbol.values)
        lags *= symbol.grid.dx
    return _weyl_assembly(symbol.grid, lags)


# Power iteration for operator_norm: seed of the start vector, relative step
# between consecutive estimates that counts as stable, and iteration cap.
_NORM_SEED = 0
_NORM_RTOL = 1e-10
_NORM_MAX_ITER = 10000


def _vector_norm(w: np.ndarray) -> float:
    """||w||_2; when the sum of squares leaves the normal range, taken on w scaled by a power of two.

    The scaling is exact, so a vector scaled by 2^k gets exactly 2^k times the norm
    of the vector whose squares stay normal, and those keep the plain sum's bits.
    """
    square = np.vdot(w, w).real
    if sys.float_info.min <= square < math.inf:
        return math.sqrt(square)
    largest = float(np.abs(w).max())
    if not 0.0 < largest < math.inf:
        return math.sqrt(square)
    exponent = math.frexp(largest)[1]
    scaled = np.ldexp(w.view(np.float64), -exponent).view(np.complex128)
    return math.ldexp(math.sqrt(np.vdot(scaled, scaled).real), exponent)


def operator_norm(op: LinearOp) -> float:
    """Largest singular value by power iteration on the Gram matrix H = M^H M from a seeded start.

    ``_gram`` builds H once; each step then reads one n-by-n array: w = H v, the
    estimate sqrt(Re v^H w) = ||M v|| for the unit v, and v <- w / ||w||.  Beside M
    it holds H, one n-by-n array (16 MiB at n = 1024), and while H is built one
    column block of M of at most ``_BLOCK_BYTES``.

    Stops when two consecutive estimates agree to _NORM_RTOL; raises
    PowerIterationError with the iteration count otherwise, and at once when an
    estimate is not finite (entries whose products overflow, or a matrix built
    without ``linear_op``'s check) or when a nonzero matrix's squares underflow
    below the normal range, where the Gram matrix has lost its precision.
    ``_vector_norm`` takes ||w|| also where its squares leave the normal range,
    so M scaled by 2^k gets exactly 2^k times M's estimate.  The stopping rule
    bounds the step between estimates, not the error: each estimate is ||M v||
    for a unit v, so it never exceeds the top singular value, but when the top
    two singular values nearly coincide the iteration creeps upward slowly and
    can stop well short of it, by more than _NORM_RTOL.
    Dense only: intended for n <= 1024.
    """
    n = op.grid.n
    if n > 1024:
        raise ValueError(f"dense operator norm limited to n <= 1024, got n={n}")
    m = op.matrix
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma_prev = -1.0
    stable = 0
    # an overflowing product stops the loop below with one error, not with numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _gram(m)
        for k in range(1, _NORM_MAX_ITER + 1):
            w = gram @ v
            square = float(np.vdot(v, w).real)
            nw = _vector_norm(w)
            if not (math.isfinite(square) and math.isfinite(nw)):
                raise PowerIterationError(
                    f"operator norm estimate is not finite at iteration {k} "
                    f"(||M v||^2 = {square:.6e}, ||M^H M v|| = {nw:.6e})"
                )
            if square < sys.float_info.min:
                if m.any():
                    raise PowerIterationError(
                        f"operator norm estimate underflows for a nonzero matrix (||M v||^2 = {square:.6e})"
                    )
                return 0.0
            sigma = math.sqrt(square)
            w /= nw
            v = w
            if abs(sigma - sigma_prev) <= _NORM_RTOL * max(sigma, 1e-300):
                stable += 1
                if stable >= 2:
                    return sigma
            else:
                stable = 0
            sigma_prev = sigma
    raise PowerIterationError(
        f"operator norm iteration did not converge within {_NORM_MAX_ITER} iterations "
        f"(last estimate {sigma_prev:.6e})"
    )


def _gram(m: np.ndarray) -> np.ndarray:
    """M^H M: its upper block triangle from one product per conjugated column block of M
    (at most ``_BLOCK_BYTES``, and at most half of M, so that the triangle is never the
    whole product), then mirrored below as its conjugate transpose."""
    n = m.shape[0]
    gram = np.empty((n, n), dtype=np.complex128)
    step = max(1, min(_BLOCK_BYTES // (16 * n), n // 2))
    for j0 in range(0, n, step):
        # copied, then conjugated in place: a ufunc reading the strided columns would
        # hold its buffers beside the block
        block = np.array(m[:, j0 : j0 + step])
        np.conj(block, out=block)
        np.matmul(block.T, m[:, j0:], out=gram[j0 : j0 + step, j0:])
        del block  # freed before the next block is copied
    for j0 in range(0, n - step, step):
        j1 = j0 + step
        np.conj(gram[j0:j1, j1:].T, out=gram[j1:, j0:j1])
    return gram

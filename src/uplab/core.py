"""Centered sampling grids, sampled signals, and the Fourier convention.

Everything downstream is built on three conventions fixed here:

* grids are uniform and centered at zero, with an even sample count n and
  spacing dx; the dual frequency grid has spacing dw = 1/(n*dx), so that
  n * dx * dw = 1 exactly and both axes run over (j - n/2) * spacing,
* the forward transform carries 2*pi in the exponent,
      fhat(w) = int exp(-2*pi*i*t*w) f(t) dt,
  discretized as the Riemann sum dx * sum_j exp(-2*pi*i*t_j*w_k) f(t_j),
* L^q norms are quadrature-weighted sums, (spacing * sum |f|^q)^(1/q),
  with the plain sample maximum at q = infinity.

The centered sum is evaluated with FFTs through fftshift bookkeeping; the
sum above is the source of truth and the round-trip, Parseval, and Gaussian
fixed-point tests pin the implementation against it.  Signals are immutable:
sample buffers are frozen on construction and every operation returns a new
value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.fft  # numpy loads submodules on first use; load this one with the library, not in a run

TIME = "time"
FREQUENCY = "frequency"
_DOMAINS = (TIME, FREQUENCY)

# working-set cap of one block in the row-blocked passes
# (transforms.spectrogram_masses, and in bounds the log-distance groups of
# _FactorScan.ranks and the row blocks of _FactorScan.log_moments, which
# serves both _FactorScan.bracket and _FactorScan.ranks)
_BLOCK_BYTES = 1 << 20


def frozen_array(values, dtype=np.complex128) -> np.ndarray:
    """Copy values into a read-only ndarray of the given dtype."""
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform centered lattice together with its dual frequency lattice."""

    n: int
    dx: float

    @property
    def dw(self) -> float:
        return 1.0 / (self.n * self.dx)

    @property
    def times(self) -> np.ndarray:
        return self._centered_indices() * self.dx

    @property
    def freqs(self) -> np.ndarray:
        return self._centered_indices() * self.dw

    def _centered_indices(self) -> np.ndarray:
        # j - n/2 as exact floats, without an int64 pass
        return np.arange(-(self.n // 2), self.n - self.n // 2, dtype=np.float64)

    def axis(self, domain: str) -> np.ndarray:
        _check_domain(domain)
        return self.times if domain == TIME else self.freqs

    def spacing(self, domain: str) -> float:
        _check_domain(domain)
        return self.dx if domain == TIME else self.dw


def make_grid(n: int, dx: float) -> Grid:
    if int(n) != n or n < 4 or n % 2 != 0:
        raise ValueError(f"sample count must be an even integer >= 4, got {n!r}")
    dx = float(dx)
    if not np.isfinite(dx) or dx <= 0:
        raise ValueError(f"grid spacing must be positive and finite, got {dx!r}")
    return Grid(int(n), dx)


def _check_domain(domain: str) -> None:
    if domain not in _DOMAINS:
        raise ValueError(f"domain must be one of {_DOMAINS}, got {domain!r}")


@dataclass(frozen=True)
class Signal:
    """Complex samples on a grid axis, tagged with the axis they live on.

    ``domain`` records whether the samples sit on the time axis (axis values
    grid.times, quadrature weight dx) or on the frequency axis (grid.freqs,
    weight dw).  The Fourier transform maps one to the other.
    """

    grid: Grid
    samples: np.ndarray
    domain: str = TIME

    @property
    def axis(self) -> np.ndarray:
        return self.grid.axis(self.domain)

    @property
    def spacing(self) -> float:
        return self.grid.spacing(self.domain)


def signal_from_samples(grid: Grid, values, domain: str = TIME) -> Signal:
    _check_domain(domain)
    arr = frozen_array(values)
    if arr.ndim != 1 or arr.shape[0] != grid.n:
        raise ValueError(f"expected {grid.n} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("samples must be finite")
    return Signal(grid, arr, domain)


def centered_dft(values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unweighted centered DFT: sum_j exp(-+2*pi*i*j'*k'/n) with centered indices.

    For even n this equals fftshift(fft(ifftshift(x))) along the last axis, which
    the unit tests verify against the explicit sum.  The caller supplies the
    quadrature weight (dx forward, n*dw inverse).
    """
    shifted = np.fft.ifftshift(values, axes=-1)
    out = np.fft.ifft(shifted) if inverse else np.fft.fft(shifted)
    return np.fft.fftshift(out, axes=-1)


def fourier(f: Signal) -> Signal:
    """Transform a signal to the other axis: a time signal forward, a spectrum back.

    forward (time to frequency):  fhat(w_k) = dx * sum_j exp(-2*pi*i*t_j*w_k) f(t_j)
    inverse (frequency to time):  f(t_j) = dw * sum_k exp(+2*pi*i*t_j*w_k) fhat(w_k)

    The pair is an exact round trip and preserves the quadrature L^2 norm
    exactly (discrete Parseval).
    """
    if f.domain == TIME:
        vals, domain = f.grid.dx * centered_dft(f.samples), FREQUENCY
    else:
        vals, domain = f.grid.n * f.grid.dw * centered_dft(f.samples, inverse=True), TIME
    vals.setflags(write=False)
    return Signal(f.grid, vals, domain)


def norm_lq(f: Signal, q: float) -> float:
    """Quadrature L^q norm, (spacing * sum |f|^q)^(1/q); sample max at q = inf."""
    return _quadrature_lq(np.abs(f.samples), f.spacing, q)


def _quadrature_lq(mags: np.ndarray, spacing: float, q: float) -> float:
    """(spacing * sum mags^q)^(1/q) of nonnegative magnitudes; their max at q = inf.

    An empty array has norm 0 at every q; an infinite peak is the norm.
    """
    q = float(q)
    if not (q >= 1.0):
        raise ValueError(f"norm order must satisfy q >= 1, got {q!r}")
    if mags.size == 0:
        return 0.0
    if math.isinf(q):
        return float(mags.max())
    peak = float(mags.max())
    if peak == 0.0 or math.isinf(peak):
        return peak
    # scale by the peak so large q cannot overflow
    scaled = mags / peak
    scaled **= q
    return peak * float((spacing * scaled.sum()) ** (1.0 / q))


def inner(f: Signal, g: Signal) -> complex:
    """Quadrature inner product spacing * sum f * conj(g); same grid and axis."""
    if f.grid != g.grid or f.domain != g.domain:
        raise ValueError("inner product requires matching grid and domain")
    return complex(f.spacing * np.sum(f.samples * np.conj(g.samples)))


def energy(f: Signal) -> float:
    return _quadrature_energy(f.samples, f.spacing)


def _quadrature_energy(values: np.ndarray, spacing: float) -> float:
    """Squared quadrature L^2 norm, spacing * sum |values|^2, of samples on one axis."""
    return float(spacing * np.sum(np.abs(values) ** 2))


def boundary_energy_fraction(f: Signal) -> float:
    """Fraction of total energy within min(3, n // 2) samples of either edge."""
    e = np.abs(f.samples) ** 2
    total = float(e.sum())
    if total == 0.0:
        return 0.0
    return _edge_mass(e) / total


def _edge_mass(weights: np.ndarray) -> float:
    """Sum of nonnegative weights over the first and last min(3, n // 2) entries."""
    k = min(3, weights.size // 2)
    return float(weights[:k].sum() + weights[weights.size - k :].sum())


_HEADER_RE = re.compile(r"#\s*n=(\d+)\s+dx=([0-9eE.+-]+)(?:\s+domain=(\w+))?")


def write_signal_csv(f: Signal, path) -> None:
    """Write columns index,t,re,im with a `# n=<n> dx=<dx> domain=<d>` header."""
    lines = [f"# n={f.grid.n} dx={float(f.grid.dx)!r} domain={f.domain}", "index,t,re,im"]
    axis = f.axis
    for j in range(f.grid.n):
        z = f.samples[j]
        lines.append(f"{j},{float(axis[j])!r},{float(z.real)!r},{float(z.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_signal_csv(path) -> Signal:
    text = Path(path).read_text()
    match = _HEADER_RE.search(text)
    if match is None:
        raise ValueError(f"{path}: missing '# n=<n> dx=<dx>' header line")
    n, dx = int(match.group(1)), float(match.group(2))
    domain = match.group(3) or TIME
    grid = make_grid(n, dx)
    lines = (line.strip() for line in text.splitlines())
    rows = [line for line in lines if line and not line.startswith(("#", "index"))]
    # counted before allocating, so a header n the file cannot back is refused at once
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(rows)}")
    values = np.zeros(n, dtype=np.complex128)
    seen = np.zeros(n, dtype=bool)
    for line in rows:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}: malformed row {line!r}")
        j = int(parts[0])
        if not 0 <= j < n:
            raise ValueError(f"{path}: row index {j} out of range for n={n}")
        if seen[j]:
            raise ValueError(f"{path}: duplicate row index {j}")
        values[j] = float(parts[2]) + 1j * float(parts[3])
        seen[j] = True
    return signal_from_samples(grid, values, domain)

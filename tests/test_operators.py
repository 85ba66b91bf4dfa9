"""Operator construction and calculus tests.

Operators are applied as plain matrix products, op.matrix @ f.samples.
Oracles: the cumulative-distribution form of a smoothed step (error
function), direct double-sum evaluations of weak operator identities,
multiplication-operator reductions of the quantized symbol calculus, dense
singular value decompositions, the sharp time and frequency projections
(the mask times the samples, and the masked Fourier round trip), and the
direct constructions the library does not use: the rank-one assembly of a
localization operator, the conjugation of a multiplier by the dense DFT
matrix, the column-by-column Weyl kernel on the midpoint-lifted symbol, and
the Weyl quantization of the symbol convolved with the dense cross-Wigner
matrix of the windows; and for operator_norm, the power iteration it used to run, two
matrix-vector products per step, from the same seeded start.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from uplab import (
    FREQUENCY,
    TIME,
    PowerIterationError,
    apply_freq_symbol,
    fourier,
    gabor_transform,
    gaussian_smoothed_indicator,
    inner,
    linear_op,
    localization_operator,
    make_grid,
    mask_from_flags,
    operator_norm,
    operators,
    signal_from_samples,
    smoothed_concentration_ops,
    tfmatrix_from_values,
    transforms,
    trig_upsample2,
    weyl_from_localization,
    weyl_operator,
    wigner,
)


def noise_signal(grid, rng):
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return signal_from_samples(grid, v / (np.linalg.norm(v) * math.sqrt(grid.dx)))


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return signal_from_samples(grid, samples)


def window_mask(grid, axis, lo, hi):
    """Mask of the cells whose axis value lies in the closed window [lo, hi]."""
    values = grid.axis(axis)
    return mask_from_flags(grid, axis, (values >= lo) & (values <= hi))


def rank_one_localization(grid, avals, phi, psi):
    """Sum over time shifts j of the rank-one window products, each weighted
    entrywise by (-1)^lag times the row DFT of the symbol at that lag."""
    n, n2 = grid.n, grid.n // 2
    lag = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    sign = np.where(lag % 2 == 0, 1.0, -1.0)
    brows = n * np.fft.ifft(avals, axis=1)
    m = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        shifted_psi = np.roll(psi.samples, j - n2)
        shifted_phi = np.conj(np.roll(phi.samples, j - n2))
        m += np.outer(shifted_psi, shifted_phi) * (sign * brows[j][lag])
    return m * (grid.dx * grid.dx * grid.dw)


def dft_conjugated_multiplier(grid, values):
    """U^H diag(values) U with the dense DFT matrix U[k, m] = dx exp(-2 pi i t_m w_k)."""
    u = grid.dx * np.exp(-2j * np.pi * np.outer(grid.freqs, grid.times))
    return (grid.dw / grid.dx) * (u.conj().T @ (values[:, None] * u))


def midpoint_weyl(grid, avals):
    """Weyl kernel filled column by column from the symbol lifted to the 2n x n
    midpoint lattice, on the wrapped midpoint branch for wrapped lags."""
    n, n2 = grid.n, grid.n // 2
    a2 = trig_upsample2(avals.T).T
    rows = grid.dw * n * np.fft.ifft(a2, axis=1)  # rows indexed by midpoint p
    k = np.zeros((n, n), dtype=np.complex128)
    m = np.arange(n)
    for q in range(n):
        ell0 = m - q
        wrap = np.where(ell0 > n2, 1, np.where(ell0 < -n2, -1, 0))
        ell = ell0 - wrap * n
        p = (m + q - wrap * n) % (2 * n)
        sign = np.where(ell % 2 == 0, 1.0, -1.0)
        k[:, q] = sign * rows[p, ell % n]
    return grid.dx * k


def wigner_smoothed_weyl(symbol, phi, psi):
    """Weyl quantization of the symbol convolved with the dense cross-Wigner matrix Wig(psi, phi)."""
    grid = symbol.grid
    spread = np.fft.fft2(symbol.values) * np.fft.fft2(np.fft.ifftshift(wigner(psi, phi).values))
    return weyl_operator(tfmatrix_from_values(grid, grid.dx * grid.dw * np.fft.ifft2(spread)))


def bandlimited_window(grid, rng):
    """Seeded unit-energy noise window: white below a quarter of the sample rate, Gaussian-tapered."""
    spec = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    spec[np.abs(np.fft.fftfreq(grid.n)) > 0.25] = 0.0
    v = np.fft.ifft(spec) * np.exp(-np.pi * grid.times**2 / 4.0)
    return signal_from_samples(grid, v / (np.linalg.norm(v) * math.sqrt(grid.dx)))


def time_smooth_symbol(n, rng):
    """Seeded complex symbol, white along frequency and Gaussian-damped along time
    so that about 1e-10 of its energy sits in the Nyquist row, below the 1e-8
    rejection level: every lag, n/2 included, and the Nyquist row take part."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(raw, axis=0) * np.exp(-40.0 * k * k)[:, None], axis=0)


def max_relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def two_product_norm(matrix):
    """Power iteration on M^H M as two products per step, u = M v and v = M^H u, from
    operator_norm's seeded start and under its stopping rule: ||M v|| for the last unit v."""
    n = matrix.shape[0]
    rng = np.random.default_rng(operators._NORM_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    adjoint = matrix.conj().T
    sigma_prev, stable = -1.0, 0
    for _ in range(operators._NORM_MAX_ITER):
        u = matrix @ v
        sigma = float(np.linalg.norm(u))
        v = adjoint @ u
        v /= np.linalg.norm(v)
        if abs(sigma - sigma_prev) <= operators._NORM_RTOL * sigma:
            stable += 1
            if stable >= 2:
                return sigma
        else:
            stable = 0
        sigma_prev = sigma
    raise AssertionError("the two-product iteration did not converge")


def close_top_pair(rng):
    """32 x 32 matrix with singular values 2, 1.98 and 30 more from 1 down to 0.02."""
    q1, _ = np.linalg.qr(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    q2, _ = np.linalg.qr(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    sigma = np.concatenate([[2.0, 1.98], np.linspace(1.0, 0.02, 30)])
    return (q1 * sigma) @ q2.conj().T


def smooth_localization(n, seed):
    """Localization operator of a seeded smooth symbol with two seeded noise windows."""
    grid = make_grid(n, 1 / math.sqrt(n))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dist = np.minimum(np.arange(n), n - np.arange(n)) ** 2
    avals = np.fft.ifft2(np.fft.fft2(raw) * np.exp(-0.1 * np.add.outer(dist, dist)))
    phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
    return localization_operator(tfmatrix_from_values(grid, avals), phi, psi)


def sharp_concentration_ops(mask_t, mask_w):
    """(L1, L2) with kernels narrower than one cell: the smoothed indicators
    equal the masks to rounding, so the operators are the sharp projections."""
    return smoothed_concentration_ops(mask_t, mask_w, 1e5, 1e-5)


class TestProjections:
    def test_time_projection_is_an_orthogonal_projection(self):
        grid = make_grid(64, 1 / 8)
        mask_t = window_mask(grid, TIME, -1.0, 1.0)
        p, _ = sharp_concentration_ops(mask_t, window_mask(grid, FREQUENCY, -0.5, 0.5))
        np.testing.assert_allclose(np.diag(p.matrix), mask_t.flags, atol=1e-14)
        np.testing.assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-14)
        np.testing.assert_allclose(p.matrix, p.matrix.conj().T, atol=1e-14)
        assert operator_norm(p) == pytest.approx(1.0, abs=1e-10)

    def test_frequency_projection_composes_transform_mask_inverse(self):
        grid = make_grid(64, 1 / 8)
        mask = window_mask(grid, FREQUENCY, -0.5, 1.5)
        _, q = sharp_concentration_ops(window_mask(grid, TIME, -1.0, 1.0), mask)
        f = noise_signal(grid, np.random.default_rng(0))
        spec = fourier(f)
        masked = signal_from_samples(grid, np.where(mask.flags, spec.samples, 0), FREQUENCY)
        want = fourier(masked)
        np.testing.assert_allclose(q.matrix @ f.samples, want.samples, atol=1e-12)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_frequency_projection_matches_dense_dft_conjugation(self, n):
        grid = make_grid(n, 8.0 / n)
        mask = window_mask(grid, FREQUENCY, -0.5, 1.5)
        _, q = sharp_concentration_ops(window_mask(grid, TIME, -1.0, 1.0), mask)
        want = dft_conjugated_multiplier(grid, mask.flags.astype(float))
        assert max_relative_gap(q.matrix, want) <= 1e-13

    def test_projection_product_contracts_strictly(self):
        # Small windows keep the singular values well separated, where the
        # iterative norm estimate converges; the top value must sit strictly
        # below one because the two localizations are incompatible.
        grid = make_grid(64, 1 / 8)
        flags_t = window_mask(grid, TIME, -0.5, 0.5).flags.astype(float)
        flags_w = window_mask(grid, FREQUENCY, -0.5, 0.5).flags.astype(float)
        pq = linear_op(grid, np.diag(flags_t) @ dft_conjugated_multiplier(grid, flags_w))
        norm = operator_norm(pq)
        assert 0.5 < norm < 1.0
        assert norm == pytest.approx(np.linalg.svd(pq.matrix, compute_uv=False)[0], abs=1e-8)


class TestSmoothedIndicators:
    def test_step_follows_the_error_function(self):
        # The smoothed value of a union of cells equals, to quadrature
        # accuracy, the kernel mass over [first edge, last edge]:
        #   (erf(sqrt(2 pi lam) (b - t)) - erf(sqrt(2 pi lam) (a - t))) / 2.
        grid = make_grid(1024, 1 / 64)
        mask = window_mask(grid, TIME, 0.0, 4.0)
        sym = gaussian_smoothed_indicator(mask, 1.0)
        t = grid.times
        a, b = -grid.dx / 2, 4.0 + grid.dx / 2
        want = 0.5 * (erf(np.sqrt(2 * np.pi) * (b - t)) - erf(np.sqrt(2 * np.pi) * (a - t)))
        interior = (t > -6) & (t < 6)
        assert np.max(np.abs(sym.values[interior] - want[interior])) < 1e-4

    def test_kept_mask_transform_rounds_as_a_fresh_one(self):
        # past numpy's temporary-reuse threshold (n = 65536 here) the operand order
        # of the complex product shows in the last bits: the symbol must round as
        # fft(flags) * fft(kernel) does, on the call that takes the mask's
        # transform and on the call that reuses it
        n = 65536
        grid = make_grid(n, 1 / math.sqrt(n))
        rng = np.random.default_rng(11)
        for axis in (TIME, FREQUENCY):
            mask = mask_from_flags(grid, axis, rng.random(n) < 0.3)
            h, x = grid.spacing(axis), grid.axis(axis)
            kernel = np.sqrt(2.0) * np.exp(-2.0 * np.pi * x * x)  # mu = 2 on both axes at lam = 1
            kernel = kernel / (h * float(kernel.sum()))
            conv = np.fft.ifft(np.fft.fft(mask.flags.astype(float)) * np.fft.fft(np.fft.ifftshift(kernel)))
            want = np.clip(h * conv.real, 0.0, 1.0)
            for _ in range(2):
                assert np.array_equal(gaussian_smoothed_indicator(mask, 1.0).values, want)

    def test_values_stay_in_the_unit_interval(self):
        grid = make_grid(256, 1 / 16)
        for lam in (1.0, 4.0, 64.0):
            sym = gaussian_smoothed_indicator(window_mask(grid, TIME, -1.0, 1.0), lam)
            assert sym.values.min() >= 0.0
            assert sym.values.max() <= 1.0 + 1e-12

    def test_kernel_wider_than_the_grid_rejected(self):
        grid = make_grid(64, 1 / 8)
        with pytest.raises(ValueError):
            gaussian_smoothed_indicator(window_mask(grid, TIME, -1.0, 1.0), 1e-4)

    def test_frequency_axis_rate_is_reciprocal(self):
        # On the frequency axis small lam sharpens, so a huge lam widens the
        # kernel beyond the grid.
        grid = make_grid(64, 1 / 8)
        mask = window_mask(grid, FREQUENCY, -1.0, 1.0)
        gaussian_smoothed_indicator(mask, 1.0 / 64.0)
        with pytest.raises(ValueError):
            gaussian_smoothed_indicator(mask, 1e4)

    def test_sharpening_drives_both_operators_to_projections(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        mask_t = window_mask(grid, TIME, -0.75, 0.75)
        mask_w = window_mask(grid, FREQUENCY, -0.75, 0.75)
        pf = mask_t.flags * f.samples
        masked = signal_from_samples(grid, np.where(mask_w.flags, fourier(f).samples, 0), FREQUENCY)
        qf = fourier(masked).samples
        time_errors, freq_errors = [], []
        for lam1, lam2 in zip((1.0, 4.0, 16.0, 64.0), (1.0, 0.25, 0.0625, 0.015625)):
            l1, l2 = smoothed_concentration_ops(mask_t, mask_w, lam1, lam2)
            time_errors.append(np.linalg.norm(l1.matrix @ f.samples - pf) * math.sqrt(grid.dx))
            freq_errors.append(np.linalg.norm(l2.matrix @ f.samples - qf) * math.sqrt(grid.dx))
        assert all(b < a - 1e-10 for a, b in zip(time_errors, time_errors[1:]))
        assert all(b < a - 1e-10 for a, b in zip(freq_errors, freq_errors[1:]))

    def test_dense_ops_match_the_symbol_applications(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, np.random.default_rng(1))
        mask_t = window_mask(grid, TIME, -1.0, 1.0)
        mask_w = window_mask(grid, FREQUENCY, -1.0, 1.0)
        l1, l2 = smoothed_concentration_ops(mask_t, mask_w, 2.0, 0.5)
        sym1 = gaussian_smoothed_indicator(mask_t, 2.0)
        sym2 = gaussian_smoothed_indicator(mask_w, 0.5)
        np.testing.assert_allclose(l1.matrix @ f.samples, sym1.values * f.samples, atol=1e-12)
        np.testing.assert_allclose(l2.matrix @ f.samples, apply_freq_symbol(sym2, fourier(f)).samples, atol=1e-12)

    def test_frequency_symbol_refuses_a_spectrum_on_another_grid(self):
        # it used to return the product of values sampled at other frequencies
        grid, other = make_grid(64, 1 / 8), make_grid(64, 1 / 4)
        sym = gaussian_smoothed_indicator(window_mask(grid, FREQUENCY, -1.0, 1.0), 0.5)
        fhat = fourier(noise_signal(other, np.random.default_rng(2)))
        with pytest.raises(ValueError, match="share a grid"):
            apply_freq_symbol(sym, fhat)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_frequency_smoother_matches_dense_dft_conjugation(self, n):
        grid = make_grid(n, 8.0 / n)
        mask_t = window_mask(grid, TIME, -1.0, 1.0)
        mask_w = window_mask(grid, FREQUENCY, -1.0, 1.0)
        _, l2 = smoothed_concentration_ops(mask_t, mask_w, 2.0, 0.5)
        want = dft_conjugated_multiplier(grid, gaussian_smoothed_indicator(mask_w, 0.5).values)
        assert max_relative_gap(l2.matrix, want) <= 1e-13


class TestLocalization:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_rank_one_assembly(self, n):
        grid = make_grid(n, 4.0 / math.sqrt(n))
        rng = np.random.default_rng(500 + n)
        avals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
        op = localization_operator(tfmatrix_from_values(grid, avals), phi, psi)
        assert max_relative_gap(op.matrix, rank_one_localization(grid, avals, phi, psi)) <= 1e-13

    def test_weak_identity_against_direct_sums(self):
        # (L f, g) must equal the cell sum of the symbol against the two
        # windowed transforms, computed here from the transforms directly.
        grid = make_grid(32, 0.25)
        rng = np.random.default_rng(2)
        phi, psi, f, g = (noise_signal(grid, rng) for _ in range(4))
        avals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        op = localization_operator(tfmatrix_from_values(grid, avals), phi, psi)
        vf = gabor_transform(f, phi).values
        vg = gabor_transform(g, psi).values
        direct = grid.dx * grid.dw * np.sum(avals * vf * np.conj(vg))
        assert inner(signal_from_samples(grid, op.matrix @ f.samples), g) == pytest.approx(direct, abs=1e-10)

    def test_time_only_symbol_gives_a_multiplication_operator(self):
        # chi(x) (x) 1: the frequency sum collapses and the operator becomes
        # diagonal, multiplying by the window correlation of chi.
        grid = make_grid(32, 0.25)
        rng = np.random.default_rng(3)
        phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
        chi = np.zeros(32)
        chi[10:20] = 1.0
        op = localization_operator(tfmatrix_from_values(grid, np.outer(chi, np.ones(32))), phi, psi)
        off_diagonal = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off_diagonal)) < 1e-14
        n, half = 32, 16
        want = np.array(
            [
                grid.dx
                * sum(
                    chi[j] * psi.samples[(m - j + half) % n] * np.conj(phi.samples[(m - j + half) % n])
                    for j in range(n)
                )
                for m in range(n)
            ]
        )
        np.testing.assert_allclose(np.diag(op.matrix), want, atol=1e-12)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_norm_bounded_by_symbol_cell_norm(self, q):
        from uplab import locop_constant, tf_norm_lp

        grid = make_grid(64, 1 / 8)
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            dist = np.minimum(np.arange(64), 64 - np.arange(64)) ** 2
            smoother = np.exp(-0.1 * np.add.outer(dist, dist))
            avals = np.fft.ifft2(np.fft.fft2(raw) * smoother)
            phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
            op = localization_operator(tfmatrix_from_values(grid, avals), phi, psi)
            bound = locop_constant(q, 1) * tf_norm_lp(tfmatrix_from_values(grid, avals), q)
            assert operator_norm(op) <= bound + 1e-10


class TestWeyl:
    # 206: fftfreq(206, 1/206) is not integral, so the half-lag phases must not be read from it
    @pytest.mark.parametrize("n", [32, 64, 128, 206, 256])
    def test_matches_midpoint_column_assembly(self, n):
        grid = make_grid(n, 4.0 / math.sqrt(n))
        avals = time_smooth_symbol(n, np.random.default_rng(600 + n))
        op = weyl_operator(tfmatrix_from_values(grid, avals))
        assert max_relative_gap(op.matrix, midpoint_weyl(grid, avals)) <= 1e-13

    @pytest.mark.parametrize("rows", [1, 3])
    def test_phase_blocks_of_any_height_give_the_same_bits(self, monkeypatch, rows):
        # with 3 rows the Nyquist row is the last of the block [30, 33)
        n = 64
        grid = make_grid(n, 1 / 8)
        symbol = tfmatrix_from_values(grid, time_smooth_symbol(n, np.random.default_rng(12)))
        want = weyl_operator(symbol).matrix
        monkeypatch.setattr(operators, "_BLOCK_BYTES", rows * 16 * n)
        assert np.array_equal(weyl_operator(symbol).matrix, want)

    def test_time_only_symbol_is_pointwise_multiplication(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, np.random.default_rng(4))
        sigma = np.exp(-np.pi * grid.times**2)
        op = weyl_operator(tfmatrix_from_values(grid, np.outer(sigma, np.ones(64))))
        np.testing.assert_allclose(op.matrix @ f.samples, sigma * f.samples, atol=1e-10)

    def test_frequency_only_symbol_is_a_transform_multiplier(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, np.random.default_rng(5))
        gauss = np.exp(-np.pi * grid.freqs**2)
        op = weyl_operator(tfmatrix_from_values(grid, np.outer(np.ones(64), gauss)))
        spec = fourier(f)
        shaped = signal_from_samples(grid, gauss * spec.samples, FREQUENCY)
        want = fourier(shaped)
        np.testing.assert_allclose(op.matrix @ f.samples, want.samples, atol=1e-10)

    def test_real_symbol_gives_a_hermitian_operator(self):
        grid = make_grid(64, 1 / 8)
        values = np.add.outer(np.exp(-np.pi * grid.times**2), np.exp(-2 * np.pi * grid.freqs**2))
        op = weyl_operator(tfmatrix_from_values(grid, values))
        np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-12)

    def test_zero_symbol_gives_the_zero_operator(self):
        grid = make_grid(64, 1 / 8)
        op = weyl_operator(tfmatrix_from_values(grid, np.zeros((64, 64))))
        assert np.max(np.abs(op.matrix)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_symbol_refused_before_quantization(self, bad):
        # a NaN symbol used to pass the Nyquist test (nan > 1e-8 is false) and quantize to all NaN
        grid = make_grid(32, 0.25)
        values = np.ones((32, 32), dtype=complex)
        values[5, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            weyl_operator(tfmatrix_from_values(grid, values))

    def test_symbol_with_alternating_sign_rows_rejected(self):
        # A pure +1/-1 alternation along time sits entirely in the row the
        # half-lag shift cannot represent.
        grid = make_grid(64, 1 / 8)
        values = np.outer((-1.0) ** np.arange(64), np.ones(64))
        with pytest.raises(ValueError):
            weyl_operator(tfmatrix_from_values(grid, values))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200])
    def test_nyquist_row_refused_at_any_scale(self, scale):
        # at 1e200 the sum of |lags|^2 overflows; the fraction used to be nan and the symbol passed
        grid = make_grid(64, 1 / 8)
        values = np.outer((-1.0) ** np.arange(64), np.ones(64)) * scale
        with pytest.raises(ValueError, match="Nyquist row"):
            weyl_operator(tfmatrix_from_values(grid, values))

    def test_a_symbol_whose_energy_overflows_is_quantized_like_its_unit_copy(self):
        grid = make_grid(64, 1 / 8)
        x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
        values = np.exp(-np.pi * (x**2 + om**2))
        unit = weyl_operator(tfmatrix_from_values(grid, values)).matrix
        huge = weyl_operator(tfmatrix_from_values(grid, 1e200 * values)).matrix
        np.testing.assert_allclose(huge, 1e200 * unit, rtol=1e-12, atol=1e-12 * 1e200 * np.max(np.abs(unit)))

    def test_a_lag_spectrum_past_the_double_range_is_refused(self):
        # finite symbol entries whose time FFT overflows: one ValueError, and no numpy
        # warning first, which this suite's filterwarnings = error would raise instead
        grid = make_grid(64, 1 / 8)
        values = np.outer((-1.0) ** np.arange(64), np.ones(64)) * 1e307
        with pytest.raises(ValueError, match="not finite"):
            weyl_operator(tfmatrix_from_values(grid, values))

    def test_a_lag_product_past_the_double_range_is_refused(self):
        # finite symbol and window lag spectra whose product overflows: it used to warn
        # "overflow encountered in multiply" before the refusal
        grid = make_grid(64, 1 / 8)
        window = signal_from_samples(grid, 1e10 * unit_gaussian(grid).samples)
        x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
        symbol = tfmatrix_from_values(grid, 1e290 * np.exp(-np.pi * (x**2 + om**2)))
        with pytest.raises(ValueError, match="not finite"):
            weyl_from_localization(symbol, window, window)

    def test_quantized_symbol_matches_window_smoothed_route(self):
        # Convolving the symbol with the cross distribution of the windows and
        # quantizing must reproduce the analysis-weight-rebuild operator.
        grid = make_grid(64, 1 / 8)
        window = unit_gaussian(grid)
        x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
        symbol = tfmatrix_from_values(grid, np.exp(-np.pi * (x**2 + om**2)))
        direct = localization_operator(symbol, window, window)
        routed = weyl_from_localization(symbol, window, window)
        assert np.max(np.abs(direct.matrix - routed.matrix)) < 1e-5

    def test_cross_distribution_of_a_window_with_itself_is_real(self):
        grid = make_grid(64, 1 / 8)
        window = unit_gaussian(grid)
        w = wigner(window, window)
        assert np.max(np.abs(w.values.imag)) < 1e-10

    # at n = 640 neither the fold's row blocks (51 rows) nor the phases' (102 rows) divide n/2
    @pytest.mark.parametrize("n", [64, 256, 640])
    @pytest.mark.parametrize("windows", ["gaussian", "noise"])
    def test_smoothing_route_matches_the_dense_cross_wigner_route(self, n, windows):
        grid = make_grid(n, 1 / math.sqrt(n))
        rng = np.random.default_rng(700 + n)
        symbol = tfmatrix_from_values(grid, time_smooth_symbol(n, rng))
        if windows == "gaussian":
            phi = psi = unit_gaussian(grid)
        else:
            phi, psi = bandlimited_window(grid, rng), bandlimited_window(grid, rng)
        want = wigner_smoothed_weyl(symbol, phi, psi)
        assert max_relative_gap(weyl_from_localization(symbol, phi, psi).matrix, want.matrix) <= 1e-13

    def test_smoothing_route_forms_no_distribution_and_no_2d_transform(self, monkeypatch):
        grid = make_grid(64, 1 / 8)
        rng = np.random.default_rng(9)
        symbol = tfmatrix_from_values(grid, time_smooth_symbol(64, rng))
        phi, psi = bandlimited_window(grid, rng), bandlimited_window(grid, rng)
        want = wigner_smoothed_weyl(symbol, phi, psi)

        def refuse(*args, **kwargs):
            raise AssertionError("the Weyl route formed a cross-Wigner matrix or a 2-D transform")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        for module in (transforms, operators):
            monkeypatch.setattr(module, "wigner", refuse, raising=False)
        got = weyl_from_localization(symbol, phi, psi)
        assert max_relative_gap(got.matrix, want.matrix) <= 1e-13

    def test_smoothing_route_rejects_a_spread_symbol_with_nyquist_energy(self):
        # white windows leave energy in the Nyquist row of the spread symbol,
        # which this route hands to the Weyl assembly without forming it
        grid = make_grid(32, 0.25)
        rng = np.random.default_rng(1)
        avals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
        with pytest.raises(ValueError, match="Nyquist row"):
            weyl_from_localization(tfmatrix_from_values(grid, avals), phi, psi)


class TestWindowChecks:
    """Both routes of the localization operator check their windows themselves."""

    @pytest.mark.parametrize("route", [localization_operator, weyl_from_localization])
    @pytest.mark.parametrize("case", ["frequency-phi", "frequency-psi", "other-grid", "other-grid-psi"])
    def test_route_refuses_a_frequency_window_and_a_foreign_grid(self, route, case):
        grid, other = make_grid(32, 0.25), make_grid(32, 0.5)
        symbol = tfmatrix_from_values(grid, np.ones((32, 32)))
        window = unit_gaussian(grid)
        spectrum = signal_from_samples(grid, window.samples, FREQUENCY)
        phi, psi = {
            "frequency-phi": (spectrum, window),
            "frequency-psi": (window, spectrum),
            "other-grid": (unit_gaussian(other), unit_gaussian(other)),
            "other-grid-psi": (window, unit_gaussian(other)),
        }[case]
        with pytest.raises(ValueError):
            route(symbol, phi, psi)


class TestAssemblyMemory:
    # n-by-n complex arrays held at once, each counted whole; FFTs are taken in place:
    # localization_operator: the window products and their time FFT; beside them the
    #   symbol's row DFT and its column FFT, freed once it multiplies them; then their
    #   inverse FFT, the kernel, beside the gathered matrix.  Two.
    # wigner: the folded lag products, signed, transformed and scaled in place; the
    #   auto-distribution's real part is taken in place.  One.
    # weyl_from_localization: the windows' folded lag products, in ifftshift row order, and
    #   their time FFT; beside them the symbol's lag spectrum, freed once it multiplies them;
    #   in the assembly the half-lag phases multiply them in place, then their inverse time
    #   FFT, the kernel, sits beside the gathered matrix.  Two.
    # weyl_operator: the symbol's lag spectrum, then the same assembly.  Two.
    # The quarter array of slack covers the row blocks of at most 1 MiB (wigner's n-by-2n
    # products, the assembly's phases with their index table: 0.375 of an array at n = 512,
    # held beside the one array only), the length-n vectors and numpy's iteration buffers.
    @pytest.mark.parametrize(
        ("route", "held"), [("localization", 2), ("wigner", 2), ("weyl", 2), ("weyl-operator", 2)]
    )
    def test_peak_counts_only_the_arrays_held_at_once(self, route, held):
        n = 512
        grid = make_grid(n, 1 / math.sqrt(n))
        rng = np.random.default_rng(600)
        symbol = tfmatrix_from_values(grid, time_smooth_symbol(n, rng))
        window = unit_gaussian(grid)
        build = {
            "localization": lambda: localization_operator(symbol, window, window),
            "wigner": lambda: wigner(window),
            "weyl": lambda: weyl_from_localization(symbol, window, window),
            "weyl-operator": lambda: weyl_operator(symbol),
        }[route]
        build()  # FFT plans and caches are made on the first call
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (held + 0.25) * n * n * 16


class TestOperatorNorm:
    # The Gram route and the two-product oracle run the same iteration from the same start,
    # so they differ by rounding and by where the stopping rule fires.  Rounding: each
    # estimate is within rho = n^2 eps of exact arithmetic's (gamma_n |M|^H |M|, and
    # || |M| || <= sqrt(n) sigma_1).  Stopping: an estimate sqrt(v^H H v) is a Rayleigh
    # quotient, whose error falls by r = (sigma_2 / sigma_1)^4 a step, so after two steps
    # of at most _NORM_RTOL the estimate still climbs by at most _NORM_RTOL * r / (1 - r).
    # Both estimates lie in [sigma_1 (1 - that - rho), sigma_1 (1 + rho)].  The same bound
    # holds between two Gram matrices that round differently (other block widths).
    @staticmethod
    def gap_bound(op):
        n = op.grid.n
        s = np.linalg.svd(op.matrix, compute_uv=False)
        r = (s[1] / s[0]) ** 4
        return (operators._NORM_RTOL * r / (1 - r) + 2 * n * n * np.finfo(float).eps) * s[0]

    def assert_agrees_with_the_two_product_iteration(self, op):
        assert abs(operator_norm(op) - two_product_norm(op.matrix)) <= self.gap_bound(op)

    @pytest.mark.parametrize("n", [64, 128])
    def test_gram_route_agrees_on_localization_operators(self, n):
        self.assert_agrees_with_the_two_product_iteration(smooth_localization(n, 800 + n))

    def test_peak_holds_the_gram_matrix_and_one_block(self):
        # Beside the caller's M: the Gram matrix H, one n-by-n array; one conjugated column
        # block of M of at most _BLOCK_BYTES, freed before the next (the mirror's ufunc
        # buffers, 256 KiB, come after it); and at most eight length-n complex vectors at
        # once (the start's two real normals and their complex combination, then v,
        # w = H v and the temporaries of their norms).
        n = 512
        op = smooth_localization(n, 900)
        operator_norm(op)
        tracemalloc.start()
        try:
            operator_norm(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n + operators._BLOCK_BYTES + 8 * 16 * n

    @pytest.mark.parametrize("columns", [1, 3])
    def test_gram_blocks_of_any_width_give_the_norm(self, monkeypatch, columns):
        # 3 columns leave a narrower last block; at n = 32 the default block is 16 columns
        op = smooth_localization(32, 901)
        monkeypatch.setattr(operators, "_BLOCK_BYTES", columns * 16 * 32)
        assert abs(operator_norm(op) - two_product_norm(op.matrix)) <= self.gap_bound(op)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_dense_svd(self, seed):
        grid = make_grid(32, 0.25)
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        op = linear_op(grid, matrix)
        top = np.linalg.svd(matrix, compute_uv=False)[0]
        assert abs(operator_norm(op) - top) < 1e-8
        self.assert_agrees_with_the_two_product_iteration(op)

    def test_close_top_pair_stays_below_the_top_value(self):
        # sigma_2 / sigma_1 = 0.99: the estimate creeps up slowly and stops
        # about 2e-9 short of sigma_1, above rtol, but never overshoots it.
        grid = make_grid(32, 0.25)
        matrix = close_top_pair(np.random.default_rng(8))
        top = np.linalg.svd(matrix, compute_uv=False)[0]
        norm = operator_norm(linear_op(grid, matrix))
        assert norm <= top * (1 + 1e-12)
        assert norm >= top * (1 - 1e-7)
        self.assert_agrees_with_the_two_product_iteration(linear_op(grid, matrix))

    def test_zero_operator(self):
        grid = make_grid(8, 0.5)
        assert operator_norm(linear_op(grid, np.zeros((8, 8)))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix_rejected(self, bad):
        grid = make_grid(8, 0.5)
        matrix = np.eye(8, dtype=complex)
        matrix[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            linear_op(grid, matrix)

    @pytest.mark.parametrize("case", ["overflow", "nan"])
    def test_non_finite_estimate_stops_the_iteration_at_once(self, case):
        # it used to run all 10 000 iterations and report a nan estimate as non-convergence
        grid = make_grid(8, 0.5)
        if case == "overflow":  # finite entries whose products overflow
            op = linear_op(grid, np.full((8, 8), 1e300))
        else:  # a matrix that did not pass through linear_op's check
            op = operators.LinearOp(grid, np.full((8, 8), complex(np.nan, 0.0)))
        with pytest.raises(PowerIterationError, match="not finite at iteration 1 "):
            operator_norm(op)

    def test_a_nonzero_matrix_whose_squares_underflow_is_refused(self):
        # M^H M underflows to zero at entries of 1e-170; it must not read as the zero operator
        grid = make_grid(8, 0.5)
        with pytest.raises(PowerIterationError, match="underflows"):
            operator_norm(linear_op(grid, np.full((8, 8), 1e-170)))

    def test_large_grids_rejected(self):
        grid = make_grid(2048, 1 / 64)
        op = linear_op(grid, np.zeros((2048, 2048)))
        with pytest.raises(ValueError):
            operator_norm(op)

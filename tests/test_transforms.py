"""Time-frequency transform tests.

Oracles: the exact cyclic energy identity for the windowed transform, the
closed-form Wigner distribution of Gaussian bumps, orthogonality relations
for phase-space inner products, and hand-countable cell sums.  The streamed
spectrogram marginals are pinned bit for bit to the dense spectrogram built
here from the Gabor transform, the Gabor transform to the explicit shift-table construction, and the Wigner
distribution to the explicit index-table gather of its lag products.
"""

import math
import tracemalloc

import numpy as np
import pytest

from uplab import (
    Scenario,
    centered_dft,
    energy,
    fourier,
    gabor_transform,
    gaussian_window,
    inner,
    make_grid,
    marginals,
    norm_lq,
    run_scenario,
    signal_from_samples,
    spectrogram_marginals,
    tf_norm_lp,
    tfmatrix_from_values,
    trig_upsample2,
    wigner,
)
from uplab import transforms


def noise_signal(grid, seed, normalize=True):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    if normalize:
        v = v / (np.linalg.norm(v) * math.sqrt(grid.dx))
    return signal_from_samples(grid, v)


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return signal_from_samples(grid, samples)


def chirp(grid, rate=2.0):
    t = grid.times
    return signal_from_samples(grid, 2**0.25 * np.exp(-np.pi * t**2) * np.exp(1j * np.pi * rate * t**2))


def shift_table_gabor(f, window):
    # one explicit cyclic window shift per row, then the centred DFT of each row
    n = f.grid.n
    m = np.arange(n)
    table = (m[None, :] - m[:, None] + n // 2) % n
    return f.grid.dx * centered_dft(f.samples[None, :] * np.conj(window.samples[table]), axis=1)


def spectrogram(f, g, window):
    """Two-window spectrogram V_w f * conj(V_w g); real and nonnegative for g = f.

    When g is f the transform is computed once and reused.  The product is
    formed as conj(V_w g) * V_w f at every size, so its rounding does not
    depend on whether numpy reuses a temporary operand in place.
    """
    vf = transforms.gabor_transform(f, window)
    vg = vf if g is f else transforms.gabor_transform(g, window)
    return tfmatrix_from_values(f.grid, np.conj(vg.values) * vf.values)


def index_table_wigner(f, g):
    # the lag products r[j, m2] = f2[2j + m2 - n] * conj(g2[2j - m2 + n]) gathered
    # through explicit index tables, zero where either index leaves [0, 2n)
    n = f.grid.n
    f2 = trig_upsample2(f.samples)
    g2 = trig_upsample2(g.samples)
    j = np.arange(n)[:, None]
    m2 = np.arange(2 * n)[None, :]
    ia = 2 * j + m2 - n
    ib = 2 * j - m2 + n
    valid = (ia >= 0) & (ia < 2 * n) & (ib >= 0) & (ib < 2 * n)
    r = np.where(
        valid,
        f2[np.clip(ia, 0, 2 * n - 1)] * np.conj(g2[np.clip(ib, 0, 2 * n - 1)]),
        0.0,
    )
    r[:, 0] = 0.0
    folded = r[:, :n] + r[:, n:]
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    vals = f.grid.dx * np.fft.fft(folded * sign[None, :], axis=1)
    if g is f:
        vals = vals.real.astype(np.complex128)
    return vals


class TestGabor:
    def test_energy_identity_is_exact(self):
        grid = make_grid(64, 1 / 8)
        f, w = noise_signal(grid, 0), noise_signal(grid, 1)
        v = gabor_transform(f, w)
        assert tf_norm_lp(v, 2) == pytest.approx(norm_lq(f, 2) * norm_lq(w, 2), rel=1e-12)

    def test_time_shift_translates_the_magnitude(self):
        grid = make_grid(64, 1 / 8)
        f, w = noise_signal(grid, 2), unit_gaussian(grid)
        base = np.abs(gabor_transform(f, w).values)
        shifted = signal_from_samples(grid, np.roll(f.samples, 5))
        moved = np.abs(gabor_transform(shifted, w).values)
        np.testing.assert_allclose(moved, np.roll(base, 5, axis=0), atol=1e-12)

    def test_modulation_translates_along_frequency(self):
        grid = make_grid(64, 1 / 8)
        f, w = noise_signal(grid, 3), unit_gaussian(grid)
        base = np.abs(gabor_transform(f, w).values)
        k = 5
        mod = signal_from_samples(grid, f.samples * np.exp(2j * np.pi * k * grid.dw * grid.times))
        moved = np.abs(gabor_transform(mod, w).values)
        np.testing.assert_allclose(moved, np.roll(base, k, axis=1), atol=1e-12)

    def test_sup_never_exceeds_the_norm_product(self):
        grid = make_grid(64, 1 / 8)
        for seed in range(5):
            f, w = noise_signal(grid, seed), noise_signal(grid, 100 + seed)
            v = gabor_transform(f, w)
            assert tf_norm_lp(v, math.inf) <= norm_lq(f, 2) * norm_lq(w, 2) + 1e-12

    @pytest.mark.parametrize("n", [4, 64, 256, 1000])
    def test_matches_the_shift_table_construction_exactly(self, n):
        grid = make_grid(n, 1 / 16 if n > 64 else 1 / 8)
        f, w = noise_signal(grid, 12), noise_signal(grid, 13)
        np.testing.assert_array_equal(gabor_transform(f, w).values, shift_table_gabor(f, w))

    def test_gaussian_window_object_is_accepted(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        v = gabor_transform(f, gaussian_window(1.0, grid))
        assert tf_norm_lp(v, 2) == pytest.approx(1.0, rel=1e-10)


class TestCellNorms:
    def test_all_ones_matrix_hand_count(self):
        # n = 4: 16 cells of weight dx*dw = 1/4 each.
        grid = make_grid(4, 0.5)
        m = tfmatrix_from_values(grid, np.ones((4, 4)))
        assert tf_norm_lp(m, 1) == pytest.approx(4.0)
        assert tf_norm_lp(m, 2) == pytest.approx(2.0)
        assert tf_norm_lp(m, math.inf) == pytest.approx(1.0)

    def test_exponent_below_one_rejected(self):
        grid = make_grid(4, 0.5)
        m = tfmatrix_from_values(grid, np.ones((4, 4)))
        with pytest.raises(ValueError):
            tf_norm_lp(m, 0.5)


class TestSpectrogram:
    def test_total_mass_is_the_inner_product(self):
        # Orthogonality: the phase-space product integrates to <f, g> for a
        # unit window.
        grid = make_grid(256, 1 / 16)
        f, g = noise_signal(grid, 4), noise_signal(grid, 5)
        sp = spectrogram(f, g, gaussian_window(1.0, grid))
        total = grid.dx * grid.dw * sp.values.sum()
        assert total == pytest.approx(inner(f, g), abs=1e-12)

    def test_equal_arguments_give_nonnegative_density(self):
        grid = make_grid(256, 1 / 16)
        f = noise_signal(grid, 6)
        sp = spectrogram(f, f, gaussian_window(1.0, grid))
        assert np.max(np.abs(sp.values.imag)) < 1e-14
        assert sp.values.real.min() >= -1e-14

    def test_equal_arguments_transform_once(self, monkeypatch):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 7)
        window = gaussian_window(1.0, grid)
        vf = gabor_transform(f, window).values
        calls = []

        def counting(sig, win):
            calls.append(sig)
            return gabor_transform(sig, win)

        monkeypatch.setattr(transforms, "gabor_transform", counting)
        sp = spectrogram(f, f, window)
        assert len(calls) == 1
        np.testing.assert_array_equal(sp.values, np.conj(vf) * vf)

    def test_marginals_integrate_to_the_mass(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        sp = spectrogram(f, f, gaussian_window(1.0, grid))
        time_profile, freq_profile = marginals(sp)
        assert grid.dx * time_profile.sum() == pytest.approx(1.0, rel=1e-10)
        assert grid.dw * freq_profile.sum() == pytest.approx(1.0, rel=1e-10)


class TestSpectrogramMarginals:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("make_signal", [lambda g: noise_signal(g, 14), chirp], ids=["noise", "chirp"])
    def test_equal_the_dense_marginals_exactly(self, n, make_signal):
        grid = make_grid(n, 1 / 16 if n > 64 else 1 / 8)
        f, w = make_signal(grid), gaussian_window(1.0, grid)
        time_profile, freq_profile = spectrogram_marginals(f, w)
        dense_time, dense_freq = marginals(spectrogram(f, f, w))
        np.testing.assert_array_equal(time_profile, dense_time)
        np.testing.assert_array_equal(freq_profile, dense_freq)

    @pytest.mark.parametrize("n", [258, 1000])
    def test_uneven_row_blocks_equal_the_dense_marginals_exactly(self, n):
        # 258 rows would leave a 4-row tail after full 254-row blocks
        assert n % (transforms._BLOCK_BYTES // (16 * n)) != 0
        grid = make_grid(n, 1 / 16)
        f, w = noise_signal(grid, 15), gaussian_window(2.0, grid)
        time_profile, freq_profile = spectrogram_marginals(f, w)
        dense_time, dense_freq = marginals(spectrogram(f, f, w))
        np.testing.assert_array_equal(time_profile, dense_time)
        np.testing.assert_array_equal(freq_profile, dense_freq)

    def test_small_row_blocks_equal_the_dense_marginals_exactly(self, monkeypatch):
        # 3-row blocks (48 KiB) fall below numpy's 256 KiB temporary-elision
        # threshold while the dense 1 MiB array does not; both form conj(v) * v
        n = 256
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 3 * 16 * n)
        grid = make_grid(n, 1 / 16)
        f, w = noise_signal(grid, 17), gaussian_window(1.0, grid)
        time_profile, freq_profile = spectrogram_marginals(f, w)
        dense_time, dense_freq = marginals(spectrogram(f, f, w))
        np.testing.assert_array_equal(time_profile, dense_time)
        np.testing.assert_array_equal(freq_profile, dense_freq)

    def test_peak_memory_stays_below_a_quarter_of_one_dense_array(self):
        n = 2048
        grid = make_grid(n, 1 / math.sqrt(n))
        f, w = noise_signal(grid, 16), gaussian_window(1.0, grid)
        tracemalloc.start()
        try:
            spectrogram_marginals(f, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 4
        # the row and |v|^2 buffers are reused; each block allocates only its FFT output
        assert peak < 4 * transforms._BLOCK_BYTES

    @pytest.mark.parametrize(("lam2", "windows"), [(1.0, 1), (2.0, 2)])
    def test_marginal_energy_transforms_once_per_distinct_window(self, monkeypatch, lam2, windows):
        rows_per_window = {}
        rows = transforms._gabor_rows

        def counting(f, window, j0, out):
            key = window.samples.tobytes()
            rows_per_window[key] = rows_per_window.get(key, 0) + out.shape[0]
            return rows(f, window, j0, out)

        monkeypatch.setattr(transforms, "_gabor_rows", counting)
        scenario = Scenario(
            name="windows", grid_n=64, grid_dx=1 / 8, checks=("marginal-energy",),
            bound_params={"lam1": 1.0, "lam2": lam2},
        )
        run_scenario(scenario)
        # one pass over the n rows of V_w f per distinct window
        assert list(rows_per_window.values()) == [scenario.grid_n] * windows


class TestWigner:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_index_table_gather(self, n):
        grid = make_grid(n, 4.0 / math.sqrt(n))
        f, g = noise_signal(grid, 20 + n), noise_signal(grid, 30 + n)
        assert np.array_equal(wigner(f, g).values, index_table_wigner(f, g))
        assert np.array_equal(wigner(f).values, index_table_wigner(f, f))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_gaussian_closed_form(self, lam):
        # For f = (2 lam)^(1/4) exp(-pi lam t^2) the distribution is
        #   W(x, w) = 2 exp(-2 pi lam x^2) exp(-2 pi w^2 / lam).
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid, lam)
        w = wigner(f)
        x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
        closed = 2 * np.exp(-2 * np.pi * lam * x**2) * np.exp(-2 * np.pi * om**2 / lam)
        assert np.max(np.abs(w.values - closed)) < 1e-6

    def test_marginals_recover_both_densities(self):
        # The frequency marginal identity needs the extreme spectral bin
        # empty, so the random probe is low-pass filtered first.
        grid = make_grid(256, 1 / 16)
        raw = noise_signal(grid, 7)
        spec = fourier(raw)
        kept = signal_from_samples(
            grid, np.where(np.abs(grid.freqs) <= 4.0, spec.samples, 0), spec.domain
        )
        filtered = fourier(kept)
        for f in (unit_gaussian(grid), filtered):
            w = wigner(f)
            time_marginal = grid.dw * w.values.sum(axis=1)
            freq_marginal = grid.dx * w.values.sum(axis=0)
            np.testing.assert_allclose(time_marginal, np.abs(f.samples) ** 2, atol=1e-10)
            np.testing.assert_allclose(freq_marginal, np.abs(fourier(f).samples) ** 2, atol=1e-10)

    def test_self_distribution_is_real(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 8)
        assert np.max(np.abs(wigner(f).values.imag)) < 1e-10

    def test_cross_distribution_conjugate_symmetry(self):
        grid = make_grid(64, 1 / 8)
        f, g = noise_signal(grid, 9), noise_signal(grid, 10)
        np.testing.assert_allclose(wigner(f, g).values, np.conj(wigner(g, f).values), atol=1e-10)

    def test_total_mass_is_the_energy(self):
        grid = make_grid(256, 1 / 16)
        f = noise_signal(grid, 11)
        w = wigner(f)
        assert grid.dx * grid.dw * w.values.sum() == pytest.approx(energy(f), rel=1e-10)


class TestUpsample:
    def test_doubles_band_limited_samples_exactly(self):
        n = 32
        grid = make_grid(n, 0.25)
        # band-limited: only low harmonics present
        t = np.arange(n)
        vals = 1.0 + np.cos(2 * np.pi * 3 * t / n) + 1j * np.sin(2 * np.pi * 5 * t / n)
        up = trig_upsample2(vals)
        assert up.shape == (2 * n,)
        np.testing.assert_allclose(up[::2], vals, atol=1e-12)
        s = np.arange(2 * n) / 2
        want = 1.0 + np.cos(2 * np.pi * 3 * s / n) + 1j * np.sin(2 * np.pi * 5 * s / n)
        np.testing.assert_allclose(up, want, atol=1e-12)


class TestWindows:
    def test_window_is_unit_energy(self):
        grid = make_grid(256, 1 / 16)
        w = gaussian_window(2.0, grid)
        assert norm_lq(w, 2) == pytest.approx(1.0, rel=1e-12)

    def test_too_wide_for_the_grid_rejected(self):
        grid = make_grid(256, 1 / 16)
        with pytest.raises(ValueError):
            gaussian_window(1e-3, grid)

    def test_too_narrow_for_the_grid_rejected(self):
        grid = make_grid(256, 1 / 16)
        with pytest.raises(ValueError):
            gaussian_window(4096.0, grid)

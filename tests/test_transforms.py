"""Time-frequency transform tests.

Oracles: the exact cyclic energy identity for the windowed transform, the
closed-form Wigner distribution of Gaussian bumps, orthogonality relations
for phase-space inner products, and hand-countable cell sums.  The streamed
spectrogram masses are pinned bit for bit to the dense spectrogram's
marginals built here from the Gabor transform, the Gabor transform to the
explicit shift-table construction, and the Wigner distribution to the
explicit index-table gather of its lag products.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from uplab import (
    Scenario,
    energy,
    fourier,
    gabor_transform,
    gaussian_window,
    generate_signal,
    inner,
    make_grid,
    marginals,
    norm_lq,
    run_scenario,
    signal_from_samples,
    spectrogram_masses,
    tf_norm_lp,
    tfmatrix_from_values,
    trig_upsample2,
    wigner,
)
from uplab import bounds, transforms


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
    rows = np.fft.ifftshift(f.samples[None, :] * np.conj(window.samples[table]), axes=1)
    return f.grid.dx * np.fft.fftshift(np.fft.fft(rows, axis=1), axes=1)


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

    @pytest.mark.parametrize("kind", ["gaussian", "indicator"])
    def test_shifts_that_miss_the_signal_give_zero_rows_exactly(self, kind):
        # on t in [-64, 64) most window shifts meet no nonzero sample of f
        grid = make_grid(1024, 1 / 8)
        f, w = generate_signal(kind, {}, grid), gaussian_window(1.0, grid)
        v = gabor_transform(f, w).values
        assert np.count_nonzero(np.any(v, axis=1)) < grid.n // 2
        np.testing.assert_array_equal(v, shift_table_gabor(f, w))

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


def dense_masses(f, window, time_set, freq_set):
    """The oracle: the dense spectrogram's marginals, summed over each set with the dual weights."""
    time_profile, freq_profile = marginals(spectrogram(f, f, window))
    return f.grid.dx * np.sum(time_profile[time_set]), f.grid.dw * np.sum(freq_profile[freq_set])


def scattered_sets(n, seed):
    """Non-contiguous time and frequency sets: random picks plus the two outermost samples."""
    rng = np.random.default_rng(seed)
    time_set, freq_set = rng.random(n) < 0.3, rng.random(n) < 0.6
    time_set[[0, -1]] = freq_set[[0, -1]] = True
    return time_set, freq_set


def live_shifts(f, window):
    """Shifts j whose integrand f * conj(w(. - x_j)) has a nonzero sample, from explicit shift-table rows."""
    n = f.grid.n
    m = np.arange(n)
    return [j for j in range(n) if np.any(f.samples * np.conj(window.samples[(m - j + n // 2) % n]))]


def live_shift_count(f, window):
    return len(live_shifts(f, window))


def fft_rows(monkeypatch):
    """Patch numpy's fft to record the rows of every call; returns the list of row counts."""
    calls, fft = [], np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


class TestSpectrogramMasses:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("make_signal", [lambda g: noise_signal(g, 14), chirp], ids=["noise", "chirp"])
    def test_equal_the_dense_masses_exactly(self, n, make_signal):
        grid = make_grid(n, 1 / 16 if n > 64 else 1 / 8)
        f, w = make_signal(grid), gaussian_window(1.0, grid)
        time_set, freq_set = scattered_sets(n, n)
        np.testing.assert_array_equal(spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set))

    @pytest.mark.parametrize("n", [258, 1000])
    def test_uneven_row_blocks_equal_the_dense_masses_exactly(self, n):
        # 258 rows would leave a 4-row tail after full 254-row blocks
        assert n % (transforms._BLOCK_BYTES // (16 * n)) != 0
        grid = make_grid(n, 1 / 16)
        f, w = noise_signal(grid, 15), gaussian_window(2.0, grid)
        time_set, freq_set = scattered_sets(n, 15)
        np.testing.assert_array_equal(spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set))

    def test_small_row_blocks_equal_the_dense_masses_exactly(self, monkeypatch):
        # 3-row blocks (48 KiB) fall below numpy's 256 KiB temporary-elision
        # threshold while the dense 1 MiB array does not; both form conj(v) * v
        n = 256
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 3 * 16 * n)
        grid = make_grid(n, 1 / 16)
        f, w = noise_signal(grid, 17), gaussian_window(1.0, grid)
        time_set, freq_set = scattered_sets(n, 17)
        np.testing.assert_array_equal(spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set))

    @pytest.mark.parametrize("make_signal", [unit_gaussian, lambda g: generate_signal("indicator", {}, g)], ids=["gaussian", "indicator"])
    def test_underflowing_tails_equal_the_dense_masses_exactly(self, make_signal):
        # on t in [-64, 64) the signal and the window are exactly 0.0 past |t| ~ 15,
        # so most window shifts meet no sample of f and are skipped
        grid = make_grid(1024, 1 / 8)
        f, w = make_signal(grid), gaussian_window(1.0, grid)
        assert live_shift_count(f, w) < grid.n // 2
        for time_set, freq_set in (scattered_sets(grid.n, 18), (np.abs(grid.times) < 2, np.abs(grid.freqs) < 1)):
            np.testing.assert_array_equal(
                spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set)
            )

    def test_one_empty_set_gives_zero_and_leaves_the_other_mass_exact(self):
        grid = make_grid(256, 1 / 16)
        f, w = noise_signal(grid, 19), gaussian_window(1.0, grid)
        time_set, freq_set = scattered_sets(grid.n, 19)
        empty = np.zeros(grid.n, dtype=bool)
        mass_t, mass_w = dense_masses(f, w, time_set, freq_set)
        assert spectrogram_masses(f, w, time_set, empty) == (mass_t, 0)
        assert spectrogram_masses(f, w, empty, freq_set) == (0, mass_w)

    def test_sets_must_flag_every_grid_sample(self):
        grid = make_grid(64, 1 / 8)
        f, w = noise_signal(grid, 22), gaussian_window(1.0, grid)
        full = np.ones(grid.n, dtype=bool)
        for time_set, freq_set in ((full[:-1], full), (full, np.ones((2, grid.n), dtype=bool))):
            with pytest.raises(ValueError, match="sets must flag the 64 grid samples"):
                spectrogram_masses(f, w, time_set, freq_set)

    @pytest.mark.parametrize("kind", ["gaussian", "random_bandlimited"])
    def test_transforms_only_the_shifts_that_meet_the_signal(self, monkeypatch, kind):
        grid = make_grid(1024, 1 / 8)
        f, w = generate_signal(kind, {}, grid), gaussian_window(1.0, grid)
        expected = live_shift_count(f, w)
        assert expected < grid.n // 2 if kind == "gaussian" else expected == grid.n
        rows = fft_rows(monkeypatch)
        spectrogram_masses(f, w, *scattered_sets(grid.n, 20))
        assert sum(rows) == expected

    def test_peak_memory_stays_below_a_quarter_of_one_dense_array(self):
        n = 2048
        grid = make_grid(n, 1 / math.sqrt(n))
        f, w = noise_signal(grid, 16), gaussian_window(1.0, grid)
        # full sets read every cell: the most the stream holds at once
        full = np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            spectrogram_masses(f, w, full, full)
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

        def counting(fz, shifts, dx, j0, out, spectrum):
            # the gather's last row is conj(w) itself
            key = shifts[-1].tobytes()
            rows_per_window[key] = rows_per_window.get(key, 0) + out.shape[0]
            return rows(fz, shifts, dx, j0, out, spectrum)

        monkeypatch.setattr(transforms, "_gabor_rows", counting)
        scenario = Scenario(
            name="windows", grid_n=64, grid_dx=1 / 8, checks=("marginal-energy",),
            bound_params={"lam1": 1.0, "lam2": lam2},
        )
        run_scenario(scenario)
        # one pass over the n rows of V_w f per distinct window
        assert list(rows_per_window.values()) == [scenario.grid_n] * windows

    def test_marginal_energy_with_two_windows_matches_the_dense_oracle(self):
        lam1, lam2 = 1.0, 2.0
        scenario = Scenario(
            name="two-windows", grid_n=256, grid_dx=1 / 16, checks=("marginal-energy",),
            sets={"mode": "explicit", "time": [[-3.0, -0.0625], [0.0, 3.0]], "frequency": [[-3.0, -0.0625], [0.0, 3.0]]},
            bound_params={"lam1": lam1, "lam2": lam2},
        )
        grid = make_grid(scenario.grid_n, scenario.grid_dx)
        f = generate_signal(scenario.signal_kind, scenario.signal_params, grid)
        # one sample cut out of each set at -1/16
        in_t, in_w = ((-3.0 <= ax) & (ax < 3.0) & (ax != -0.0625) for ax in (grid.times, grid.freqs))
        mass_t, _ = dense_masses(f, gaussian_window(lam1, grid), in_t, in_w)
        _, mass_w = dense_masses(f, gaussian_window(lam2, grid), in_t, in_w)
        m_t, m_w = min(abs(complex(mass_t)), 1.0), min(abs(complex(mass_w)), 1.0)
        rhs = bounds.improved_bound(math.sqrt(1.0 - m_t**2), math.sqrt(1.0 - m_w**2)).value
        (verdict,) = run_scenario(scenario).verdicts
        assert verdict.status != "skipped"
        assert verdict.rhs == rhs
        assert verdict.notes == f"witness g=f; marginal masses m_t={m_t:.6f} m_omega={m_w:.6f}"


def bumps(grid, *centres):
    """Unit Gaussian bumps at the given centres, each also placed one period away,
    so a bump by the edge wraps around it; samples between bumps underflow to 0.0."""
    period = grid.n * grid.dx
    t = grid.times
    return signal_from_samples(
        grid, sum(np.exp(-np.pi * (t - c - k * period) ** 2) for c in centres for k in (-1, 0, 1))
    )


def signal_cases(grid):
    return {
        "edge": bumps(grid, 0.47 * grid.n * grid.dx),
        "two-bumps": bumps(grid, -0.3 * grid.n * grid.dx, 0.3 * grid.n * grid.dx),
        "gaussian": unit_gaussian(grid),
        "noise": noise_signal(grid, 23),
    }


def chunk_threads(monkeypatch):
    """Patch _gabor_rows to record the thread of every chunk; returns the list of (j0, thread ident)."""
    calls, rows = [], transforms._gabor_rows

    def recording(fz, shifts, dx, j0, out, spectrum):
        calls.append((j0, threading.get_ident()))
        return rows(fz, shifts, dx, j0, out, spectrum)

    monkeypatch.setattr(transforms, "_gabor_rows", recording)
    return calls


class TestThreadedStream:
    # 1024 samples on t in [-64, 64): supports end where the bumps underflow, |t - c| ~ 15
    grid = make_grid(1024, 1 / 8)

    @pytest.mark.parametrize("kind", ["edge", "two-bumps", "gaussian", "noise"])
    def test_hull_candidates_hold_every_live_shift(self, kind):
        f, w = signal_cases(self.grid)[kind], gaussian_window(1.0, self.grid)
        candidates = [j for start, stop in transforms._candidate_runs(f, w) for j in range(start, stop)]
        assert candidates == sorted(set(candidates))
        live = live_shifts(f, w)
        assert set(live) <= set(candidates)
        if kind == "edge":  # the live shifts wrap around the grid edge
            assert 0 in live and self.grid.n - 1 in live and len(live) < self.grid.n // 2
        if kind == "two-bumps":  # the hull holds dead shifts between the bumps
            assert len(live) < len(candidates) < self.grid.n

    def test_the_hull_of_a_single_sample_and_of_no_sample(self):
        samples = np.zeros(16)
        assert transforms._cyclic_hull(samples) == (0, 0)
        samples[5] = 1.0
        assert transforms._cyclic_hull(samples) == (5, 1)
        samples[[0, 15]] = 1.0  # 15, 0 and 5: the hull wraps round the edge
        assert transforms._cyclic_hull(samples) == (15, 7)

    @pytest.mark.parametrize("kind", ["edge", "two-bumps", "gaussian", "noise"])
    @pytest.mark.parametrize("height", [1, 3, 8])
    def test_alternating_chunks_equal_the_dense_masses_exactly(self, monkeypatch, kind, height):
        # blocks of 2 * height rows: each of the two threads takes chunks of height rows in turn
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 2 * height * 16 * self.grid.n)
        monkeypatch.setattr(transforms, "_usable_cpus", lambda: 2)
        f, w = signal_cases(self.grid)[kind], gaussian_window(1.0, self.grid)
        calls = chunk_threads(monkeypatch)
        for time_set, freq_set in (scattered_sets(self.grid.n, 24), (np.abs(self.grid.times) > 50, np.abs(self.grid.freqs) < 1)):
            calls.clear()
            np.testing.assert_array_equal(
                spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set)
            )
            chunks = sorted(calls)
            assert len(chunks) > 2
            # consecutive chunks in time belong to different threads
            assert all(a[1] != b[1] for a, b in zip(chunks, chunks[1:]) if b[0] == a[0] + height)
            assert threading.get_ident() in {ident for _, ident in calls}

    def test_one_cpu_streams_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 4 * 16 * self.grid.n)
        monkeypatch.setattr(transforms, "_usable_cpus", lambda: 1)
        f, w = signal_cases(self.grid)["edge"], gaussian_window(1.0, self.grid)
        time_set, freq_set = scattered_sets(self.grid.n, 25)
        calls = chunk_threads(monkeypatch)
        np.testing.assert_array_equal(spectrogram_masses(f, w, time_set, freq_set), dense_masses(f, w, time_set, freq_set))
        assert len(calls) > 2 and {ident for _, ident in calls} == {threading.get_ident()}

    def test_a_stream_of_one_block_stays_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(transforms, "_usable_cpus", lambda: 2)
        grid = make_grid(256, 1 / 16)
        f, w = noise_signal(grid, 26), gaussian_window(1.0, grid)
        calls = chunk_threads(monkeypatch)
        spectrogram_masses(f, w, *scattered_sets(grid.n, 26))
        assert calls == [(0, threading.get_ident())]

    def test_a_failing_helper_chunk_is_raised_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", 8 * 16 * 256)
        monkeypatch.setattr(transforms, "_usable_cpus", lambda: 2)
        rows, caller = transforms._gabor_rows, threading.get_ident()

        def failing(fz, shifts, dx, j0, out, spectrum):
            if threading.get_ident() != caller:
                raise RuntimeError(f"chunk at row {j0} failed")
            return rows(fz, shifts, dx, j0, out, spectrum)

        monkeypatch.setattr(transforms, "_gabor_rows", failing)
        grid = make_grid(256, 1 / 16)
        f, w = noise_signal(grid, 27), gaussian_window(1.0, grid)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk at row 4 failed"):
            spectrogram_masses(f, w, *scattered_sets(grid.n, 27))
        assert threading.active_count() == before
        scenario = Scenario(name="failing", grid_n=256, grid_dx=1 / 16, checks=("marginal-energy",))
        (verdict,) = run_scenario(scenario).verdicts
        assert verdict.status == "fail"
        assert verdict.notes == "error: chunk at row 4 failed"
        assert threading.active_count() == before


class TestWigner:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_index_table_gather(self, n):
        grid = make_grid(n, 4.0 / math.sqrt(n))
        f, g = noise_signal(grid, 20 + n), noise_signal(grid, 30 + n)
        assert np.array_equal(wigner(f, g).values, index_table_wigner(f, g))
        assert np.array_equal(wigner(f).values, index_table_wigner(f, f))

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_lag_products_at_any_block_height_and_row_order(self, monkeypatch, rows):
        # the n-by-2n products are folded in row blocks, cut where the destination
        # rows wrap: every height gives the gather's bits, and shift n/2 is ifftshift
        n = 64
        grid = make_grid(n, 0.5)
        f, g = noise_signal(grid, 40), noise_signal(grid, 41)
        monkeypatch.setattr(transforms, "_BLOCK_BYTES", rows * 32 * n)
        assert np.array_equal(wigner(f, g).values, index_table_wigner(f, g))
        natural = transforms._wigner_lags(f, g, 0)
        assert np.array_equal(transforms._wigner_lags(f, g, n // 2), np.fft.ifftshift(natural, axes=0))

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

"""Grid, signal, and centered-transform tests.

The transform oracle is a direct O(n^2) evaluation of
    fhat(w_k) = dx * sum_j f(t_j) exp(-2*pi*i*w_k*t_j)
on the centered axes, independent of the FFT path under test.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplab import (
    FREQUENCY,
    TIME,
    boundary_energy_fraction,
    energy,
    fourier,
    gabor_transform,
    gaussian_smoothed_indicator,
    gaussian_window,
    inner,
    linear_op,
    localization_operator,
    make_grid,
    mask_from_flags,
    minimal_concentration_set,
    norm_lq,
    read_signal_csv,
    signal_from_samples,
    smoothed_concentration_ops,
    tfmatrix_from_values,
    weyl_from_localization,
    weyl_operator,
    wigner,
    write_signal_csv,
)
from uplab.core import _quadrature_lq


def noise_signal(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return signal_from_samples(grid, v)


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return signal_from_samples(grid, samples)


class TestGrid:
    def test_spacings_multiply_to_unit_cell(self):
        grid = make_grid(256, 1 / 16)
        assert grid.n * grid.dx * grid.dw == pytest.approx(1.0, rel=1e-15)
        assert grid.n * grid.dx == pytest.approx(16.0)

    def test_axes_are_centered(self):
        grid = make_grid(64, 1 / 8)
        assert grid.times[0] == pytest.approx(-4.0)
        assert grid.times[32] == pytest.approx(0.0)
        assert grid.freqs[32] == pytest.approx(0.0)
        assert grid.freqs[1] - grid.freqs[0] == pytest.approx(grid.dw)
        np.testing.assert_array_equal(grid.axis(TIME), grid.times)
        np.testing.assert_array_equal(grid.axis(FREQUENCY), grid.freqs)
        assert grid.spacing(TIME) == grid.dx
        assert grid.spacing(FREQUENCY) == grid.dw

    @pytest.mark.parametrize("n,dx", [(5, 0.1), (2, 0.1), (0, 0.1), (64, 0.0), (64, -1.0)])
    def test_rejects_bad_parameters(self, n, dx):
        with pytest.raises(ValueError):
            make_grid(n, dx)


class TestSignal:
    def test_wrong_length_rejected(self):
        grid = make_grid(8, 0.5)
        with pytest.raises(ValueError):
            signal_from_samples(grid, np.ones(7))

    def test_bad_domain_rejected(self):
        grid = make_grid(8, 0.5)
        with pytest.raises(ValueError):
            signal_from_samples(grid, np.ones(8), "momentum")

    def test_axis_follows_domain(self):
        grid = make_grid(8, 0.5)
        f = signal_from_samples(grid, np.ones(8), FREQUENCY)
        assert f.spacing == grid.dw
        np.testing.assert_allclose(f.axis, grid.freqs)


def _immutability_inputs():
    grid = make_grid(64, 1 / 8)
    x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
    return SimpleNamespace(
        f=noise_signal(grid, 21),
        g=noise_signal(grid, 22),
        w=gaussian_window(1.0, grid),
        symbol=tfmatrix_from_values(grid, np.exp(-np.pi * (x**2 + om**2))),
        mask_t=mask_from_flags(grid, TIME, np.abs(grid.times) < 1),
        mask_w=mask_from_flags(grid, FREQUENCY, np.abs(grid.freqs) < 1),
    )


# the array each public function returns, read from the inputs above
_RESULTS = {
    "fourier": lambda x: fourier(x.f).samples,
    "gabor_transform": lambda x: gabor_transform(x.f, x.w).values,
    "wigner-auto": lambda x: wigner(x.f).values,
    "wigner-cross": lambda x: wigner(x.f, x.g).values,
    "localization_operator": lambda x: localization_operator(x.symbol, x.w, x.w).matrix,
    "weyl_operator": lambda x: weyl_operator(x.symbol).matrix,
    "weyl_from_localization": lambda x: weyl_from_localization(x.symbol, x.w, x.w).matrix,
    "smoothed-time-op": lambda x: smoothed_concentration_ops(x.mask_t, x.mask_w, 1.0, 1.0)[0].matrix,
    "smoothed-freq-op": lambda x: smoothed_concentration_ops(x.mask_t, x.mask_w, 1.0, 1.0)[1].matrix,
    "gaussian_smoothed_indicator": lambda x: gaussian_smoothed_indicator(x.mask_t, 1.0).values,
    "minimal_concentration_set": lambda x: minimal_concentration_set(x.f, 0.1).flags,
}

# constructors from a caller's array on an 8-point grid: (shape, dtype, stored array)
_CONSTRUCTORS = {
    "signal_from_samples": ((8,), np.complex128, lambda grid, v: signal_from_samples(grid, v).samples),
    "mask_from_flags": ((8,), np.bool_, lambda grid, v: mask_from_flags(grid, TIME, v).flags),
    "tfmatrix_from_values": ((8, 8), np.complex128, lambda grid, v: tfmatrix_from_values(grid, v).values),
    "linear_op": ((8, 8), np.complex128, lambda grid, v: linear_op(grid, v).matrix),
}


class TestImmutability:
    """Results are read-only, and the constructors that take a caller's
    array copy it, as the module docstring promises."""

    @pytest.mark.parametrize("name", list(_RESULTS))
    def test_results_are_read_only(self, name):
        arr = _RESULTS[name](_immutability_inputs())
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]

    @pytest.mark.parametrize("name", list(_CONSTRUCTORS))
    def test_constructors_copy_the_callers_array(self, name):
        # the caller's array already has the stored dtype, so no conversion copies it
        shape, dtype, stored_array = _CONSTRUCTORS[name]
        given = np.ones(shape, dtype=dtype)
        stored = stored_array(make_grid(8, 0.5), given)
        given[...] = 0
        np.testing.assert_array_equal(stored, np.ones(shape, dtype=dtype))
        assert not stored.flags.writeable


class TestFourier:
    def test_matches_direct_quadrature_sum(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 0)
        phase = np.exp(-2j * np.pi * np.outer(grid.freqs, grid.times))
        oracle = grid.dx * phase @ f.samples
        got = fourier(f)
        assert got.domain == FREQUENCY
        np.testing.assert_allclose(got.samples, oracle, atol=1e-12)

    def test_round_trip_is_identity(self):
        grid = make_grid(256, 1 / 16)
        f = noise_signal(grid, 1)
        back = fourier(fourier(f))
        assert back.domain == TIME
        np.testing.assert_allclose(back.samples, f.samples, atol=1e-12)

    def test_double_transform_reverses_samples(self):
        # On the self-dual grid (dw == dx) the transform of the transform
        # is the cyclic reversal t -> -t.
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 2)
        fh = fourier(f)
        twice = fourier(signal_from_samples(grid, fh.samples))
        idx = np.arange(grid.n)
        np.testing.assert_allclose(twice.samples, f.samples[(grid.n - idx) % grid.n], atol=1e-12)

    def test_energy_and_inner_product_preserved(self):
        grid = make_grid(256, 1 / 16)
        f, g = noise_signal(grid, 3), noise_signal(grid, 4)
        assert energy(fourier(f)) == pytest.approx(energy(f), rel=1e-12)
        assert inner(fourier(f), fourier(g)) == pytest.approx(inner(f, g), rel=1e-12)

    def test_standard_gaussian_is_a_fixed_point(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        np.testing.assert_allclose(fourier(f).samples, f.samples, atol=1e-12)

    def test_shift_becomes_modulation(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 5)
        m = 7
        shifted = signal_from_samples(grid, np.roll(f.samples, m))
        want = fourier(f).samples * np.exp(-2j * np.pi * grid.freqs * m * grid.dx)
        np.testing.assert_allclose(fourier(shifted).samples, want, atol=1e-12)

    def test_modulation_becomes_shift(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 6)
        k = 5
        modulated = signal_from_samples(grid, f.samples * np.exp(2j * np.pi * k * grid.dw * grid.times))
        np.testing.assert_allclose(fourier(modulated).samples, np.roll(fourier(f).samples, k), atol=1e-12)


class TestNorms:
    def test_single_spike_values(self):
        grid = make_grid(4, 0.5)
        f = signal_from_samples(grid, [1.0, 0.0, 0.0, 0.0])
        assert norm_lq(f, 1) == pytest.approx(0.5)
        assert norm_lq(f, 2) == pytest.approx(math.sqrt(0.5))
        assert norm_lq(f, math.inf) == pytest.approx(1.0)
        assert norm_lq(f, 2) == pytest.approx(math.sqrt(energy(f)))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3), q=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous_in_the_signal(self, scale, q):
        grid = make_grid(16, 0.25)
        f = noise_signal(grid, 7)
        scaled = signal_from_samples(grid, scale * f.samples)
        assert norm_lq(scaled, q) == pytest.approx(scale * norm_lq(f, q), rel=1e-10)

    @given(seed=st.integers(min_value=0, max_value=50), q=st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed, q):
        grid = make_grid(16, 0.25)
        f, g = noise_signal(grid, seed), noise_signal(grid, seed + 1000)
        both = signal_from_samples(grid, f.samples + g.samples)
        assert norm_lq(both, q) <= norm_lq(f, q) + norm_lq(g, q) + 1e-12

    def test_rejects_exponents_below_one(self):
        grid = make_grid(8, 0.5)
        f = noise_signal(grid, 8)
        with pytest.raises(ValueError):
            norm_lq(f, 0.5)

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5, math.inf])
    def test_empty_magnitudes_have_zero_norm(self, q):
        # the moment norm of the zero signal sums over no samples
        assert _quadrature_lq(np.empty(0), 0.5, q) == 0.0

    def test_empty_magnitudes_still_reject_exponents_below_one(self):
        with pytest.raises(ValueError):
            _quadrature_lq(np.empty(0), 0.5, 0.5)


class TestBoundaryEnergy:
    def test_flat_signal_fraction_is_six_cells(self):
        grid = make_grid(256, 1 / 16)
        f = signal_from_samples(grid, np.ones(256))
        assert boundary_energy_fraction(f) == pytest.approx(6 / 256, rel=1e-12)

    def test_edge_windows_do_not_overlap_on_a_small_grid(self):
        grid = make_grid(4, 0.5)
        f = signal_from_samples(grid, np.ones(4))
        assert boundary_energy_fraction(f) == 1.0

    @pytest.mark.parametrize("n", [6, 64, 1024])
    def test_clamp_leaves_three_cell_edges_unchanged(self, n):
        # from n = 6 the two three-cell edges are disjoint, and the fraction
        # must equal the plain edge sums bit for bit
        f = noise_signal(make_grid(n, 8.0 / n), n)
        e = np.abs(f.samples) ** 2
        assert boundary_energy_fraction(f) == float((e[:3].sum() + e[-3:].sum()) / float(e.sum()))

    def test_centered_gaussian_is_negligible(self):
        grid = make_grid(256, 1 / 16)
        assert boundary_energy_fraction(unit_gaussian(grid)) < 1e-10

    def test_zero_signal_is_zero(self):
        grid = make_grid(8, 0.5)
        f = signal_from_samples(grid, np.zeros(8))
        assert boundary_energy_fraction(f) == 0.0


class TestSignalCsv:
    def test_round_trip_preserves_everything(self, tmp_path):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 9)
        path = tmp_path / "sig.csv"
        write_signal_csv(f, path)
        back = read_signal_csv(path)
        assert back.grid == f.grid
        assert back.domain == f.domain
        np.testing.assert_array_equal(back.samples, f.samples)

    def test_frequency_domain_round_trip(self, tmp_path):
        grid = make_grid(64, 1 / 8)
        f = fourier(noise_signal(grid, 10))
        path = tmp_path / "sig.csv"
        write_signal_csv(f, path)
        assert read_signal_csv(path).domain == FREQUENCY

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,t,re,im\n0,0.0,1.0,0.0\n")
        with pytest.raises(ValueError):
            read_signal_csv(path)

    def test_missing_rows_rejected(self, tmp_path):
        grid = make_grid(8, 0.5)
        f = noise_signal(grid, 11)
        path = tmp_path / "short.csv"
        write_signal_csv(f, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            read_signal_csv(path)

    def test_duplicate_row_index_rejected(self, tmp_path):
        # a repeated index would overwrite the earlier row and leave its
        # intended slot at zero, so the reader must refuse it
        grid = make_grid(8, 0.5)
        f = noise_signal(grid, 12)
        path = tmp_path / "dup.csv"
        write_signal_csv(f, path)
        lines = path.read_text().splitlines()
        row3 = lines[2 + 3]
        lines[2 + 5] = "3," + row3.split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate row index 3"):
            read_signal_csv(path)

"""Mask and concentration tests.

Oracles: the Gaussian tail defect against the complementary error function,
greedy set selection against exhaustive subset enumeration at small n and
against the cell-by-cell admission loop, closed-form moments of the standard
Gaussian, moment norms against the quadrature over all n samples, and the
Gaussian's continuum set measures and spread product under grid refinement.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import erfc, erfcinv

from uplab import (
    FREQUENCY,
    TIME,
    concentration_defect,
    energy_centroid,
    fourier,
    make_grid,
    mask_from_flags,
    minimal_concentration_set,
    signal_from_samples,
    std_dev,
    support_mask,
    weighted_moment_norm,
)
from uplab.core import _quadrature_lq


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return signal_from_samples(grid, samples)


def noise_signal(grid, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return signal_from_samples(grid, v)


def window_mask(grid, axis, lo, hi):
    """Mask of the cells whose axis value lies in the closed window [lo, hi]."""
    values = grid.axis(axis)
    return mask_from_flags(grid, axis, (values >= lo) & (values <= hi))


def greedy_loop_flags(f, epsilon):
    """Admit cells one at a time, most energetic first (ties by index), until
    the excluded energy is at most epsilon^2 ||f||^2."""
    e = np.abs(f.samples) ** 2
    total = float(e.sum())
    order = np.argsort(-e, kind="stable")
    flags = np.zeros(f.grid.n, dtype=bool)
    budget = epsilon * epsilon * total
    excluded = total
    for j in order:
        if excluded <= budget:
            break
        flags[j] = True
        excluded -= float(e[j])
    return flags


class TestMasks:
    def test_window_measure_counts_cells(self):
        grid = make_grid(256, 1 / 16)
        mask = window_mask(grid, TIME, -1.0, 1.0)
        # closed window: 33 cell centers from -1.0 to 1.0 inclusive
        assert np.count_nonzero(mask.flags) == 33
        assert mask.measure == pytest.approx(33 / 16)

    def test_complement_partitions_the_grid(self):
        grid = make_grid(64, 1 / 8)
        mask = window_mask(grid, TIME, 0.0, 2.0)
        comp = mask_from_flags(grid, TIME, ~mask.flags)
        assert np.count_nonzero(mask.flags) + np.count_nonzero(comp.flags) == grid.n
        assert not np.any(mask.flags & comp.flags)


class TestDefect:
    def test_gaussian_tail_matches_erfc(self):
        # Excluded mass of the unit Gaussian outside [-a, a]; the discrete
        # cells cover [-a - dx/2, a + dx/2], so the continuum tail is taken at
        # the outer cell edge.  Midpoint quadrature is accurate to ~1e-3 here.
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        a = 0.75
        mask = window_mask(grid, TIME, -a, a)
        want = math.sqrt(erfc(math.sqrt(2 * math.pi) * (a + grid.dx / 2)))
        assert concentration_defect(f, mask) == pytest.approx(want, rel=1e-2)

    def test_defect_and_complement_defect_partition_energy(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 0)
        mask = window_mask(grid, TIME, -1.0, 2.0)
        d1 = concentration_defect(f, mask)
        d2 = concentration_defect(f, mask_from_flags(grid, TIME, ~mask.flags))
        assert d1 * d1 + d2 * d2 == pytest.approx(1.0, abs=1e-12)

    def test_full_mask_gives_zero_defect(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 1)
        assert concentration_defect(f, mask_from_flags(grid, TIME, np.ones(64, dtype=bool))) == 0.0

    def test_zero_signal_rejected(self):
        grid = make_grid(8, 0.5)
        z = signal_from_samples(grid, np.zeros(8))
        measures = {
            "concentration defect": lambda: concentration_defect(z, window_mask(grid, TIME, 0.0, 1.0)),
            "concentration set": lambda: minimal_concentration_set(z, 0.1),
            "centroid": lambda: energy_centroid(z),
        }
        for quantity, measure in measures.items():
            with pytest.raises(ValueError, match=f"^{quantity} of the zero signal is undefined$"):
                measure()

    def test_axis_mismatch_rejected(self):
        grid = make_grid(8, 0.5)
        f = noise_signal(grid, 2)
        with pytest.raises(ValueError):
            concentration_defect(f, window_mask(grid, FREQUENCY, 0.0, 1.0))


class TestMinimalSet:
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_greedy_matches_subset_enumeration(self, n, seed):
        grid = make_grid(n, 0.5)
        f = noise_signal(grid, seed)
        e = np.abs(f.samples) ** 2
        total = e.sum()
        for eps in (0.0, 0.2, 0.5, 0.9):
            greedy = np.count_nonzero(minimal_concentration_set(f, eps).flags)
            best = n
            for bits in itertools.product((0, 1), repeat=n):
                flags = np.array(bits, dtype=bool)
                if e[~flags].sum() <= eps * eps * total + 1e-15:
                    best = min(best, int(flags.sum()))
            assert greedy == best

    def test_uniform_four_cells_at_half(self):
        # Four equal cells, eps = 1/2: dropping one cell leaves exactly a
        # quarter of the energy outside, so three cells suffice.
        grid = make_grid(4, 0.25)
        f = signal_from_samples(grid, np.ones(4))
        mask = minimal_concentration_set(f, 0.5)
        assert np.count_nonzero(mask.flags) == 3
        assert concentration_defect(f, mask) == pytest.approx(0.5, abs=1e-12)

    def test_zero_epsilon_keeps_exactly_the_support(self):
        grid = make_grid(256, 1 / 16)
        samples = np.where(np.abs(grid.times) < 1.0, 1.0, 0.0)
        f = signal_from_samples(grid, samples)
        mask = minimal_concentration_set(f, 0.0)
        assert np.count_nonzero(mask.flags) == int(np.count_nonzero(samples))
        assert concentration_defect(f, mask) == 0.0

    def test_achieved_defect_never_exceeds_request(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 3)
        for eps in (0.05, 0.3, 0.7):
            assert concentration_defect(f, minimal_concentration_set(f, eps)) <= eps + 1e-12

    def test_frequency_axis_uses_the_spectrum(self):
        grid = make_grid(64, 1 / 8)
        fhat = fourier(unit_gaussian(grid))
        assert minimal_concentration_set(fhat, 0.1).axis == FREQUENCY

    def test_epsilon_out_of_range_rejected(self):
        grid = make_grid(8, 0.5)
        f = noise_signal(grid, 4)
        with pytest.raises(ValueError):
            minimal_concentration_set(f, 1.5)

    def test_flags_match_the_admission_loop(self):
        # ties, exact zeros, magnitudes spread over 1e+-150 and all-equal
        # cells; the subtraction order is the loop's, so flags agree exactly
        rng = np.random.default_rng(11)
        for case in range(160):
            n = int(rng.choice([4, 6, 16, 64, 130]))
            kind = case % 4
            if kind == 0:
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            elif kind == 1:
                v = rng.integers(0, 3, n).astype(float)
            elif kind == 2:
                v = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 151, n)
                v[rng.random(n) < 0.5] = 0.0
            else:
                v = np.full(n, 10.0 ** rng.integers(-150, 151))
            if not np.any(v):
                v[0] = 1.0
            f = signal_from_samples(make_grid(n, 0.5), v)
            for eps in (0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9, 1.0):
                got = minimal_concentration_set(f, eps).flags
                np.testing.assert_array_equal(got, greedy_loop_flags(f, eps), err_msg=f"case {case}, eps {eps}")

    def test_zero_epsilon_on_full_support_admits_every_cell(self):
        grid = make_grid(16, 0.5)
        f = noise_signal(grid, 6)
        assert np.count_nonzero(minimal_concentration_set(f, 0.0).flags) == grid.n


class TestMoments:
    def test_gaussian_standard_deviation(self):
        # Var of the |f|^2 distribution for the unit Gaussian is 1/(4*pi).
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        want = 1 / (2 * math.sqrt(math.pi))
        assert std_dev(f, 0.0) == pytest.approx(want, rel=1e-6)
        assert weighted_moment_norm(f, 0.0, 1.0, 2.0) == pytest.approx(want, rel=1e-6)

    def test_std_dev_defaults_to_the_centroid(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        shifted = signal_from_samples(grid, np.roll(f.samples, 16))
        assert std_dev(shifted) == pytest.approx(std_dev(f, 0.0), rel=1e-6)

    def test_centroid_tracks_shifts(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        for m in (-24, 0, 16):
            shifted = signal_from_samples(grid, np.roll(f.samples, m))
            assert energy_centroid(shifted) == pytest.approx(m * grid.dx, abs=1e-9)

    def test_centroid_minimizes_the_quadratic_moment(self):
        grid = make_grid(64, 1 / 8)
        f = noise_signal(grid, 5)
        c = energy_centroid(f)
        base = weighted_moment_norm(f, c, 1.0, 2.0)
        for offset in (-0.5, -0.1, 0.1, 0.5):
            assert weighted_moment_norm(f, c + offset, 1.0, 2.0) >= base - 1e-12

    def test_moment_scales_with_alpha(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        # second absolute moment of N(0, 1/(4 pi)) in L2: E[t^4]^(1/2) with
        # E t^4 = 3 sigma^4 -> sqrt(3)/(4 pi)
        want = math.sqrt(3.0) / (4 * math.pi)
        assert weighted_moment_norm(f, 0.0, 2.0, 2.0) == pytest.approx(want, rel=1e-6)


    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("alpha", [0.7, 2.5])
    def test_moment_matches_direct_quadrature_for_a_complex_chirp(self, q, alpha):
        grid = make_grid(128, 1 / 8)
        t = grid.times
        f = signal_from_samples(grid, 2**0.25 * np.exp(-np.pi * t**2) * np.exp(1j * np.pi * 2.0 * t**2))
        for g, center in ((f, 0.3 * grid.dx + 0.017), (fourier(f), -0.41 * grid.dw - 0.05)):
            weighted = np.abs(g.axis - center) ** alpha * np.abs(g.samples)
            if math.isinf(q):
                want = weighted.max()
            else:
                want = (g.spacing * np.sum(weighted**q)) ** (1 / q)
            assert weighted_moment_norm(g, center, alpha, q) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    @pytest.mark.parametrize("alpha", [0.7, 2.5, 8.0])
    def test_signals_with_exact_zeros_match_the_full_quadrature(self, q, alpha):
        # The quadrature over all n samples, scaled by the peak as core's is;
        # exact zeros add exactly 0, so only the summation order may differ.
        grid = make_grid(1024, 1 / 16)
        t = grid.times
        indicator = signal_from_samples(grid, ((t >= -1.0) & (t < 1.0)).astype(float))
        spike = signal_from_samples(grid, np.eye(1, grid.n, 700)[0])
        # exp underflows past |t| ~ 15.4: exact zeros and subnormals in the tails
        gaussian = signal_from_samples(grid, np.exp(-np.pi * t**2))
        assert 0 < np.count_nonzero(gaussian.samples) < grid.n
        cases = [
            (indicator, 0.3),
            (indicator, t[0]),  # centre on a zero sample
            (spike, -1.7),
            (gaussian, 0.11),
            (gaussian, t[3]),
            (fourier(indicator), 0.05),
        ]
        for g, center in cases:
            weighted = np.abs(g.axis - center) ** alpha * np.abs(g.samples)
            peak = weighted.max()
            if math.isinf(q):
                want = peak
            else:
                want = peak * (g.spacing * np.sum((weighted / peak) ** q)) ** (1 / q)
            assert weighted_moment_norm(g, center, alpha, q) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, math.inf])
    @pytest.mark.parametrize("alpha", [0.7, 2.5, 8.0])
    def test_full_support_is_the_full_array_formula_bit_for_bit(self, q, alpha):
        grid = make_grid(128, 1 / 8)
        for g, center in ((noise_signal(grid, 9), 0.37), (fourier(noise_signal(grid, 10)), -0.21)):
            assert np.all(g.samples != 0)
            weighted = np.abs(g.axis - center)
            weighted **= alpha
            weighted *= np.abs(g.samples)
            assert weighted_moment_norm(g, center, alpha, q) == _quadrature_lq(weighted, g.spacing, q)

    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    def test_moment_of_the_zero_signal_is_zero(self, q):
        grid = make_grid(16, 0.5)
        f = signal_from_samples(grid, np.zeros(grid.n))
        assert weighted_moment_norm(f, 0.3, 1.5, q) == 0.0


class TestGaussianGridRefinement:
    """The unit Gaussian 2^(1/4) e^(-pi t^2) at n = 256 ... 65536 with n dx^2 = 1.

    dx = dw = 1/sqrt(n) is a power of two, so every t_j and t_j^2 is exact.
    The grid reaches |t| = sqrt(n)/2 >= 8, so truncation leaves out less than
    e^(-2 pi 64) of any sum below, and by Poisson summation the aliasing of
    these Gaussian sums is below e^(-pi / (2 dx^2)) <= e^(-400).  Only the
    cell quantisation of set measures and rounding remain.
    """

    @staticmethod
    def gaussian(n):
        return unit_gaussian(make_grid(n, 1 / math.sqrt(n)))

    @pytest.mark.parametrize("n", [256, 1024, 4096, 16384, 65536])
    def test_minimal_set_measures_the_continuum_interval(self, n):
        # The continuum set is [-a, a] with erfc(a sqrt(2 pi)) = eps^2.  The
        # greedy set is the m cells nearest 0, measure m dx: one cell of error
        # comes from the count's granularity (m - 1 cells leave too much out),
        # one from the tail's midpoint sum, whose error moves the crossing by
        # about (dx^2 / 24) 4 pi a (a < 0.86), plus half a cell when m is even
        # and the set leans one way.  The error is not monotone in n: cells
        # quantise it (eps = 0.1 reads -0.008 cells at n = 4096, 0.98 at 16384).
        f = self.gaussian(n)
        for g in (f, fourier(f)):
            for eps in (0.05, 0.1, 0.25):
                a = erfcinv(eps * eps) / math.sqrt(2 * math.pi)
                measure = minimal_concentration_set(g, eps).measure
                assert abs(measure - 2 * a) <= 2 * g.spacing, (g.domain, eps)

    @pytest.mark.parametrize("n", [256, 1024, 4096, 16384, 65536])
    def test_spread_product_is_the_continuum_floor_to_rounding(self, n):
        # Rounding budget, in units u = 2^-53, to first order.  A sample with
        # x = pi t^2 <= 10 (the rest carry under e^-20 of the energy) is within
        # 1 + 2 + (1 + 2x) <= 24 u from 2^(1/4), pi t^2 and exp; the FFT adds
        # its normwise 2 log2(n) u to the spectrum.  std_dev^2 is a ratio of two
        # positive sums whose terms carry twice that, so std_dev moves by at
        # most twice the sample error.  numpy's pairwise sum of n positive terms
        # errs by at most (12 + log2 n) u, the scaling by the peak, the square
        # and the spacing add 4 u, and the square root halves the quotient's
        # error: (17 + log2 n) u per factor.  With u for the product, the total
        # is (48 + 17 + log2 n) + (48 + 4 log2 n + 17 + log2 n) + 1.
        f = self.gaussian(n)
        product = std_dev(f, 0.0) * std_dev(fourier(f), 0.0)
        bound = (131 + 6 * math.log2(n)) * 2.0**-53
        assert product == pytest.approx(1 / (4 * math.pi), rel=bound, abs=0)


class TestSupport:
    def test_indicator_support_is_its_window(self):
        grid = make_grid(256, 1 / 16)
        samples = np.where((grid.times >= -1.0) & (grid.times < 1.0), 1.0, 0.0)
        f = signal_from_samples(grid, samples)
        mask = support_mask(f)
        assert np.count_nonzero(mask.flags) == 32
        assert mask.measure == pytest.approx(2.0)

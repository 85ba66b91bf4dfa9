"""Bound constant and inequality tests.

Oracles: closed forms for the special constants (2 pi, pi^2, Stirling-free
gamma identities, the q = 2 constant's own formula `k1_closed_form`),
40-digit mpmath log-gamma and Beta values for every scan row's constant, a
dense-grid maximization, the stationarity condition, the
small-defect expansion 2d - 2 sqrt(d eps) of the log-supremum and the 50-digit
mpmath Lambert W maximizer, exact Gaussian moments, hand-derived special cases of the
measure bounds, a brute-force scan of cf_quotient over the full witness
grid in place of the factored cf_bound search, the row-by-row factor scan
(`exhaustive_best_factor`) in place of the ranked and bracketed one, and the
grid-exact chain under the classical bound: the top singular value of the
unitary DFT's T-by-Omega block.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import uplab
from uplab import (
    FREQUENCY,
    CfSearch,
    TIME,
    bounds,
    alpha_k_profile,
    cf_bound,
    concentration_defect,
    conjugate_exponent,
    delta_bound,
    ds_bound,
    energy_centroid,
    fourier,
    generate_signal,
    heisenberg_floor,
    improved_bound,
    lieb_constant,
    locop_constant,
    make_grid,
    minimal_concentration_set,
    norm_lq,
    price_k,
    price_ktilde,
    price_rhs,
    separate_measure_bounds,
    signal_from_samples,
    standard_suite,
    std_dev,
    support_moment_sides,
    weighted_moment_norm,
)
from uplab.concentration import _moment_lq, _support


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return signal_from_samples(grid, samples)


GAUSS_WITNESS = {"t_bar": 0.0, "w_bar": 0.0, "q1": 2.0, "alpha1": 1.0, "q2": 2.0, "alpha2": 1.0}


def cf_quotient(f, fhat, witness):
    """Evaluate the signal-adapted quotient at one witness parameter choice,

        ||f||_2^4 * A * B,
        A = ||fhat||_q1^e1 / (K(1,a1,q1) ||fhat||_q1^2 Mw^e1),
        B = ||f||_q2^e2 / (K(1,a2,q2) ||f||_q2^2 Mt^e2),

    with e_j = 2/(alpha_j q_j'), Mt the time moment of f about t_bar at
    (alpha2, q2), and Mw the frequency moment of fhat about w_bar at
    (alpha1, q1).  Norms, moments and constants are looked up in `bounds`,
    so a test that replaces them there changes this oracle too.
    """
    a = _signal_factor(fhat, witness["w_bar"], witness["q1"], witness["alpha1"])
    b = _signal_factor(f, witness["t_bar"], witness["q2"], witness["alpha2"])
    return float(bounds.norm_lq(f, 2.0) ** 4 * a * b)


def _signal_factor(g, center, q, alpha):
    """`bounds._factor` for g at one witness (center, q, alpha), with M = weighted_moment_norm."""
    q, alpha = float(q), float(alpha)
    m = bounds.weighted_moment_norm(g, float(center), alpha, q)
    if m == 0.0:
        raise ValueError("degenerate witness: a moment norm vanished")
    return bounds._factor(bounds.norm_lq(g, q), bounds.price_k(1, alpha, q), m, 2.0 / (alpha * conjugate_exponent(q)))


def exhaustive_best_factor(g, centers, table):
    """First maximiser of bounds._factor over (center, q, alpha), every row evaluated exactly, and ||g||_2."""
    norms = {q: norm_lq(g, q) for q in {row[0] for row in table}}
    axis, mags = _support(g.axis, np.abs(g.samples))
    best, arg = None, None
    for c in centers:
        dist = np.abs(axis - float(c))
        for q, a, e, k in table:
            m = _moment_lq(dist, mags, g.spacing, a, q)
            if m == 0.0:
                continue
            val = bounds._factor(norms[q], k, m, e)
            if best is None or val > best:
                best, arg = val, (c, q, a)
    if best is None:
        raise ValueError("search grids admitted no feasible witness")
    return best, arg, norm_lq(g, 2.0)


class TestExponentsAndConstants:
    def test_conjugate_exponent_pairs(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert conjugate_exponent(2.0) == pytest.approx(2.0)
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)

    def test_transform_norm_constant_values(self):
        assert lieb_constant(2.0, 1) == pytest.approx(1.0)
        assert lieb_constant(4.0, 1) == pytest.approx(0.5**0.25)
        assert lieb_constant(math.inf, 1) == pytest.approx(1.0)
        assert lieb_constant(4.0, 3) == pytest.approx(0.5**0.75)
        with pytest.raises(ValueError):
            lieb_constant(1.5, 1)

    def test_operator_norm_constant_values(self):
        assert locop_constant(2.0, 1) == pytest.approx(2.0**-0.5)
        assert locop_constant(1.0, 1) == pytest.approx(1.0)
        assert locop_constant(math.inf, 1) == pytest.approx(1.0)
        assert locop_constant(2.0, 2) == pytest.approx(0.5)

    def test_profile_minimum_sits_at_two(self):
        assert alpha_k_profile(2) == pytest.approx(0.5, abs=1e-15)
        assert alpha_k_profile(1) == pytest.approx(1.0, abs=1e-15)
        values = [alpha_k_profile(k) for k in range(2, 2000)]
        assert min(values) == pytest.approx(0.5, abs=1e-15)
        assert values[0] == min(values)
        assert alpha_k_profile(10**6) > 0.99


class TestProductBounds:
    def test_basic_bound_values(self):
        assert ds_bound(0.0, 0.0) == pytest.approx(1.0)
        assert ds_bound(0.3, 0.4) == pytest.approx(0.09)
        with pytest.raises(ValueError):
            ds_bound(0.6, 0.5)

    def test_zero_defect_supremum_is_not_attained(self):
        b = improved_bound(0.0, 0.0)
        assert b.value == pytest.approx(math.e**2, rel=1e-9)
        assert not b.attained
        assert b.witness["r"] == math.inf
        b3 = improved_bound(0.0, 0.0, d=3)
        assert b3.value == pytest.approx(math.exp(6), rel=1e-9)

    @pytest.mark.parametrize(
        "eps_t,eps_omega,d",
        [(0.1, 0.1, 1), (0.05, 0.2, 1), (0.3, 0.3, 2), (0.01, 0.01, 3), (1e-4, 0.0, 1), (0.45, 0.5, 2)],
    )
    def test_search_matches_a_dense_grid(self, eps_t, eps_omega, d):
        got = improved_bound(eps_t, eps_omega, d)
        s = eps_t + eps_omega
        r = np.linspace(1 + 1e-9, 400.0, 2_000_001)
        h = r * math.log1p(-s) + 2 * d * (r - 1) * (np.log(r) - np.log(r - 1))
        assert got.value == pytest.approx(float(np.exp(h.max())), rel=1e-8)
        assert got.attained
        assert got.witness["r"] > 1.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_maximizer_is_stationary(self, d):
        # h'(r) = log(1 - eps) - 2d (log1p(-1/r) + 1/r) vanishes at the maximizer;
        # both of its terms have the size of log(1 - eps), so the residual is
        # measured against that
        for eps in np.concatenate([np.geomspace(1e-10, 0.5, 25), 1 - np.geomspace(1e-12, 0.4, 12)]):
            eps = float(eps)
            r = improved_bound(eps, 0.0, d).witness["r"]
            log1me = math.log1p(-eps)
            hprime = log1me - 2 * d * (math.log1p(-1 / r) + 1 / r)
            assert abs(hprime) <= 1e-9 * abs(log1me), (eps, r, hprime)

    def test_tiny_defects_return_promptly_below_the_zero_defect_limit(self):
        # For small eps the log-supremum is 2d - 2 sqrt(d eps) - eps/3 + ..., so
        # at eps = 1e-12 the value sits ~2e-6 relative below exp(2d) and the
        # maximizer r* ~ 1/sqrt(eps/d) is ~1e6.  The calls run in a child process
        # so that a search which never ends fails by timeout instead of hanging
        # the suite.
        cases = [(eps, d) for eps in (1e-12, 1e-16, 5e-324) for d in (1, 3)]
        code = f"from uplab import improved_bound; print(*(improved_bound(e, 0.0, d).value for e, d in {cases}))"
        src = str(Path(uplab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30, check=True
        )
        values = [float(v) for v in out.stdout.split()]
        assert len(values) == len(cases)
        for (eps, d), value in zip(cases, values):
            assert math.isfinite(value)
            assert value <= math.exp(2 * d)
            assert value == pytest.approx(math.exp(2 * d - 2 * math.sqrt(d * eps)), rel=1e-11)

    def test_dominates_both_closed_form_slices(self):
        # The supremum over the family beats the r -> 1 limit (1 - s) and the
        # r = 2 member 4^d (1 - s)^2 everywhere.
        for d in (1, 2):
            for eps_t in np.linspace(0.0, 0.45, 7):
                for eps_omega in np.linspace(0.0, 0.45, 7):
                    s = eps_t + eps_omega
                    v = improved_bound(eps_t, eps_omega, d).value
                    assert v >= (1 - s) - 1e-12
                    assert v >= 4**d * (1 - s) ** 2 - 1e-12

    def test_total_defect_one_collapses_to_zero(self):
        assert improved_bound(0.5, 0.5).value == 0.0

    @pytest.mark.parametrize(
        "eps_t, eps_omega, d",
        [
            (-0.1, 0.2, 1),
            (0.1, math.nan, 1),
            (0.1, 0.2, 0),
            (0.1, 0.2, 1.5),
            (0.1, 0.2, math.inf),
            (0.1, 0.2, 10**400),
            (0.6, 0.5, 1),
        ],
        ids=[
            "negative-defect",
            "nan-defect",
            "zero-dimension",
            "fractional-dimension",
            "infinite-dimension",
            "dimension-past-the-double-range",
            "defect-sum-above-one",
        ],
    )
    def test_invalid_arguments_raise(self, eps_t, eps_omega, d):
        with pytest.raises(ValueError):
            improved_bound(eps_t, eps_omega, d)

    @pytest.mark.parametrize("eps_t, d", [(0.0, 355), (0.0, 400), (0.1, 400), (0.45, 400)])
    def test_supremum_above_the_double_range_is_an_error(self, eps_t, d):
        # log of the supremum is at most 2d and above 709.78 exp overflows;
        # an infinite lower bound would be false, so the call must refuse
        with pytest.raises(ValueError, match=f"d={d}"):
            improved_bound(eps_t, 0.0, d)

    def test_largest_representable_zero_defect_supremum(self):
        assert improved_bound(0.0, 0.0, 354).value == pytest.approx(math.exp(708.0), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_50_digit_lambert_w_maximizer(self, d):
        # u = 1/r* = 1 + W0(-exp(-1 + log1p(-eps)/(2d))).  Near the branch point
        # the argument of W0 sits ~eps/(2d e) above -1/e, so the oracle works
        # with 50 digits beyond the ones that cancel there.  The value is held
        # to 7.4e-15 relative, the largest error of the Lambert W route this
        # one replaces.  u is held to 8 ulps: the iteration stops at a step of
        # at most 4 ulps, and the residual phi(u) - s carries at most 4 ulps of
        # s (two each from s and phi(u)), which reach u at most as the same
        # relative error since u phi'(u) >= phi(u) = s (phi is convex, phi(0) = 0).
        grid = np.concatenate([np.geomspace(1e-300, 0.5, 61), 1 - np.geomspace(1e-12, 0.5, 25)])
        worst_u = 0.0
        for eps in map(float, grid):
            got = improved_bound(eps, 0.0, d)
            with mpmath.workdps(50 + math.ceil(-math.log10(eps))):
                log1me = mpmath.log1p(-mpmath.mpf(eps))
                u = 1 + mpmath.lambertw(-mpmath.exp(log1me / (2 * d) - 1)).real
                r = 1 / u
                value = mpmath.exp(r * log1me - 2 * d * (r - 1) * mpmath.log1p(-u))
                value_err = float(abs(got.value - value) / value)
                u_err = float(abs(1 / got.witness["r"] - u) / u)
            assert value_err <= 7.4e-15, (eps, value_err)
            assert u_err <= 8 * 2.0**-52, (eps, u_err)
            worst_u = max(worst_u, u_err)
        print(f"improved_bound d={d}: largest relative error in u = 1/r* {worst_u:.2e}")

    def test_gaussian_minimal_sets_sit_below_the_supremum_bound(self):
        # The tightest concentration sets of the Gaussian at defect 0.1 have a
        # measure product below both the r = 2 member and the supremum, which
        # is why the optimized product check must certify its defects from
        # operator energies rather than reuse the requested ones.
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        mt = minimal_concentration_set(f, 0.1).measure
        mw = minimal_concentration_set(fhat, 0.1).measure
        assert mt * mw < 4 * (1 - 0.2) ** 2
        assert mt * mw < improved_bound(0.1, 0.1).value
        # the basic bound, by contrast, holds with room
        assert mt * mw > ds_bound(0.1, 0.1)


def dft_block_norm(mask_t, mask_w):
    """Top singular value of the unitary centred DFT exp(-2 pi i j k / n) / sqrt(n), rows Omega, columns T."""
    n = mask_t.grid.n
    j = np.flatnonzero(mask_t.flags) - n // 2
    k = np.flatnonzero(mask_w.flags) - n // 2
    phase = np.outer(k, j) % n  # reduced as integers, so the angle is exact to an ulp of 2 pi
    return float(np.linalg.svd(np.exp(-2j * np.pi * phase / n) / math.sqrt(n), compute_uv=False)[0])


# The SVD's backward error is about n 2^-52 times the block's norm, which is at most 1,
# and the defects come from an FFT that rounds as finely; 1e-12 covers n <= 256.
CHAIN_SLACK = 1e-12


def assert_grid_exact_chain(f, mask_t, mask_w):
    """(1 - e_T - e_W)^2 <= cos^2(min(asin e_T + asin e_W, pi/2)) <= sigma^2 <= |T||Omega|.

    sigma is the cosine of the least angle between signals supported on T and
    signals whose spectrum lives on Omega; f lies within asin e_T of the first
    and asin e_W of the second, hence the middle step.  The last step bounds
    sigma^2 by the block's squared Frobenius norm |T| |Omega| / n in cells.
    """
    eps_t, eps_w = concentration_defect(f, mask_t), concentration_defect(fourier(f), mask_w)
    angle = math.cos(min(math.asin(eps_t) + math.asin(eps_w), math.pi / 2)) ** 2
    sigma2 = dft_block_norm(mask_t, mask_w) ** 2
    if eps_t + eps_w <= 1.0:
        assert (1.0 - eps_t - eps_w) ** 2 <= angle + CHAIN_SLACK
    assert angle <= sigma2 + CHAIN_SLACK
    assert sigma2 <= mask_t.measure * mask_w.measure + CHAIN_SLACK
    return angle, sigma2


class TestGridExactChain:
    @pytest.mark.parametrize("scenario", standard_suite(), ids=lambda s: s.name)
    def test_the_standard_suite(self, scenario):
        f = generate_signal(scenario.signal_kind, scenario.signal_params, make_grid(scenario.grid_n, scenario.grid_dx))
        mask_t = minimal_concentration_set(f, scenario.sets["eps_t"])
        mask_w = minimal_concentration_set(fourier(f), scenario.sets["eps_omega"])
        assert_grid_exact_chain(f, mask_t, mask_w)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_random_spikes(self, n):
        # a single spike has a flat spectrum, where the middle step is an equality
        rng = np.random.default_rng(n)
        for dx, count, _ in itertools.product((1 / 4, 1 / 8, 1 / 16, 1 / 32), range(1, 6), range(2)):
            grid = make_grid(n, dx)
            values = np.zeros(n, dtype=complex)
            values[rng.choice(n, count, replace=False)] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            f = signal_from_samples(grid, values, TIME)
            for eps in (0.05, 0.1, 0.25):
                assert_grid_exact_chain(f, minimal_concentration_set(f, eps), minimal_concentration_set(fourier(f), eps))

    def test_a_single_spike_with_all_frequencies_meets_every_step(self):
        grid = make_grid(128, 1 / 8)
        values = np.zeros(grid.n, dtype=complex)
        values[37] = 1.0 - 2.0j
        f = signal_from_samples(grid, values, TIME)
        mask_t, mask_w = minimal_concentration_set(f, 0.0), minimal_concentration_set(fourier(f), 0.0)
        assert mask_t.measure * mask_w.measure == pytest.approx(1.0, rel=1e-15)
        angle, sigma2 = assert_grid_exact_chain(f, mask_t, mask_w)
        assert angle == 1.0
        assert sigma2 == pytest.approx(1.0, abs=CHAIN_SLACK)


def k1_closed_form(d, alpha):
    """K(d, alpha, 2) in its own closed form, with x = d / (2 alpha) < 1:

        pi^(d/2) / alpha * Gamma(x) Gamma(1 - x) / Gamma(d/2) * (1/x - 1)^x / (1 - x)
    """
    x = d / (2.0 * alpha)
    return math.exp(
        (d / 2.0) * math.log(math.pi)
        - math.log(alpha)
        - math.lgamma(d / 2.0)
        + math.lgamma(x)
        + math.lgamma(1.0 - x)
        + x * math.log(2.0 * alpha / d - 1.0)
        - math.log(1.0 - x)
    )


def ktilde_40_digit_error(got, alpha, q, power=1):
    """The relative error of got against Ktilde(1, alpha, q)^power by 40-digit mpmath, and its scale.

    log Ktilde is a sum of terms t_j: logs and log-gammas, the log-Beta taken
    as lgamma(x) + lgamma(y) - lgamma(x + y).  Each carries at most 4 units of
    2^-53 of max(|t_j|, 1): one from its library function, up to two from the
    rounding of its argument and one from its product and the sum.  The scale
    is the sum of max(|t_j|, 1), so Ktilde errs by at most 2^-53 (4 scale + 1)
    relative, exp adding the one.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        head = [mpmath.log(2), mpmath.log(mpmath.pi) / 2, -mpmath.loggamma(0.5)]
        if math.isinf(q):
            terms = head + [mpmath.log(a), -mpmath.log(a - 1)]
            log_k = mpmath.fsum(terms)
        else:
            qm, qp = mpmath.mpf(q), 1 / (1 - 1 / mpmath.mpf(q))
            x, y = 1 / (a * qm), 1 / (qm - 1) - 1 / (a * qm)
            bracket = head + [-mpmath.log(a * qm)]
            tail = [mpmath.log(a * qp - 1) / (qm * qp * a), -mpmath.log(1 - 1 / (a * qp)) / qm]
            log_k = (qm - 1) / qm * (mpmath.fsum(bracket) + mpmath.log(mpmath.beta(x, y))) + mpmath.fsum(tail)
            log_gammas = [mpmath.loggamma(x), mpmath.loggamma(y), -mpmath.loggamma(x + y)]
            terms = [(qm - 1) / qm * t for t in bracket + log_gammas] + tail
        want = mpmath.exp(power * log_k)
        return float(abs(got - want) / want), float(mpmath.fsum(max(abs(t), 1) for t in terms))


class TestSpectralConcentrationConstants:
    def test_closed_form_values(self):
        assert k1_closed_form(1, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)
        assert k1_closed_form(2, 2.0) == pytest.approx(math.pi**2, rel=1e-12)
        assert price_k(1, 1.0, 2.0) == pytest.approx(2 * math.pi, rel=1e-12)
        assert price_k(2, 2.0, 2.0) == pytest.approx(math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 2.0, 5.0])
    def test_quadratic_case_collapses_to_the_simple_constant(self, alpha):
        assert price_k(1, alpha, 2.0) == pytest.approx(k1_closed_form(1, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_sup_norm_limit_continues_the_finite_family(self, alpha):
        assert price_ktilde(1, alpha, math.inf) == pytest.approx(
            price_ktilde(1, alpha, 1e6), rel=1e-4
        )

    def test_domain_restrictions(self):
        with pytest.raises(ValueError):
            price_k(1, 0.5, 2.0)  # needs alpha > d/2
        with pytest.raises(ValueError):
            price_ktilde(1, 0.4, 2.0)
        with pytest.raises(ValueError):
            price_ktilde(1, 0.9, math.inf)  # needs alpha > d

    def test_a_value_past_the_double_range_names_its_parameters(self):
        # exp(2d) at eps = 0 passes the double maximum once d >= 355
        message = r"^improved_bound\(eps_t=0.0, eps_omega=0.0, d=400\) is not a finite double$"
        with pytest.raises(ValueError, match=message):
            improved_bound(0.0, 0.0, d=400)

    @pytest.mark.parametrize("q", [2.0, 1.0000001], ids=["alpha-q-overflows", "alpha-q-prime-overflows"])
    def test_a_product_past_the_double_range_still_gives_the_constant(self, q):
        # alpha q (or alpha q') overflows, but Ktilde is finite: it tends to 2^(1/q')
        assert price_ktilde(1, 1e308, q) == pytest.approx(2.0 ** (1.0 / conjugate_exponent(q)), rel=1e-12)

    def test_gaussian_spectral_window_example(self):
        # d = 1, alpha = 1, q = 2, window [-1/2, 1/2]: the bound value is
        # K * 1 * moment = 2 pi / (2 sqrt(pi)) = sqrt(pi), while the spectral
        # energy inside the window is erf(sqrt(pi / 2)).
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        rhs = price_rhs(f, 0.0, 1.0, 1.0, 2.0)
        assert rhs == pytest.approx(math.sqrt(math.pi), rel=1e-4)
        fhat = fourier(f)
        inside = grid.dw * float(
            np.sum(np.abs(fhat.samples[np.abs(grid.freqs) <= 0.5]) ** 2)
        )
        # cells centered in [-1/2, 1/2] cover half a cell more on each side
        assert inside == pytest.approx(erf(math.sqrt(2 * math.pi) * (0.5 + grid.dw / 2)), rel=1e-3)
        assert inside < rhs

    @pytest.mark.parametrize("q", CfSearch.qs)
    def test_every_scan_row_matches_40_digit_gamma_values(self, q):
        # K = Ktilde^2 doubles the error of `ktilde_40_digit_error`'s rule, and exp
        # and the square add two units
        for alpha in CfSearch.alphas(q):
            err, scale = ktilde_40_digit_error(price_k(1, alpha, q), alpha, q, power=2)
            assert err <= 2.0**-53 * (8 * scale + 2), (alpha, err, scale)

    @pytest.mark.parametrize("q", [1e13, 1e15, 1e20, 1e300])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_huge_q_matches_40_digit_gamma_values(self, alpha, q):
        # alpha exceeds d/q' ~ 1 by a fixed factor, so the hypothesis holds at
        # every q; an absolute margin on y = (alpha q' - d)/(alpha q) refused
        # them all once q reached ~1e13
        err, scale = ktilde_40_digit_error(price_ktilde(1, alpha, q), alpha, q)
        assert err <= 2.0**-53 * (4 * scale + 1), (err, scale)

    @pytest.mark.parametrize("q", [1.0000001, 1.5, 2.0, 4.0, 1e13, math.inf])
    @pytest.mark.parametrize("alpha", [1e300, 8.9e307, 9e307, 1e308, 1.7e308])
    def test_huge_alpha_matches_40_digit_gamma_values(self, alpha, q):
        # Where alpha q or alpha q' overflows, price_ktilde takes it apart.
        # log(alpha) + log(q) is two library roundings and one sum, within the
        # rule's 4 units of log(alpha q).  x = d/(alpha q) < 2^-1000 is then
        # subnormal, but lgamma(x) = -log(x) - gamma x + ... equals
        # log(alpha q) - log(d) to far below an ulp, one rounding more: 4 units
        # again.  x is below 2^-1000 of y, so y and x + y are not moved, and the
        # two tail terms are below 1e-300 on both sides.  So the rule of
        # `ktilde_40_digit_error` holds unchanged, up to alpha = 1.7e308.
        err, scale = ktilde_40_digit_error(price_ktilde(1, alpha, q), alpha, q)
        assert err <= 2.0**-53 * (4 * scale + 1), (err, scale)


class TestSignalAdaptedBounds:
    def test_gaussian_quotient_closed_form(self):
        # At the symmetric second-moment witness the quotient is
        # 1 / (K1 * K1 * mt * mw) = 1 / pi for the unit Gaussian.
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        assert cf_quotient(f, fhat, GAUSS_WITNESS) == pytest.approx(1 / math.pi, rel=1e-9)

    def test_search_result_is_reproducible_and_at_least_the_closed_form(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        best = cf_bound(f, fhat)
        assert best.attained
        assert best.value >= 1 / math.pi - 1e-12
        assert cf_quotient(f, fhat, best.witness) == pytest.approx(best.value, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, params, n",
        [
            ("gaussian", {"lam": 1.0}, 64),
            ("indicator", {"lo": -1.0, "hi": 1.0}, 128),
            ("chirp", {"rate": 2.0}, 128),
            ("random_bandlimited", {"seed": 3, "band": 2.0}, 96),
        ],
    )
    def test_search_matches_brute_force_over_the_witness_grid(self, kind, params, n):
        grid = make_grid(n, 1 / 8)
        f = generate_signal(kind, params, grid)
        self._assert_matches_brute_force(f)

    def test_vanishing_moment_witnesses_are_skipped(self):
        # a unit spike has a zero time moment about its own centroid, so the
        # brute force and the search must both pass over that centre
        grid = make_grid(64, 1 / 8)
        samples = np.zeros(grid.n)
        samples[40] = 1.0
        f = signal_from_samples(grid, samples)
        assert weighted_moment_norm(f, energy_centroid(f), 1.0, 2.0) == 0.0
        witness = self._assert_matches_brute_force(f)
        assert witness["t_bar"] != energy_centroid(f)

    def test_ties_keep_the_first_witness_in_scan_order(self, monkeypatch):
        # With unit norms and constants the quotient is Mw^-e1 * Mt^-e2, and
        # (q, alpha) = (2, 1) and (inf, 2) share e = 1.  Halving the moment at
        # (first centre, inf, 2) and at (second centre, 2, 1) gives two exact
        # maximisers on each axis; the scan meets the first centre first.
        grid = make_grid(64, 1 / 8)
        f = generate_signal("gaussian", {}, grid)
        fhat = fourier(f)
        first = {TIME: energy_centroid(f), FREQUENCY: energy_centroid(fhat)}
        second = {TIME: grid.times[0] / 2, FREQUENCY: grid.freqs[0] / 2}

        def landscape(domain, center, alpha, q):
            at_first = center == first[domain] and (q, alpha) == (math.inf, 2.0)
            at_second = center == second[domain] and (q, alpha) == (2.0, 1.0)
            return 0.5 if at_first or at_second else 1.0

        def moment_from_distances(dist, mags, spacing, alpha, q):
            # the scan passes |axis - c| on the nonzero samples (fhat has an
            # exact zero here), so the centre is recovered by exact comparison
            for domain, g in ((TIME, f), (FREQUENCY, fhat)):
                axis = g.axis[np.abs(g.samples) > 0]
                for center in (first[domain], second[domain]):
                    if np.array_equal(dist, np.abs(axis - center)):
                        return landscape(domain, center, alpha, q)
            return 1.0

        def ranks_from_landscape(scan, rows):
            # with unit norms and constants the log-factor is -e log M; at
            # n = 64 the support is below the bracket's size, so every row is ranked
            assert rows.size == scan.row_c.size
            moments = [
                moment_from_distances(np.abs(scan.axis - scan.centers[c]), None, None, a, q)
                for c, q, a in zip(scan.row_c, scan.q, scan.alpha)
            ]
            return -scan.e * np.log(moments)

        # cf_quotient (the brute force) reads weighted_moment_norm and norm_lq;
        # the factor scan takes its norms by _quadrature_lq, ranks rows by
        # _FactorScan.ranks and checks the top by _moment_lq
        monkeypatch.setattr(bounds, "weighted_moment_norm", lambda g, c, a, q: landscape(g.domain, c, a, q))
        monkeypatch.setattr(bounds._FactorScan, "ranks", ranks_from_landscape)
        monkeypatch.setattr(bounds, "_moment_lq", moment_from_distances)
        monkeypatch.setattr(bounds, "norm_lq", lambda g, q: 1.0)
        monkeypatch.setattr(bounds, "_quadrature_lq", lambda mags, spacing, q: 1.0)
        monkeypatch.setattr(bounds, "price_k", lambda d, alpha, q: 1.0)
        monkeypatch.setattr(bounds, "_SCAN_TABLE", [(q, a, e, 1.0) for q, a, e, _ in bounds._SCAN_TABLE])
        witness = self._assert_matches_brute_force(f)
        assert witness == {
            "t_bar": first[TIME],
            "w_bar": first[FREQUENCY],
            "q1": math.inf,
            "alpha1": 2.0,
            "q2": math.inf,
            "alpha2": 2.0,
        }

    @staticmethod
    def _assert_matches_brute_force(f):
        # A over (w_bar, q1, alpha1) and B over (t_bar, q2, alpha2) are
        # tabulated once each, None where a moment vanishes; every witness is
        # then met in the full-grid scan order t_bar, w_bar, (q1, alpha1),
        # (q2, alpha2), and strict > keeps the first maximiser
        fhat = fourier(f)
        pairs = [(q, a) for q in CfSearch.qs for a in CfSearch.alphas(q)]

        def centers(g):
            axis = g.axis
            return [energy_centroid(g)] + np.linspace(axis[0] / 2, axis[-1] / 2, CfSearch.center_count).tolist()

        def tabulate(g):
            rows = []
            for c, (q, a) in itertools.product(centers(g), pairs):
                try:
                    rows.append((c, q, a, _signal_factor(g, c, q, a)))
                except ValueError:
                    rows.append((c, q, a, None))
            return rows

        a_rows, b_rows = tabulate(fhat), tabulate(f)
        assert len(a_rows) == len(b_rows) == 234
        norm4 = bounds.norm_lq(f, 2.0) ** 4
        best, best_witness = None, None
        for t_row in range(0, len(b_rows), len(pairs)):
            for wb, q1, a1, a in a_rows:
                for tb, q2, a2, b in b_rows[t_row : t_row + len(pairs)]:
                    if a is None or b is None:
                        continue
                    val = float(norm4 * a * b)  # the product cf_quotient forms
                    if best is None or val > best:
                        best = val
                        best_witness = {"t_bar": tb, "w_bar": wb, "q1": q1, "alpha1": a1, "q2": q2, "alpha2": a2}
        got = cf_bound(f, fhat)
        assert got.witness == best_witness
        assert got.value == pytest.approx(best, rel=1e-14)
        return got.witness

    def test_the_l2_norm_of_f_is_taken_once(self, monkeypatch):
        # each factor's scan takes its norm table, q = 2 included, once from
        # |g|, and cf_bound's ||f||_2 factor is the time scan's entry
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        calls = []
        norm = bounds._quadrature_lq

        def counted(mags, spacing, q):
            calls.append(q)
            return norm(mags, spacing, q)

        monkeypatch.setattr(bounds, "_quadrature_lq", counted)
        cf = cf_bound(f, fourier(f))
        assert sorted(calls) == sorted(2 * [*{2.0, *CfSearch.qs}])
        assert cf.factors[0] == norm_lq(f, 2.0)

    def test_cf_bound_only_scans_the_table_built_at_import(self, monkeypatch):
        # the 39 (q, alpha, e, K) rows are priced once per process, not per call
        calls = []
        monkeypatch.setattr(bounds, "price_k", lambda *args: calls.append(("price_k", args)))
        monkeypatch.setattr(CfSearch, "alphas", lambda *args: calls.append(("alphas", args)))
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        cf_bound(f, fourier(f))
        assert calls == []
        assert len(bounds._SCAN_TABLE) == 39

    def test_the_grid_is_fixed(self):
        f = unit_gaussian(make_grid(64, 1 / 8))
        with pytest.raises(TypeError):
            CfSearch(qs=(2.0,))
        with pytest.raises(TypeError):
            cf_bound(f, fourier(f), CfSearch)

    def test_separate_bounds_multiply_to_the_product_form(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        cf = cf_bound(f, fhat)
        eps_t, eps_omega = 0.1, 0.2
        lb_t, lb_w = separate_measure_bounds(eps_t, eps_omega, cf.factors)
        want = (1 - eps_t**2) * (1 - eps_omega**2) * cf_quotient(f, fhat, cf.witness)
        assert lb_t * lb_w == pytest.approx(want, rel=1e-12)

    def test_separate_bounds_shrink_with_larger_defects(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        cf = cf_bound(f, fourier(f))
        tight_t, tight_w = separate_measure_bounds(0.05, 0.05, cf.factors)
        loose_t, loose_w = separate_measure_bounds(0.5, 0.5, cf.factors)
        assert loose_t < tight_t
        assert loose_w < tight_w


class TestGaussianFactorGridRefinement:
    """`_factor` of f = 2^(1/4) exp(-pi t^2) about 0 against its closed form, at n dx^2 = 1.

    ||f||_q = 2^(1/4) q^(-1/(2q)), and the moment M = || |t|^alpha f ||_q is
    2^(1/4) (Gamma((beta + 1)/2) / (pi q)^((beta + 1)/2))^(1/q) with
    beta = alpha q, or 2^(1/4) (alpha / (2 pi e))^(alpha/2) at q = inf.

    The bounds, derived before the run:
    * Aliasing and truncation are exponentially small (Poisson summation: the
      first alias sits at 1/dx = sqrt(n) >= 16; the axis reaches sqrt(n)/2 >= 8).
      So the norms are exact to rounding.
    * |t|^beta is not smooth at 0, and 0 is a node.  By the generalized
      Euler-Maclaurin formula (Navot, J. Math. Phys. 40, 1961) the rectangle
      rule on |t|^beta phi(t), phi(t) = 2^(q/4) exp(-pi q t^2), errs by
      2 sum_j zeta(-beta - 2j) phi^(2j)(0) / (2j)! h^(beta + 2j + 1).  The
      factor holds M^-e, so its relative error is about e/q times that of
      M^q: the bound is twice the first two terms of that, relative to the
      integral.  At even integer beta every term vanishes.
    * At q = inf the sampled maximum of t^alpha f sits within dx/2 of
      t* = sqrt(alpha / (2 pi)), where log(t^alpha f) falls as 2 pi s^2 and the
      higher terms of alpha log(1 + s/t*) are under half of that for
      |s| <= t*/2; so the factor is at most exp(1.5 e 2 pi (dx/2)^2) - 1 above
      its closed form, and never below it but for rounding.
    * Rounding: each term of the quadrature sum within |t| <= 3 carries about
      q (pi 9 + 8) + 4 <= 150 units, the pairwise sum log2 n more, and the
      factor's two powers multiply by at most e + |2 - e| each way.
    The errors are quantised to the grid, so nothing here asserts that they
    fall monotonically in n: at q = inf, alpha = 2 the nearest sample to t* is
    t = 0.5625 from n = 256 to n = 65536.
    """

    @staticmethod
    def closed_form(q, alpha, e, k):
        root2 = mpmath.mpf(2) ** 0.25
        alpha = mpmath.mpf(alpha)
        if math.isinf(q):
            norm, moment = root2, root2 * (alpha / (2 * mpmath.pi * mpmath.e)) ** (alpha / 2)
        else:
            beta = alpha * q
            norm = root2 * mpmath.mpf(q) ** (-1 / mpmath.mpf(2 * q))
            moment = root2 * (mpmath.gamma((beta + 1) / 2) / (mpmath.pi * q) ** ((beta + 1) / 2)) ** (1 / mpmath.mpf(q))
        return norm**e / (k * norm**2 * moment**e)

    @staticmethod
    def quadrature_bound(q, alpha, e, dx):
        if math.isinf(q):
            return math.expm1(1.5 * e * 2 * math.pi * (dx / 2) ** 2)
        beta, h = mpmath.mpf(alpha) * q, mpmath.mpf(dx)
        integral = mpmath.gamma((beta + 1) / 2) / (mpmath.pi * q) ** ((beta + 1) / 2)
        terms = [
            2 * mpmath.zeta(-beta - 2 * j) * (-mpmath.pi * q) ** j / mpmath.factorial(j) * h ** (beta + 2 * j + 1)
            for j in range(2)
        ]
        return float(2 * e / q * sum(abs(t) for t in terms) / integral)

    @pytest.mark.parametrize("n", [256, 1024, 4096, 16384, 65536])
    def test_every_scan_row_meets_its_closed_form(self, n):
        dx = 1 / math.sqrt(n)
        f = unit_gaussian(make_grid(n, dx))
        worst = 0.0
        for q, alpha, e, k in bounds._SCAN_TABLE:
            got = bounds._factor(norm_lq(f, q), k, weighted_moment_norm(f, 0.0, alpha, q), e)
            with mpmath.workdps(30):
                exact = self.closed_form(q, alpha, e, k)
                rel = float((got - exact) / exact)
                bound = self.quadrature_bound(q, alpha, e, dx)
            rounding = 2 * (e + abs(2 - e)) * (150 + math.log2(n)) * 2.0**-53
            assert abs(rel) <= bound + rounding, (q, alpha, rel)
            if math.isinf(q):
                assert rel >= -rounding
            worst = max(worst, abs(rel))
        print(f"n = {n}: largest relative error {worst:.3e}")


def scan_signals():
    """The distinct standard_suite() signals, then seeded n = 8192 refine-style ones (n dx^2 = 1)."""
    seen = {}
    for s in standard_suite():
        key = (s.signal_kind, tuple(sorted(s.signal_params.items())))
        seen.setdefault(key, (s.name, generate_signal(s.signal_kind, s.signal_params, make_grid(s.grid_n, s.grid_dx))))
    out = list(seen.values())
    grid = make_grid(8192, math.sqrt(1 / 8192))
    out.append(("gaussian-n8192", generate_signal("gaussian", {"lam": 1.0}, grid)))
    out.append(("indicator-n8192", generate_signal("indicator", {"lo": -1.0, "hi": 1.0}, grid)))
    for seed in range(4):
        f = generate_signal("random_bandlimited", {"seed": seed, "band": 2.0}, grid)
        out.append((f"bandlimited-v{seed}-n8192", f))
    return out


SCAN_SIGNALS = scan_signals()


def n65536_signals():
    """Gaussian, indicator and seeded random_bandlimited signals at the refine size n = 65536, n dx^2 = 1."""
    grid = make_grid(65536, math.sqrt(1 / 65536))
    return [
        ("gaussian-n65536", generate_signal("gaussian", {"lam": 1.0}, grid)),
        ("indicator-n65536", generate_signal("indicator", {"lo": -1.0, "hi": 1.0}, grid)),
        ("bandlimited-v0-n65536", generate_signal("random_bandlimited", {"seed": 0, "band": 2.0}, grid)),
    ]


N65536_SIGNALS = n65536_signals()
BRACKET_SIGNALS = SCAN_SIGNALS + N65536_SIGNALS


def scan_inputs(g, table=None):
    return g, bounds._scan_centers(g), bounds._SCAN_TABLE if table is None else table


def underflow_table():
    """Scan rows for q in (2, inf) with alpha up to 40, where dist^alpha underflows near a spike."""

    class Wide(CfSearch):
        qs, alpha_max = (2.0, math.inf), 40.0

    return [(q, a, 2.0 / (a * conjugate_exponent(q)), price_k(1, a, q)) for q in Wide.qs for a in Wide.alphas(q)]


@st.composite
def random_signals(draw):
    """1-5 spikes, a random-support indicator, a modulated Gaussian or white noise, n in 64..4096, dx in 1/4..1/64."""
    n = draw(st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]))
    grid = make_grid(n, draw(st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64])))
    kind = draw(st.sampled_from(["spikes", "indicator", "modulated-gaussian", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = grid.times
    if kind == "spikes":
        count = draw(st.integers(1, 5))
        samples = np.zeros(n, dtype=complex)
        samples[rng.choice(n, count, replace=False)] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    elif kind == "indicator":
        samples = (rng.random(n) < draw(st.sampled_from([0.01, 0.1, 0.5, 0.9]))).astype(float)
        samples[rng.integers(n)] = 1.0
    elif kind == "modulated-gaussian":
        center, width = rng.uniform(-0.25, 0.25) * t[-1], rng.uniform(0.05, 0.5) * t[-1]
        samples = np.exp(-np.pi * ((t - center) / width) ** 2 + 2j * np.pi * rng.uniform(-0.25, 0.25) / grid.dx * t)
    else:
        samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return signal_from_samples(grid, samples)


class TestRankBracket:
    """lo <= rank <= up on every row; lo and up already hold the bracket's rounding slack."""

    @pytest.fixture(autouse=True)
    def bracket_at_every_support(self, monkeypatch):
        # the bracket's soundness at every support size, not only where it pays
        monkeypatch.setattr(bounds, "_BRACKET_MIN_SUPPORT", 1)

    @staticmethod
    def assert_sound(g, table=None, centers=None):
        g, scan_centers, table = scan_inputs(g, table)
        centers = scan_centers if centers is None else centers
        scan = bounds._FactorScan(g, centers, table)
        lo, up = scan.bracket()
        ranks = scan.ranks(np.arange(lo.size))
        assert not np.isnan(lo).any() and not np.isnan(up).any()
        assert np.all(lo <= ranks) and np.all(ranks <= up)
        # M = 0 (every sample on the centre) ranks -inf, and so does the whole bracket
        assert np.array_equal(ranks == -np.inf, up == -np.inf)
        return lo, up, ranks

    @pytest.mark.parametrize("name, f", BRACKET_SIGNALS, ids=[name for name, _ in BRACKET_SIGNALS])
    def test_holds_on_every_row(self, name, f):
        # the default table has q = inf rows; the centroid of a symmetric
        # signal sits inside the block around 0
        assert math.inf in CfSearch.qs
        for g in (f, fourier(f)):
            lo, _, _ = self.assert_sound(g)
            assert np.isfinite(lo).any()

    def test_holds_for_centres_on_samples_inside_and_between_blocks_and_off_the_axis(self):
        grid = make_grid(1024, 1 / 32)
        t, b = grid.times, bounds._BRACKET_BLOCK  # the second block is t[b], ..., t[2b - 1]
        inside, last, first = b + b // 2, 2 * b - 1, 2 * b
        centers = [
            t[inside],
            0.5 * (t[inside] + t[inside + 1]),
            t[last],
            t[first],
            0.5 * (t[last] + t[first]),
            t[0],
            t[-1],
            3 * t[-1],
        ]
        spread = generate_signal("random_bandlimited", {"seed": 5, "band": 2.0}, grid)
        assert np.all(spread.samples != 0)
        # a pulse a few samples wide inside that block: its own block dominates each moment
        pulse = signal_from_samples(grid, np.exp(-np.pi * ((t - t[inside]) / (4 * grid.dx)) ** 2))
        for f in (spread, pulse):
            _, up, _ = self.assert_sound(f, centers=centers)
            assert np.isfinite(up).all()

    def test_a_two_sample_support_around_the_centre_brackets_up_to_inf(self):
        # both samples share one block whose span holds the centre, so log M
        # has no lower bound: up = +inf, never nan
        grid = make_grid(64, 1 / 8)
        samples = np.zeros(grid.n)
        samples[[40, 41]] = 1.0
        between = 0.5 * (grid.times[40] + grid.times[41])
        lo, up, ranks = self.assert_sound(signal_from_samples(grid, samples), centers=[between])
        assert np.all(up == np.inf)
        assert np.isfinite(ranks).all() and np.isfinite(lo).all()

    def test_a_single_spike_ranks_minus_inf_about_itself(self):
        grid = make_grid(64, 1 / 8)
        samples = np.zeros(grid.n)
        samples[40] = 1.0
        f = signal_from_samples(grid, samples)
        assert energy_centroid(f) == grid.times[40]
        _, up, _ = self.assert_sound(f)
        table_size = len(bounds._SCAN_TABLE)
        assert np.all(up[:table_size] == -np.inf)  # the centroid is the spike: M = 0
        assert np.isfinite(up[table_size:]).all()
        self.assert_sound(fourier(f))

    def test_holds_on_a_sparse_indicator(self):
        grid = make_grid(256, 1 / 16)
        self.assert_sound(generate_signal("indicator", {"lo": -0.1, "hi": 0.1}, grid))
        self.assert_sound(generate_signal("indicator", {"lo": 0.3, "hi": 5.0}, grid))

    @pytest.mark.parametrize("n", [256, 8192])
    def test_one_sample_blocks_are_the_ranked_pass_to_within_the_widening(self, n, monkeypatch):
        # a block of one sample has level q log|g| + log 1 and dmin = dmax =
        # log|x - c|, so the kernel's two bracket reductions and its ranked
        # reduction agree bit for bit and only the rounding allowance is left
        monkeypatch.setattr(bounds, "_BRACKET_BLOCK", 1)
        reduced = []
        kernel = bounds._FactorScan.log_moments

        def recorded(*args):
            reduced.append(kernel(*args))
            return reduced[-1].copy()  # the bracket widens its copy in place

        monkeypatch.setattr(bounds._FactorScan, "log_moments", recorded)
        grid = make_grid(n, math.sqrt(1 / n))
        kinds = [
            ("gaussian", {"lam": 1.0}),
            ("indicator", {"lo": -1.0, "hi": 1.0}),
            ("chirp", {"rate": 2.0}),
            ("random_bandlimited", {"seed": 0, "band": 2.0}),
        ]
        for kind, params in kinds:
            f = generate_signal(kind, params, grid)
            for g in (f, fourier(f)):
                reduced.clear()
                lo, up, ranks = self.assert_sound(g)
                lower, upper, ranked = reduced
                assert np.array_equal(lower, upper) and np.array_equal(lower, ranked)
                finite = np.isfinite(ranks)
                assert finite.any()
                assert np.all(up[finite] - lo[finite] <= bounds._RANK_BAND / 10)

    def test_holds_on_the_underflow_spike(self):
        # every centre within 2e-9 of a unit spike: dist^40 underflows while
        # its logarithm, the rank and the bracket stay finite
        grid = make_grid(64, 1e-10)
        samples = np.zeros(grid.n)
        samples[40] = 1.0
        self.assert_sound(signal_from_samples(grid, samples), underflow_table())


class TestRankedFactorScan:
    @pytest.mark.parametrize("name, f", SCAN_SIGNALS, ids=[name for name, _ in SCAN_SIGNALS])
    def test_matches_the_exhaustive_scan_bit_for_bit(self, name, f):
        for g in (f, fourier(f)):
            assert bounds._best_factor(*scan_inputs(g)) == exhaustive_best_factor(*scan_inputs(g))

    def test_matches_the_exhaustive_scan_on_a_full_support_n65536_signal(self):
        f = dict(N65536_SIGNALS)["bandlimited-v0-n65536"]
        assert np.all(f.samples != 0)
        assert bounds._best_factor(*scan_inputs(f)) == exhaustive_best_factor(*scan_inputs(f))

    def test_the_bracket_leaves_few_rows_of_a_full_support_n65536_factor_to_rank(self, monkeypatch):
        # a work count, not a timing: the bracket left 1 (time) and 6
        # (frequency) of the 234 rows here, so a change that stops it from
        # pruning fails this.  The kernel reduces every row twice on the
        # n / 64 blocks, and only the ranked rows on the n samples.
        reduced = []
        kernel = bounds._FactorScan.log_moments

        def counted(scan, dist, dist_centers, level, rows):
            reduced.append((dist.shape[1], scan.q[rows].size))
            return kernel(scan, dist, dist_centers, level, rows)

        monkeypatch.setattr(bounds._FactorScan, "log_moments", counted)
        f = dict(N65536_SIGNALS)["bandlimited-v0-n65536"]
        for g in (f, fourier(f)):
            reduced.clear()
            g, centers, table = scan_inputs(g)
            bounds._best_factor(g, centers, table)
            rows, support = len(centers) * len(table), np.count_nonzero(g.samples)
            assert reduced[:2] == [(-(-support // bounds._BRACKET_BLOCK), rows)] * 2
            assert {cells for cells, _ in reduced[2:]} == {support}
            assert 1 <= sum(size for _, size in reduced[2:]) <= 0.1 * rows

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_the_exhaustive_scan_on_random_signals(self, data):
        f = data.draw(random_signals())
        for g in (f, fourier(f)):
            expected = exhaustive_best_factor(*scan_inputs(g))
            assert bounds._best_factor(*scan_inputs(g)) == expected
            with mock.patch.object(bounds, "_BRACKET_MIN_SUPPORT", 1):
                assert bounds._best_factor(*scan_inputs(g)) == expected

    @pytest.mark.parametrize("name, f", SCAN_SIGNALS, ids=[name for name, _ in SCAN_SIGNALS])
    def test_ranks_sit_well_inside_the_band_of_the_exact_log_factors(self, name, f):
        for g in (f, fourier(f)):
            g, centers, table = scan_inputs(g)
            norms = {q: norm_lq(g, q) for q in {row[0] for row in table}}
            ranks = bounds._FactorScan(g, centers, table).ranks(np.arange(len(centers) * len(table)))
            axis, mags = _support(g.axis, np.abs(g.samples))
            rows = [(c, row) for c in centers for row in table]
            assert len(rows) == ranks.size
            for rank, (c, (q, a, e, k)) in zip(ranks, rows):
                m = _moment_lq(np.abs(axis - c), mags, g.spacing, a, q)
                if m == 0.0:
                    continue
                assert abs(rank - math.log(bounds._factor(norms[q], k, m, e))) <= bounds._RANK_BAND / 100

    def test_a_near_tie_that_ranks_the_wrong_row_first_returns_the_exact_maximiser(self, monkeypatch):
        g, centers, table = scan_inputs(dict(SCAN_SIGNALS)["bandlimited3-eps005"])
        expected = exhaustive_best_factor(g, centers, table)
        lift = 5e-10  # inside the band, far above the ranking error
        assert lift < bounds._RANK_BAND
        ranks = bounds._FactorScan(g, centers, table).ranks(np.arange(len(centers) * len(table)))
        # put the runner-up (2.9e-3 below the top row) just above it
        first, runner_up = np.argsort(-ranks, kind="stable")[:2]
        ranks[runner_up] = ranks[first] + lift

        monkeypatch.setattr(bounds._FactorScan, "ranks", lambda scan, rows: ranks[rows])
        assert bounds._best_factor(g, centers, table) == expected
        # the same misranking under an exact bracket: the true top row's up
        # lies below max(lo), and the stop rule's band must keep it
        monkeypatch.setattr(bounds._FactorScan, "bracket", lambda scan: (ranks.copy(), ranks.copy()))
        assert bounds._best_factor(g, centers, table) == expected

    def test_a_checked_row_whose_moment_underflows_is_dropped_and_the_rows_ranked_again(self):
        # a unit spike 8 cells off the middle of a grid with dx = 1e-10: every
        # centre lies within 2e-9 of it, so d^40 underflows to 0 while its
        # logarithm, and so the rank, stays finite
        grid = make_grid(64, 1e-10)
        samples = np.zeros(grid.n)
        samples[40] = 1.0
        g, centers, table = scan_inputs(signal_from_samples(grid, samples), underflow_table())
        ranks = bounds._FactorScan(g, centers, table).ranks(np.arange(len(centers) * len(table)))
        top = int(np.argmax(ranks))
        c, (q, a, _, _) = centers[top // len(table)], table[top % len(table)]
        axis, mags = _support(g.axis, np.abs(g.samples))
        assert np.isfinite(ranks[top])
        assert _moment_lq(np.abs(axis - c), mags, g.spacing, a, q) == 0.0
        expected = exhaustive_best_factor(g, centers, table)
        assert bounds._best_factor(g, centers, table) == expected

    def test_rows_pruned_against_a_dropped_row_are_ranked_again(self, monkeypatch):
        # the underflow spike with the bracket on: its top row prunes the
        # rest, then drops out, so the rows it pruned must be ranked after all
        grid = make_grid(64, 1e-10)
        samples = np.zeros(grid.n)
        samples[40] = 1.0
        g, centers, table = scan_inputs(signal_from_samples(grid, samples), underflow_table())
        monkeypatch.setattr(bounds, "_BRACKET_MIN_SUPPORT", 1)
        ranked_rows = []
        ranked = bounds._FactorScan.ranks

        def counted(scan, rows):
            ranked_rows.append(rows.size)
            return ranked(scan, rows)

        monkeypatch.setattr(bounds._FactorScan, "ranks", counted)
        assert bounds._best_factor(g, centers, table) == exhaustive_best_factor(g, centers, table)
        assert len(ranked_rows) >= 2
        assert ranked_rows[0] < len(centers) * len(table)

    def test_the_zero_signal_admits_no_feasible_witness(self):
        grid = make_grid(64, 1 / 8)
        zero = signal_from_samples(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="no feasible witness"):
            bounds._best_factor(zero, [0.0, 1.0], bounds._SCAN_TABLE)


class TestUncertaintyFloors:
    def test_gaussian_attains_the_dimensional_floor(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        product = std_dev(f, 0.0) * std_dev(fhat, 0.0)
        assert product == pytest.approx(1 / (4 * math.pi), rel=1e-6)
        assert product == pytest.approx(heisenberg_floor(f), rel=1e-6)

    def test_spread_bound_formula(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        value = delta_bound(f, 1.5, 1.5, 0.1, 0.1)
        want = (1 - 0.01) * (1 - 0.01) / (4 * math.pi**2 * 1.5 * 1.5)
        assert value == pytest.approx(want, rel=1e-9)
        assert std_dev(f, 0.0) * std_dev(fhat, 0.0) >= value

    def test_confined_products_make_the_spread_bound_informative(self):
        # Below measure product (1/pi)(1 - eps_t^2)(1 - eps_omega^2) the
        # concentration bound exceeds the dimensional floor.
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        floor = heisenberg_floor(f)
        small = 0.25 * (1 - 0.01) * (1 - 0.01) / math.pi
        assert delta_bound(f, math.sqrt(small), math.sqrt(small), 0.1, 0.1) > floor


class TestSupportMomentBound:
    def test_gaussian_passes_on_both_axes(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        for axis in (TIME, FREQUENCY):
            lhs, rhs = support_moment_sides(f, fhat, 1.0, axis)
            assert lhs - rhs > 0

    def test_gaussian_hand_value(self):
        # Support at threshold 1e-12 spans |t| <= 2.96..., measure 5.9375 on
        # this grid; the right side is 1 / K1(1, 1) = 1 / (2 pi).
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        fhat = fourier(f)
        lhs, rhs = support_moment_sides(f, fhat, 1.0, TIME)
        assert rhs == pytest.approx(1 / (2 * math.pi), rel=1e-9)
        assert lhs == pytest.approx(5.9375 * std_dev(f, 0.0), rel=1e-4)

    def test_zero_signal_raises(self):
        grid = make_grid(256, 1 / 16)
        zero = signal_from_samples(grid, np.zeros(256))
        f = unit_gaussian(grid)
        with pytest.raises(ValueError, match="zero signal"):
            support_moment_sides(zero, fourier(f), 1.0, TIME)

    def test_shallow_powers_rejected(self):
        grid = make_grid(256, 1 / 16)
        f = unit_gaussian(grid)
        with pytest.raises(ValueError):
            support_moment_sides(f, fourier(f), 0.5, TIME)


def _gaussian_pair():
    f = unit_gaussian(make_grid(256, 1 / 16))
    return f, fourier(f)


def _zero_signal():
    return signal_from_samples(make_grid(256, 1 / 16), np.zeros(256))


class TestHypothesisErrors:
    """A broken hypothesis raises HypothesisError; any other refusal a plain ValueError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ds_bound(0.6, 0.5),
            lambda: ds_bound(0.5, 0.5),  # the classical floor needs eps_T + eps_Omega < 1
            lambda: improved_bound(0.6, 0.6),
            lambda: delta_bound(_gaussian_pair()[0], 0.0, 1.0, 0.1, 0.1),
            lambda: delta_bound(_gaussian_pair()[0], 1.0, -1.0, 0.1, 0.1),
            lambda: price_k(1, 1.0, 1.0),
            lambda: price_k(1, 1.0, 0.5),
            lambda: price_k(1, 1.0, -2.0),
            lambda: price_k(1, 0.5, 2.0),
            lambda: price_k(1, 0.5 + 4e-13, 2.0),  # within the relative margin 1e-12 of d/q'
            lambda: price_k(2, 1.0, 2.0),
            lambda: price_ktilde(1, 0.9, math.inf),
            lambda: price_ktilde(1, 1.0, math.inf),
            lambda: price_ktilde(1, 0.0, 2.0),
            lambda: price_ktilde(1, -3.0, math.inf),
            lambda: price_rhs(_gaussian_pair()[0], 0.0, 1.0, 0.5, 2.0),
            lambda: price_rhs(_gaussian_pair()[0], 0.0, 1.0, 1.0, 0.5),  # K refuses q < 1 before norm_lq can
            lambda: support_moment_sides(*_gaussian_pair(), 0.5, TIME),
            lambda: support_moment_sides(*_gaussian_pair(), -1.0, FREQUENCY),
        ],
    )
    def test_each_hypothesis_raises_hypothesis_error(self, call):
        with pytest.raises(uplab.HypothesisError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ds_bound(-0.1, 0.1),
            lambda: ds_bound(1.5, 0.0),
            lambda: improved_bound(0.1, 1.1),
            lambda: improved_bound(0.1, 0.1, d=0),
            lambda: improved_bound(1e-300, 0.0, d=400),  # the supremum is past the double range
            lambda: price_ktilde(1, math.nan, 2.0),
            lambda: price_ktilde(1, math.inf, 2.0),
            lambda: price_ktilde(1, -math.inf, 2.0),
            lambda: price_ktilde(1, 2.0, math.nan),
            lambda: price_ktilde(0, 2.0, 2.0),
            lambda: price_ktilde(1.5, 2.0, 2.0),
            lambda: price_ktilde(2**1100, 2.0, 2.0),  # d past the double range
            lambda: support_moment_sides(*_gaussian_pair(), 1.0, "phase"),
            lambda: support_moment_sides(_zero_signal(), _gaussian_pair()[1], 1.0, TIME),
        ],
    )
    def test_each_domain_error_is_a_plain_value_error(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, uplab.HypothesisError)

    def test_support_bound_prices_k_before_it_measures_a_side(self, monkeypatch):
        def measured(*args):
            raise AssertionError("a side was measured")

        for name in ("norm_lq", "support_mask", "energy_centroid", "weighted_moment_norm"):
            monkeypatch.setattr(bounds, name, measured)
        with pytest.raises(uplab.HypothesisError):
            support_moment_sides(*_gaussian_pair(), 0.5, TIME)

    @pytest.mark.parametrize("q", [1.5, 2.0, 4.0, 1e13, 1e300, math.inf])
    def test_the_margin_is_relative_to_d_over_q_prime(self, q):
        qp = conjugate_exponent(q)
        for d in (1, 2, 3):
            with pytest.raises(uplab.HypothesisError):
                price_k(d, d / qp * (1 + 5e-13), q)
            assert math.isfinite(price_k(d, d / qp * (1 + 5e-12), q))

"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one visible pass/fail line, bypassing capture so the line lands in the run
log.  Budgeted runtimes are asserted with generous slack.
"""

import itertools
import math
import time

import numpy as np
import pytest

import uplab as U


def announce(capsys, number, ok, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def unit_gaussian(grid, lam=1.0):
    samples = (2 * lam) ** 0.25 * np.exp(-np.pi * lam * grid.times**2)
    return U.signal_from_samples(grid, samples)


def noise_signal(grid, rng):
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return U.signal_from_samples(grid, v / (np.linalg.norm(v) * math.sqrt(grid.dx)))


def test_acceptance_1_product_bound_family(capsys):
    t0 = time.monotonic()
    zero = U.improved_bound(0.0, 0.0)
    ok = abs(zero.value - math.e**2) <= 1e-9 * math.e**2 and not zero.attained
    dominated = True
    for eps_t in np.linspace(0.0, 0.49, 20):
        for eps_omega in np.linspace(0.0, 0.49, 20):
            s = eps_t + eps_omega
            if s >= 1.0:
                continue
            v = U.improved_bound(eps_t, eps_omega).value
            if v < (1 - s) - 1e-12 or v < 4 * (1 - s) ** 2 - 1e-12:
                dominated = False
    elapsed = time.monotonic() - t0
    announce(
        capsys,
        1,
        ok and dominated and elapsed < 1.0,
        f"supremum bound: e^2 at zero defect, dominates both closed-form slices on a "
        f"20x20 defect grid in {elapsed:.2f}s",
    )


def test_acceptance_2_constant_consistency(capsys):
    ok = abs(U.price_k1(1, 1.0) - 2 * math.pi) <= 1e-12 * 2 * math.pi
    ok &= abs(U.price_k1(2, 2.0) - math.pi**2) <= 1e-12 * math.pi**2
    for alpha in (0.6, 0.75, 1.0, 2.0, 5.0):
        a, b = U.price_k(1, alpha, 2.0), U.price_k1(1, alpha)
        ok &= abs(a - b) <= 1e-12 * abs(b)
    announce(
        capsys,
        2,
        ok,
        "spectral constants: closed forms 2*pi and pi^2, and the q = 2 family member "
        "collapses to the simple constant at 1e-12",
    )


def test_acceptance_3_transform_norm_inequality(capsys):
    t0 = time.monotonic()
    grid = U.make_grid(256, 1 / 16)
    worst = math.inf
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        f, w = noise_signal(grid, rng), noise_signal(grid, rng)
        v = U.gabor_transform(f, w)
        for p in (2.0, 3.0, 4.0, 8.0, math.inf):
            rhs = U.lieb_constant(p, 1) * U.norm_lq(f, 2) * U.norm_lq(w, 2)
            worst = min(worst, (rhs - U.tf_norm_lp(v, p)) / max(rhs, 1.0))
    elapsed = time.monotonic() - t0
    announce(
        capsys,
        3,
        worst >= -1e-6 and elapsed < 30.0,
        f"windowed transform norm bound on 50 seeded pairs x 5 exponents, worst relative "
        f"slack {worst:.2e} in {elapsed:.1f}s",
    )


def test_acceptance_4_operator_norm_inequality(capsys):
    grid = U.make_grid(64, 1 / 8)
    worst = math.inf
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        dist = np.minimum(np.arange(64), 64 - np.arange(64)) ** 2
        avals = np.fft.ifft2(np.fft.fft2(raw) * np.exp(-0.1 * np.add.outer(dist, dist)))
        symbol = U.tfmatrix_from_values(grid, avals)
        phi, psi = noise_signal(grid, rng), noise_signal(grid, rng)
        nm = U.operator_norm(U.localization_operator(symbol, phi, psi))
        for q in (1.0, 2.0, 4.0, math.inf):
            rhs = U.locop_constant(q, 1) * U.tf_norm_lp(symbol, q)
            worst = min(worst, (rhs - nm) / max(rhs, 1.0))
    profile = [U.alpha_k_profile(k) for k in range(2, 100001)]
    prof_ok = min(profile) == profile[0] and abs(profile[0] - 0.5) <= 1e-12
    announce(
        capsys,
        4,
        worst >= -1e-5 and prof_ok,
        f"localization norm bound on 20 seeded symbols x 4 exponents (worst relative slack "
        f"{worst:.2e}); power profile minimum 1/2 at k = 2 over a 1e5 grid",
    )


def test_acceptance_5_two_operator_routes_agree(capsys):
    grid = U.make_grid(64, 1 / 8)
    window = unit_gaussian(grid)
    x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
    symbol = U.tfmatrix_from_values(grid, np.exp(-np.pi * (x**2 + om**2)))
    direct = U.localization_operator(symbol, window, window)
    routed = U.weyl_from_localization(symbol, window, window)
    gap = float(np.max(np.abs(direct.matrix - routed.matrix)))
    announce(
        capsys,
        5,
        gap <= 1e-5,
        f"localization operator equals the quantized smoothed symbol at n = 64 "
        f"(max entry gap {gap:.2e})",
    )


def test_acceptance_6_phase_space_densities(capsys):
    grid = U.make_grid(256, 1 / 16)
    wig_ok = True
    for lam in (0.5, 1.0, 2.0):
        f = unit_gaussian(grid, lam)
        w = U.wigner(f)
        x, om = np.meshgrid(grid.times, grid.freqs, indexing="ij")
        closed = 2 * np.exp(-2 * np.pi * lam * x**2) * np.exp(-2 * np.pi * om**2 / lam)
        wig_ok &= float(np.max(np.abs(w.values - closed))) <= 1e-6
    f = unit_gaussian(grid)
    fhat = U.fourier(f)
    want = 1 / (2 * math.sqrt(math.pi))
    spread_ok = abs(U.std_dev(f, 0.0) - want) <= 1e-6 * want
    spread_ok &= abs(U.std_dev(fhat, 0.0) - want) <= 1e-6 * want
    floor = U.heisenberg_floor(f)
    spread_ok &= abs(U.std_dev(f, 0.0) * U.std_dev(fhat, 0.0) - floor) <= 1e-6 * floor
    announce(
        capsys,
        6,
        wig_ok and spread_ok,
        "Gaussian phase-space density matches its closed form at 1e-6 and the spread "
        "product attains the dimensional floor",
    )


def test_acceptance_7_standard_suite_is_clean(capsys):
    t0 = time.monotonic()
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    for scenario in U.standard_suite():
        report = U.run_scenario(scenario)
        for key in totals:
            totals[key] += report.summary[key]
    elapsed = time.monotonic() - t0
    announce(
        capsys,
        7,
        totals["fail"] == 0 and elapsed < 120.0,
        f"standard suite (21 scenarios): {totals['pass']} passed, {totals['fail']} failed, "
        f"{totals['skipped']} skipped in {elapsed:.1f}s",
    )


def test_acceptance_8_smoothing_sweeps_sharpen(capsys):
    report = U.run_scenario(U.bundled_scenario("gaussian-basic"))
    by_id = {v.check_id: v for v in report.verdicts}
    time_v, freq_v = by_id["smoothing-time"], by_id["smoothing-freq"]
    ok = (
        time_v.status == "pass"
        and freq_v.status == "pass"
        and time_v.margin > 1e-10
        and freq_v.margin > 1e-10
    )
    announce(
        capsys,
        8,
        ok,
        f"projection errors decrease strictly along both smoothing sweeps "
        f"(min drops {time_v.margin:.2e} / {freq_v.margin:.2e})",
    )


def test_acceptance_9_reference_algorithms(capsys):
    greedy_ok = True
    for n, seed in itertools.product((4, 8, 12), (0, 1)):
        grid = U.make_grid(n, 0.5)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = U.signal_from_samples(grid, v)
        e = np.abs(f.samples) ** 2
        total = e.sum()
        for eps in (0.0, 0.3, 0.7):
            greedy = U.minimal_concentration_set(f, eps).mask.count
            best = n
            for bits in itertools.product((0, 1), repeat=n):
                flags = np.array(bits, dtype=bool)
                if e[~flags].sum() <= eps * eps * total + 1e-15:
                    best = min(best, int(flags.sum()))
            greedy_ok &= greedy == best
    norm_ok = True
    grid = U.make_grid(32, 0.25)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        top = np.linalg.svd(matrix, compute_uv=False)[0]
        norm_ok &= abs(U.operator_norm(U.linear_op(grid, matrix)) - top) <= 1e-8
    announce(
        capsys,
        9,
        greedy_ok and norm_ok,
        "greedy concentration sets match subset enumeration at n <= 12; iterated norm "
        "estimates match dense SVD at 1e-8",
    )

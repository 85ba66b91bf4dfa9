"""Closed-form constants and lower bounds for concentration inequalities.

Conventions for the exponents:

* conjugate exponents satisfy 1/q + 1/q' = 1 with the pairs (1, inf) and
  (inf, 1) included,
* the transform-size constant is (2/p)^(d/p) for p >= 2, equal to 1 at
  p = 2 and p = inf,
* the operator-norm constant is (1/q')^(d/q') with the value 1 at both
  endpoints q = 1 and q = inf,
* the profile alpha(k) = (1/k)^(1/k) * (1/k')^(1/k') is written as
  x^x (1-x)^(1-x) with x = 1/k and the 0^0 = 1 convention; its minimum over
  k in [1, inf] is 1/2, attained at k = 2.

Product bounds for the measures |T| * |Omega| of a (eps_T, eps_Omega)
concentration pair come in several strengths; each function documents the
hypotheses it needs and validates them.  An input that breaks a theorem's
hypothesis raises HypothesisError; any other invalid input (a value outside
the domain of a formula, or a non-finite result) raises a plain ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import _moment_lq, energy_centroid, support_mask, weighted_moment_norm
from .core import _BLOCK_BYTES, FREQUENCY, TIME, Signal, _quadrature_lq, norm_lq

INF = float("inf")


class HypothesisError(ValueError):
    """An input for which the inequality's hypothesis fails, so the bound makes no claim."""


def conjugate_exponent(q: float) -> float:
    q = float(q)
    if not q >= 1.0:
        raise ValueError(f"exponent must satisfy q >= 1, got {q!r}")
    if q == 1.0:
        return INF
    if math.isinf(q):
        return 1.0
    return q / (q - 1.0)


def lieb_constant(p: float, d: int = 1) -> float:
    """(2/p)^(d/p): transform-size constant for the mixed norm, p >= 2."""
    d = _check_dimension(d)
    p = float(p)
    if not p >= 2.0:
        raise ValueError(f"constant defined for p >= 2, got {p!r}")
    if math.isinf(p):
        return 1.0
    return float((2.0 / p) ** (d / p))


def locop_constant(q: float, d: int = 1) -> float:
    """(1/q')^(d/q'): operator-norm constant, equal to 1 at q = 1 and q = inf."""
    d = _check_dimension(d)
    qp = conjugate_exponent(q)
    if math.isinf(qp):
        return 1.0
    return float((1.0 / qp) ** (d / qp))


def alpha_k_profile(k: float) -> float:
    """x^x (1-x)^(1-x) with x = 1/k; endpoints use the 0^0 = 1 convention."""
    k = float(k)
    if k < 1.0:
        raise ValueError(f"profile defined for k >= 1, got {k!r}")
    x = 0.0 if math.isinf(k) else 1.0 / k
    def plogp(y):
        return 0.0 if y == 0.0 else y * math.log(y)
    return math.exp(plogp(x) + plogp(1.0 - x))


def ds_bound(eps_t: float, eps_omega: float) -> float:
    """Classical product floor (1 - eps_T - eps_Omega)^2; needs eps_T + eps_Omega < 1."""
    _check_eps(eps_t, eps_omega)
    s = eps_t + eps_omega
    if s >= 1.0:
        raise HypothesisError(f"ds_bound requires eps_t + eps_omega < 1, got {s}")
    return (1.0 - s) ** 2


def _check_eps(eps_t: float, eps_omega: float) -> None:
    for name, e in (("eps_t", eps_t), ("eps_omega", eps_omega)):
        if not (0.0 <= e <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {e!r}")


@dataclass(frozen=True)
class BoundValue:
    """A bound together with the argument that attains it (when one exists).

    `cf_bound` also keeps the factors of its value, (||f||_2, A, B) with
    value = ||f||_2^4 * A * B, for `separate_measure_bounds`.
    """

    value: float
    witness: dict | None = None
    attained: bool = True
    factors: tuple | None = None


def improved_bound(eps_t: float, eps_omega: float, d: int = 1) -> BoundValue:
    """sup over r in [1, inf) of (1 - eps)^r * (r/(r-1))^(2d(r-1)), eps = eps_T + eps_Omega.

    The log of the objective, h(r) = r log(1-eps) + 2d (r-1) log(r/(r-1)), is
    strictly concave.  With u = 1/r its stationarity condition reads

        -log1p(-u) - u = -log1p(-eps) / (2d),

    the principal Lambert W equation u = 1 + W0(-exp(-1 + log1p(-eps)/(2d)))
    (Corless et al., Adv. Comput. Math. 5, 1996) written without the branch
    point.  `_stationary_u` solves it by a bracketed Newton iteration.  The
    value is exp(h(r*)), r* = 1/u, with h evaluated as
    r log1p(-eps) - 2d (r-1) log1p(-1/r), which stays accurate as r -> inf.
    At eps = 0 the supremum is exp(2d), approached as r -> inf but attained
    by no finite r, which the returned record marks with attained=False.
    A supremum above the double range (h > 709.78, so d >= 355 for small eps)
    raises ValueError: an infinite lower bound would be false.
    """
    _check_eps(eps_t, eps_omega)
    d = _check_dimension(d)
    eps = eps_t + eps_omega
    if eps > 1.0:
        raise HypothesisError(f"improved_bound requires eps_t + eps_omega <= 1, got {eps}")
    params = {"eps_t": eps_t, "eps_omega": eps_omega, "d": d}
    if eps == 0.0:
        return BoundValue(_finite("improved_bound", params, lambda: math.exp(2.0 * d)), {"r": INF}, attained=False)
    if eps == 1.0:
        return BoundValue(0.0, {"r": 1.0}, attained=True)

    log1me = math.log1p(-eps)
    u = _stationary_u(math.sqrt(-log1me) / math.sqrt(d))  # sqrt(-log1me / d) underflows to 0 for subnormal eps
    r_star = 1.0 / u
    h = r_star * log1me - 2.0 * d * (r_star - 1.0) * math.log1p(-u)
    return BoundValue(_finite("improved_bound", params, lambda: math.exp(h)), {"r": r_star}, attained=True)


def _stationary_u(s: float) -> float:
    """The root u in (0, 1) of phi(u) = s, phi(u) = sqrt(2 (-log1p(-u) - u)), for s > 0.

    phi is increasing and convex (phi'' has the sign of phi^2 - u^2 =
    2 sum_{k>=3} u^k / k), so a Newton step, with phi'(u) = u / ((1 - u) phi(u)),
    moves down onto the root from above it.  The root lies in

        [-expm1(-s^2/2), min(s, -expm1(-1 - s^2/2))],

    since phi(u) >= u and 1 - u = exp(-(s^2/2 + u)); a step that leaves the
    bracket becomes a bisection.  The start is the inverted series
    u = s - s^2/3 + s^3/36 for s < 1 (next term s^4/270, so for s below
    ~1e-5 it is the root to rounding and is returned as it is), and the upper
    end of the bracket otherwise.  The iteration stops at a step of at most
    4 ulps, which it does not take.
    """
    lo, hi = -math.expm1(-0.5 * s * s), min(s, -math.expm1(-1.0 - 0.5 * s * s))
    u = s - s * s / 3.0 + s**3 / 36.0 if s < 1.0 else hi
    for _ in range(100):
        root_gap = math.sqrt(_scaled_log_gap(u))
        miss = u * root_gap - s
        if miss > 0.0:
            hi = u
        elif miss < 0.0:
            lo = u
        step = miss * (1.0 - u) * root_gap
        if abs(step) <= 4.0 * math.ulp(u):
            break
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    return u


def _scaled_log_gap(u: float) -> float:
    """2 (-log1p(-u) - u) / u^2 for u in (0, 1), free of cancellation and underflow.

    For u <= 1/4 it is summed as (2/a) (1 + 2u/a^2 sum_k w^(2k) / (2k+3)),
    a = 2 - u and w = u/a, from -log1p(-u) = 2 atanh(w); w^2 <= 1/49, so ten
    terms reach rounding.
    """
    if u > 0.25:
        return 2.0 * (-math.log1p(-u) - u) / (u * u)
    a = 2.0 - u
    w2 = (u / a) ** 2
    tail = 0.0
    for j in range(21, 1, -2):
        tail = tail * w2 + 1.0 / j
    return 2.0 / a * (1.0 + 2.0 * u / (a * a) * tail)


def _finite(name: str, params: dict, value) -> float:
    """value(), the named quantity at params; ValueError naming both where that is not a finite double."""
    try:
        out = value()
    except (OverflowError, ValueError):  # exp past the double range, or a math domain error
        out = math.nan
    if math.isfinite(out):
        return out
    raise ValueError(f"{name}({', '.join(f'{k}={v!r}' for k, v in params.items())}) is not a finite double")


def _check_dimension(d: int) -> int:
    """d as an int: a positive integer that a double holds, since the constants divide by it."""
    try:
        valid = float(d).is_integer() and d >= 1
    except OverflowError:  # an int past the double range
        raise ValueError("dimension d must be a positive integer within the double range, got a larger one") from None
    if not valid:
        raise ValueError(f"dimension d must be a positive integer, got {d!r}")
    return int(d)


def price_ktilde(d: int, alpha: float, q: float) -> float:
    """Unsquared local constant for general q in (1, inf]; requires alpha > d/q'.

    The hypothesis is decided relatively, as alpha q' > d (1 + 1e-12), so it
    holds at every q where alpha exceeds d/q' by that factor (at q = inf,
    q' = 1 and alpha > d).  A finite alpha <= 0 fails it too.
    """
    d, alpha, q = _check_dimension(d), float(alpha), float(q)
    if not math.isfinite(alpha):
        raise ValueError(f"moment exponent must be finite, got {alpha!r}")
    if q <= 1.0:
        raise HypothesisError(f"price_ktilde requires q > 1, got {q!r}")
    qp = conjugate_exponent(q)
    if not alpha * qp > d * (1.0 + 1e-12):
        raise HypothesisError(f"price_ktilde requires alpha > d/q', got alpha={alpha!r}, q'={qp!r}, d={d}")
    params = {"d": d, "alpha": alpha, "q": q}
    if math.isinf(q):
        # limit of the finite-q expression as q -> inf (conjugate exponent 1)
        return _finite("price_ktilde", params, lambda: math.exp(
            math.log(2.0)
            + (d / 2.0) * math.log(math.pi)
            - math.lgamma(d / 2.0)
            + math.log(alpha)
            - math.log(d)
            - math.log(alpha - d)
        ))
    # alpha q or alpha q' can overflow while alpha is finite, and only there are they taken apart;
    # x = d/(alpha q) is then tiny and may be subnormal, so lgamma(x) = -log(x) is log(alpha q) - log(d)
    aq, aqp = alpha * q, alpha * qp
    x, log_aq = (d / aq, math.log(aq)) if math.isfinite(aq) else (d / alpha / q, math.log(alpha) + math.log(q))
    log_tail = math.log(aqp / d - 1.0) if math.isfinite(aqp) else math.log(alpha) + math.log(qp / d)
    y = 1.0 / (q - 1.0) - x
    return _finite("price_ktilde", params, lambda: math.exp(
        ((q - 1.0) / q) * (
            math.log(2.0)
            + (d / 2.0) * math.log(math.pi)
            - math.lgamma(d / 2.0)
            - log_aq
            + (math.lgamma(x) if math.isfinite(aq) else log_aq - math.log(d))
            + math.lgamma(y)
            - math.lgamma(x + y)
        )
        + (d / (q * qp * alpha)) * log_tail
        - (1.0 / q) * math.log(1.0 - d / (alpha * qp))
    ))


def price_k(d: int, alpha: float, q: float) -> float:
    """Squared local constant K = Ktilde^2; at q = 2 it is 2 pi for d = alpha = 1 and pi^2 for d = alpha = 2."""
    return price_ktilde(d, alpha, q) ** 2


def price_rhs(f: Signal, center: float, omega_measure: float, alpha: float, q: float) -> float:
    """Right side of the local energy bound, with K priced before f is measured and c = center:

        K(1, alpha, q) * |Omega| * ||f||_q^(2 - 2/(alpha q')) * |||t - c|^alpha f||_q^(2/(alpha q'))
    """
    if omega_measure < 0:
        raise ValueError(f"measure must be nonnegative, got {omega_measure!r}")
    k = price_k(1, alpha, q)
    e = 2.0 / (alpha * conjugate_exponent(q))  # at most 2: price_k refuses alpha <= 1/q'
    norm_q, moment_q = norm_lq(f, q), weighted_moment_norm(f, center, alpha, q)
    return float(k * omega_measure * norm_q ** (2.0 - e) * moment_q ** e)


class CfSearch:
    """The fixed search grid of the signal-adapted constant, tabulated once into `_SCAN_TABLE`."""

    qs = (1.5, 2.0, 3.0, 4.0, INF)
    alpha_count = 6
    alpha_max = 8.0
    center_count = 5

    @classmethod
    def alphas(cls, q: float) -> tuple:
        lo = 1.0 / conjugate_exponent(q)
        vals = set(np.geomspace(max(lo * 1.25, 1e-3), cls.alpha_max, cls.alpha_count).tolist())
        for extra in (1.0, 2.0):
            if extra > lo * (1.0 + 1e-9) and extra <= cls.alpha_max:
                vals.add(extra)
        return tuple(sorted(vals))


# The (q, alpha, e, K) rows of one factor's scan in scan order, shared by both factors: 39 rows.
_SCAN_TABLE = tuple(
    (q, a, 2.0 / (a * conjugate_exponent(q)), price_k(1, a, q)) for q in CfSearch.qs for a in CfSearch.alphas(q)
)


def cf_bound(f: Signal, fhat: Signal) -> BoundValue:
    """Best lower bound for the signal-adapted constant over the fixed `CfSearch` grid.

    At a witness (t_bar, w_bar, q1, alpha1, q2, alpha2) the quotient is
    ||f||_2^4 * A * B, with A the `_factor` of fhat about w_bar at (q1, alpha1)
    and B that of f about t_bar at (q2, alpha2).  Any witness gives a valid
    lower bound for the true constant, so enlarging the grids can only
    increase the result.  Both factors are positive, so the maximum of the
    quotient is max A times max B and each factor is scanned on its own grid.
    Ties keep the first maximiser in the lexicographic scan order (t_bar,
    w_bar, q1, alpha1, q2, alpha2) of the full witness grid: that is the first
    maximiser of A in (w_bar, q1, alpha1) order together with the first
    maximiser of B in (t_bar, q2, alpha2) order.  Witnesses whose moment norm
    vanishes are skipped.  The result's `factors` are (||f||_2, max A, max B).

    Each factor's search is `_best_factor`: a cheap bracket [lo, up] on every
    row's log-factor (blocks of samples, widened for rounding), a log-domain
    ranking of only the rows whose up comes within `_RANK_BAND` of the best
    lo, and an exact evaluation of only the ranked rows within the band of
    the top.  The bracket and the ranking are one log-moment kernel,
    `_FactorScan.log_moments`, run on blocks and on samples.  A row it skips
    provably ranks, and so evaluates, below the maximum, so the value and
    witness are those of evaluating every row, bit for bit.  On a full
    n = 65536 support it ranks 1-50 of the 234 rows.
    """
    if f.domain != TIME or fhat.domain != FREQUENCY:
        raise ValueError("expected a time signal and its frequency transform")
    best_w, (wb, q1, a1), _ = _best_factor(fhat, _scan_centers(fhat), _SCAN_TABLE)
    best_t, (tb, q2, a2), norm2 = _best_factor(f, _scan_centers(f), _SCAN_TABLE)
    witness = {"t_bar": tb, "w_bar": wb, "q1": q1, "alpha1": a1, "q2": q2, "alpha2": a2}
    return BoundValue(float(norm2**4 * best_w * best_t), witness, factors=(norm2, best_w, best_t))


def _scan_centers(g: Signal) -> list:
    """The energy centroid of g, then `CfSearch.center_count` points across the middle half of its axis."""
    axis = g.axis
    return [energy_centroid(g)] + np.linspace(axis[0] / 2.0, axis[-1] / 2.0, CfSearch.center_count).tolist()


def _factor(norm_q: float, k: float, moment: float, e: float) -> float:
    """||g||_q^e / (K ||g||_q^2 M^e): the factor one signal contributes to C_f."""
    return norm_q**e / (k * norm_q**2 * moment**e)


# Rows whose ranked log-factor lies within this of the top one are re-evaluated
# exactly.  The ranking errs by far less (the tests hold it under 1e-11), so the
# band always holds every exact maximiser.
_RANK_BAND = 1e-9

# `_FactorScan.bracket` summarises the sorted support in blocks of this many
# consecutive samples.  Finer blocks prune more rows and cost more to bracket:
# at n = 65536, blocks of 16 to 256 gave the same `_best_factor` time.
_BRACKET_BLOCK = 64

# Below this many support samples the bracket costs more than the rows it
# prunes save, and every row is ranked.  `_best_factor` with the bracket, over
# the time without it (Gaussian, chirp, hermite and random_bandlimited
# signals, both domains, 2-CPU x86 host): 1.2-1.3 at 256 samples, 0.7-1.1 at
# 490-512, 0.6-1.0 at 768 and 0.3-0.7 at 2048.
_BRACKET_MIN_SUPPORT = 512

# Rounding allowance of a bracketed log M, relative to the magnitudes that
# enter it: about 4500 units of rounding, where the bracket and the ranked
# pass each err by a few units per operation and log2(n) in a sum.
_BRACKET_RTOL = 1e-12


def _best_factor(g: Signal, centers: list, table: list) -> tuple[float, tuple, float]:
    """First maximiser of `_factor` over (center, q, alpha), in that scan order, and ||g||_2.

    The moment M is the one `weighted_moment_norm` computes.  The scan
    brackets, ranks, then verifies, with each row's rank the log-factor that
    `_FactorScan.log_moments` gives on the support's own samples
    (`_FactorScan.ranks`):

    1. `_FactorScan.bracket` gives every row an interval [lo, up] that holds
       its rank, with the rounding of both passes included.
    2. Stop rule: only the rows with up >= max(lo) - `_RANK_BAND` are ranked.
    3. The ranked rows within `_RANK_BAND` of the top rank are evaluated
       exactly, by `_moment_lq` and `_factor`, and the first exact maximiser
       among them in scan order is returned.

    Why this is the exhaustive scan's answer.  Step 2 leaves out only rows
    that rank below max(lo) - band, while the row attaining max(lo) ranks at
    least max(lo); so the top rank is a ranked row's, and every row within the
    band of it is ranked: step 3 sees the same rows as if all were ranked.
    Then: a row's ranked and exact log-factors differ by some eps far below
    band / 2.  Let L be the exact maximum.  If the top-ranked row is exactly
    feasible, its rank is at most L + eps, while every exact maximiser ranks
    at least L - eps, which is within 2 eps < band of the top.  So every exact
    maximiser is evaluated, and the value, witness and tie rule match the
    row-by-row scan.  A checked row whose exact moment is 0 (dist^alpha * |g|
    underflows on every sample while its logarithm stays finite) is
    infeasible, as in the row-by-row scan: its rank and its lo become -inf,
    and steps 2 and 3 run again, so rows pruned against its lo are ranked if
    they can now reach the top.
    """
    if not g.samples.any():  # every moment of the zero signal vanishes
        raise ValueError("search grids admitted no feasible witness")
    scan = _FactorScan(g, centers, table)
    lo, up = scan.bracket()
    ranks = np.full(lo.size, -np.inf)
    unranked = np.ones(lo.size, dtype=bool)
    while True:
        todo = np.flatnonzero(unranked & (up >= lo.max(initial=-np.inf) - _RANK_BAND))
        ranks[todo] = scan.ranks(todo)
        unranked[todo] = False
        top = ranks.max(initial=-np.inf)
        if top == -np.inf:
            raise ValueError("search grids admitted no feasible witness")
        best, arg, dropped = None, None, False
        for row in np.flatnonzero(ranks >= top - _RANK_BAND):
            c = centers[row // len(table)]
            q, a, e, k = table[row % len(table)]
            m = _moment_lq(np.abs(scan.axis - float(c)), scan.mags, g.spacing, a, q)
            if m == 0.0:
                ranks[row] = lo[row] = -np.inf
                dropped = True
                continue
            val = _factor(scan.norms[q], k, m, e)
            if best is None or val > best:
                best, arg = val, (c, q, a)
        if not dropped:
            return best, arg, scan.norms[2.0]


class _FactorScan:
    """The (center, q, alpha) rows of one factor's scan, in scan order, on the support of g.

    Built once per factor: |g| gives the norms (by `_quadrature_lq`, as
    `norm_lq` takes them) and the support, and log|g|, the rows' (q, alpha, e)
    columns and their rank offsets (e - 2) log ||g||_q - log K are taken once.
    """

    def __init__(self, g: Signal, centers: list, table: list):
        mags = np.abs(g.samples)
        self.norms = {q: _quadrature_lq(mags, g.spacing, q) for q in {2.0, *(row[0] for row in table)}}
        nonzero = mags > 0
        self.axis, self.mags = (g.axis, mags) if nonzero.all() else (g.axis[nonzero], mags[nonzero])
        self.level, self.log_h, self.centers = np.log(self.mags), math.log(g.spacing), np.asarray(centers, dtype=float)
        self.qs = sorted({row[0] for row in table})
        q, _, e, k = columns = np.array(table).T
        self.row_c, row_t = np.divmod(np.arange(len(centers) * len(table)), len(table))
        self.q, self.alpha, self.e = columns[:3, row_t]
        self.offset = ((e - 2.0) * np.log([self.norms[x] for x in q.tolist()]) - np.log(k))[row_t]

    def rank(self, log_m: np.ndarray, rows, feasible: np.ndarray) -> np.ndarray:
        """offset - e log M of the given rows, the log `_factor` without a power; -inf where not feasible.

        It falls as log M grows, in floating point too.
        """
        return np.where(feasible, self.offset[rows] - self.e[rows] * log_m, -np.inf)

    def bracket(self) -> np.ndarray:
        """Bounds lo <= rank <= up on the `ranks` rank of every row, as the rows (lo, up).

        The support, sorted along the axis, is cut into blocks of
        `_BRACKET_BLOCK` consecutive samples.  On block j, log|x - c| lies
        between dmin_j and dmax_j, the smaller and the larger of its values at
        the block's two end points; dmin_j = -inf when the block's span holds c.
        `log_moments` on the blocks, with dmin or dmax as the distance and
        S_j = log sum_block |g|^q (the block maximum of log|g| at q = inf) as
        the level, bounds each row's log M from below and from above; on
        blocks of one sample both bounds are the ranked pass's log M, bit for
        bit.  Each bound B is widened by `_BRACKET_RTOL` (1 + |log h| + log n
        + |B|), n the support size, which covers the rounding of the bracket
        and of the ranked pass (each errs by a few units of rounding of the
        magnitudes that enter log M), then mapped to a rank by `rank`.
        A log M that may be -inf (every block's span holds c) gives up = +inf; a
        row whose log M is certainly -inf (every sample on the centre, M = 0)
        gets lo = up = -inf.  The cost is O(rows * n / block) and one O(n) pass
        per q.  Below `_BRACKET_MIN_SUPPORT` samples every row gets (-inf, inf).
        """
        if self.axis.size < _BRACKET_MIN_SUPPORT:
            return np.array([np.full(self.q.size, -np.inf), np.full(self.q.size, np.inf)])
        starts = np.arange(0, self.axis.size, _BRACKET_BLOCK)
        first, last = self.axis[starts], self.axis[np.append(starts[1:], self.axis.size) - 1]
        c = self.centers[:, None]
        with np.errstate(divide="ignore"):  # a block end on the centre
            at_first, at_last = np.log(np.abs(first - c)), np.log(np.abs(last - c))
        dmin = np.where((first <= c) & (c <= last), -np.inf, np.minimum(at_first, at_last))
        peak = np.maximum.reduceat(self.level, starts)
        below = self.level - np.repeat(peak, np.diff(starts, append=self.axis.size))  # log|g| less its block's peak
        block_level = np.array(
            [peak if math.isinf(q) else q * peak + np.log(np.add.reduceat(np.exp(q * below), starts)) for q in self.qs]
        )
        every, dmax = np.arange(self.centers.size), np.maximum(at_first, at_last)
        lower, upper = (self.log_moments(d, every, block_level, slice(None)) for d in (dmin, dmax))
        magnitude = 1.0 + abs(self.log_h) + math.log(self.axis.size)
        feasible = upper > -np.inf
        lower -= _BRACKET_RTOL * (magnitude + np.abs(lower))  # -inf stays -inf
        np.add(upper, _BRACKET_RTOL * (magnitude + np.abs(upper)), out=upper, where=feasible)
        return self.rank(np.array([upper, lower]), slice(None), feasible)

    def ranks(self, rows: np.ndarray) -> np.ndarray:
        """The rank of each given row (indices in the scan order): `log_moments` on the samples.

        The distance is log|x - c|, taken only for the centres that have a row
        to rank, a group of at most `_BLOCK_BYTES` of them at a time, and the
        level is q log|g| (log|g| at q = inf).  Rows with M = 0 (every sample
        on the centre) rank -inf.
        """
        log_m, row_c = np.empty(rows.size), self.row_c[rows]
        level = np.array([self.level if math.isinf(q) else q * self.level for q in self.qs])
        step = max(1, _BLOCK_BYTES // (8 * self.axis.size))
        used = np.flatnonzero(np.bincount(row_c, minlength=self.centers.size))
        for first in range(0, used.size, step):
            group = used[first : first + step]
            dist = self.axis - self.centers[group, None]
            with np.errstate(divide="ignore"):  # a sample on the centre
                np.log(np.abs(dist, out=dist), out=dist)
            mine = (group[0] <= row_c) & (row_c <= group[-1])
            log_m[mine] = self.log_moments(dist, group, level, rows[mine])
        return self.rank(log_m, rows, log_m > -np.inf)

    def log_moments(self, dist: np.ndarray, dist_centers: np.ndarray, level: np.ndarray, rows) -> np.ndarray:
        """log M of the given rows from a table of cells j: a distance row D per centre, a level row L per q.

        dist has a row for each of the sorted centre indices `dist_centers`, and
        level a row for each q of `qs`.  With h the spacing, a row reads

            log M = (log h + LSE_j(q alpha D_j + L_j)) / q,  and max_j(alpha D_j + L_j) at q = inf,

        LSE_j the log-sum-exp over the cells.  This is the one place that
        forms it: the bracket runs it on blocks, the ranked pass on samples.
        The rows are streamed in blocks of at most `_BLOCK_BYTES`, and each is
        reduced on its own contiguous row of the block, so a row's log M does
        not depend on which rows are reduced with it.  A row whose every cell
        is -inf has log M = -inf.
        """
        q = self.q[rows]
        scale = np.where(np.isinf(q), 1.0, q)
        weight, log_m = scale * self.alpha[rows], np.empty(q.size)
        dist_row, level_row = dist_centers.searchsorted(self.row_c[rows]), np.searchsorted(self.qs, q)
        step = max(1, _BLOCK_BYTES // (16 * dist.shape[1]))
        work, gathered = np.empty((2, min(step, q.size), dist.shape[1]))
        for b in range(0, q.size, step):
            r = slice(b, min(b + step, q.size))
            x, s = work[: r.stop - b], gathered[: r.stop - b]
            np.take(dist, dist_row[r], axis=0, out=x, mode="clip")  # in range; "clip" skips the buffered copy
            x *= weight[r, None]
            np.take(level, level_row[r], axis=0, out=s, mode="clip")
            x += s
            top = x.max(axis=1)
            finite_q = q[r] < np.inf
            if finite_q.any():  # a q = inf row needs only the maximum
                x -= np.where(top > -np.inf, top, 0.0)[:, None]
                np.exp(x, out=x)
                with np.errstate(divide="ignore"):  # every cell -inf: log M = -inf
                    top = np.where(finite_q, (top + (self.log_h + np.log(x.sum(axis=1)))) / scale[r], top)
            log_m[r] = top
        return log_m


def separate_measure_bounds(eps_t: float, eps_omega: float, factors: tuple) -> tuple[float, float]:
    """Individual lower bounds for |T| and |Omega| from `cf_bound`'s factors (||f||_2, A, B):

        ((1 - eps_T^2) ||f||_2^2 A, (1 - eps_Omega^2) ||f||_2^2 B)

    with A, B the factors of `cf_bound`'s quotient.  Their product equals
    (1 - eps_T^2)(1 - eps_Omega^2) times the quotient at the witness, an
    algebraic identity the tests assert.
    """
    _check_eps(eps_t, eps_omega)
    norm2, a, b = factors
    return float((1.0 - eps_t**2) * norm2**2 * a), float((1.0 - eps_omega**2) * norm2**2 * b)


def delta_bound(f: Signal, meas_t: float, meas_omega: float, eps_t: float, eps_omega: float) -> float:
    """Spread-product floor: (1-eps_T^2)(1-eps_Omega^2) ||f||_2^2 / (4 pi^2 |T||Omega|)."""
    _check_eps(eps_t, eps_omega)
    if not (meas_t > 0 and meas_omega > 0):
        raise HypothesisError(f"delta_bound requires positive measures, got {meas_t} and {meas_omega}")
    n2 = norm_lq(f, 2.0)
    return float((1.0 - eps_t**2) * (1.0 - eps_omega**2) * n2**2 / (4.0 * math.pi**2 * meas_t * meas_omega))


def heisenberg_floor(f: Signal) -> float:
    """Dimensional floor ||f||_2^2 / (4 pi) for the spread product about zero centers."""
    return float(norm_lq(f, 2.0) ** 2 / (4.0 * math.pi))


def support_moment_sides(f: Signal, fhat: Signal, alpha: float, axis: str) -> tuple[float, float]:
    """(lhs, rhs) of the support-moment inequality lhs >= rhs in one of its two mirror forms.

    axis = "time":       |supp f| * Mw^(1/alpha) >= ||f||_2^(1/alpha) / K
    axis = "frequency":  |supp fhat| * Mt^(1/alpha) >= ||f||_2^(1/alpha) / K

    where Mw / Mt is the L^2 moment of order alpha of the other-domain signal
    about its energy centroid and K = K(1, alpha, 2).  Support is measured at
    the fixed relative magnitude threshold 1e-12 of `support_mask`.  The zero
    signal raises ValueError.  An alpha that breaks K's hypothesis at q = 2,
    alpha > 1/2, raises HypothesisError before any side is measured.
    """
    if axis not in (TIME, FREQUENCY):
        raise ValueError(f"axis must be 'time' or 'frequency', got {axis!r}")
    k = price_k(1, alpha, 2.0)
    n2 = norm_lq(f, 2.0)
    if n2 == 0.0:
        raise ValueError("support bound of the zero signal is undefined")
    supported, other = (f, fhat) if axis == TIME else (fhat, f)
    supp = support_mask(supported).measure
    moment = weighted_moment_norm(other, energy_centroid(other), alpha, 2.0)
    return supp * moment ** (1.0 / alpha), n2 ** (1.0 / alpha) / k

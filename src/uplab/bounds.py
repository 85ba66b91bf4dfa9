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
hypotheses it needs and validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import _moment_lq, _support, energy_centroid, support_mask, weighted_moment_norm
from .core import _BLOCK_BYTES, FREQUENCY, TIME, Signal, norm_lq

INF = float("inf")


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
        raise ValueError(f"bound requires eps_t + eps_omega < 1, got {s}")
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
        raise ValueError(f"bound requires eps_t + eps_omega <= 1, got {eps}")
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
    except (OverflowError, ValueError):  # exp past the double range; lgamma(0) once a huge alpha rounds x to 0
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


def _check_d_alpha(d: int, alpha: float):
    d = _check_dimension(d)
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"moment exponent must be positive and finite, got {alpha!r}")
    return d, alpha


def price_ktilde(d: int, alpha: float, q: float) -> float:
    """Unsquared local constant for general q in (1, inf]; requires alpha > d/q'."""
    d, alpha = _check_d_alpha(d, alpha)
    q = float(q)
    if q <= 1.0:
        raise ValueError(f"constant defined for q > 1, got {q!r}")
    params = {"d": d, "alpha": alpha, "q": q}
    if math.isinf(q):
        # limit of the finite-q expression as q -> inf (conjugate exponent 1)
        if not alpha > d + 1e-12:
            raise ValueError(f"q = inf requires alpha > d, got alpha={alpha}, d={d}")
        return _finite("price_ktilde", params, lambda: math.exp(
            math.log(2.0)
            + (d / 2.0) * math.log(math.pi)
            - math.lgamma(d / 2.0)
            + math.log(alpha)
            - math.log(d)
            - math.log(alpha - d)
        ))
    qp = conjugate_exponent(q)
    x = d / (alpha * q)
    y = 1.0 / (q - 1.0) - x
    if not y > 1e-12 / max(alpha, 1.0):
        raise ValueError(f"constant requires alpha > d/q', got alpha={alpha}, q'={qp}, d={d}")
    return _finite("price_ktilde", params, lambda: math.exp(
        ((q - 1.0) / q) * (
            math.log(2.0)
            + (d / 2.0) * math.log(math.pi)
            - math.lgamma(d / 2.0)
            - math.log(alpha * q)
            + math.lgamma(x)
            + math.lgamma(y)
            - math.lgamma(x + y)
        )
        + (d / (q * qp * alpha)) * math.log(alpha * qp / d - 1.0)
        - (1.0 / q) * math.log(1.0 - d / (alpha * qp))
    ))


def price_k(d: int, alpha: float, q: float) -> float:
    """Squared local constant K = Ktilde^2; at q = 2 it is 2 pi for d = alpha = 1 and pi^2 for d = alpha = 2."""
    return price_ktilde(d, alpha, q) ** 2


def price_rhs(norm_q: float, moment_q: float, omega_measure: float, d: int, alpha: float, q: float) -> float:
    """Right side of the local energy bound:

        K(d, alpha, q) * |Omega| * ||f||_q^(2 - 2d/(alpha q')) * |||t - c|^alpha f||_q^(2d/(alpha q'))
    """
    if omega_measure < 0:
        raise ValueError(f"measure must be nonnegative, got {omega_measure!r}")
    if norm_q < 0 or moment_q < 0:
        raise ValueError("norms must be nonnegative")
    k = price_k(d, alpha, q)
    e = 2.0 * d / (alpha * conjugate_exponent(q))  # at most 2: price_k refuses alpha <= d/q'
    return float(k * omega_measure * norm_q ** (2.0 - e) * moment_q ** e)


@dataclass(frozen=True)
class CfSearch:
    """Finite search grids for the signal-adapted constant."""

    qs: tuple = (1.5, 2.0, 3.0, 4.0, INF)
    alpha_count: int = 6
    alpha_max: float = 8.0
    center_count: int = 5

    def alphas(self, q: float) -> tuple:
        lo = 1.0 / conjugate_exponent(q)
        vals = set(np.geomspace(max(lo * 1.25, 1e-3), self.alpha_max, self.alpha_count).tolist())
        for extra in (1.0, 2.0):
            if extra > lo * (1.0 + 1e-9) and extra <= self.alpha_max:
                vals.add(extra)
        return tuple(sorted(vals))


def cf_bound(f: Signal, fhat: Signal, search: CfSearch | None = None) -> BoundValue:
    """Best lower bound for the signal-adapted constant over the finite search grids.

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
    the top.  A row it skips provably ranks, and so evaluates, below the
    maximum, so the value and witness are those of evaluating every row, bit
    for bit.  On a full n = 65536 support it ranks 1-50 of the 234 rows.
    """
    if f.domain != TIME or fhat.domain != FREQUENCY:
        raise ValueError("expected a time signal and its frequency transform")
    search = search or CfSearch()
    t_centers = _scan_centers(f, search.center_count)
    w_centers = _scan_centers(fhat, search.center_count)
    table = _scan_table(search)
    best_w, (wb, q1, a1), _ = _best_factor(fhat, w_centers, table)
    best_t, (tb, q2, a2), norm2 = _best_factor(f, t_centers, table)
    witness = {"t_bar": tb, "w_bar": wb, "q1": q1, "alpha1": a1, "q2": q2, "alpha2": a2}
    return BoundValue(float(norm2**4 * best_w * best_t), witness, factors=(norm2, best_w, best_t))


def _scan_table(search: CfSearch) -> list:
    """The (q, alpha, e, K) rows of one factor's scan in scan order, shared by both factors."""
    table = []
    for q in search.qs:
        qp = conjugate_exponent(q)
        table += [(q, a, 2.0 / (a * qp), price_k(1, a, q)) for a in search.alphas(q)]
    return table


def _scan_centers(g: Signal, count: int) -> list:
    """The energy centroid of g, then `count` points across the middle half of its axis."""
    axis = g.axis
    return [energy_centroid(g)] + np.linspace(axis[0] / 2.0, axis[-1] / 2.0, count).tolist()


def _factor(norm_q: float, k: float, moment: float, e: float) -> float:
    """||g||_q^e / (K ||g||_q^2 M^e): the factor one signal contributes to C_f."""
    return norm_q**e / (k * norm_q**2 * moment**e)


# Rows whose ranked log-factor lies within this of the top one are re-evaluated
# exactly.  The ranking errs by far less (the tests hold it under 1e-11), so the
# band always holds every exact maximiser.
_RANK_BAND = 1e-9

# `_rank_bracket` summarises the sorted support in blocks of this many
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
    brackets, ranks, then verifies:

    1. `_rank_bracket` gives every row an interval [lo, up] that holds its
       rank, the log-factor `_ranked_log_factors` would return for it, with
       the rounding of both included.
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
    norms = {q: norm_lq(g, q) for q in {2.0, *(row[0] for row in table)}}
    axis, mags = _support(g)
    lo, up = _rank_bracket(axis, mags, g.spacing, centers, table, norms)
    ranks = np.full(lo.size, -np.inf)
    unranked = np.ones(lo.size, dtype=bool)
    while True:
        todo = np.flatnonzero(unranked & (up >= lo.max(initial=-np.inf) - _RANK_BAND))
        ranks[todo] = _ranked_log_factors(g, centers, table, norms, todo)
        unranked[todo] = False
        top = ranks.max(initial=-np.inf)
        if top == -np.inf:
            raise ValueError("search grids admitted no feasible witness")
        best, arg, dropped = None, None, False
        for row in np.flatnonzero(ranks >= top - _RANK_BAND):
            c = centers[row // len(table)]
            q, a, e, k = table[row % len(table)]
            m = _moment_lq(np.abs(axis - float(c)), mags, g.spacing, a, q)
            if m == 0.0:
                ranks[row] = lo[row] = -np.inf
                dropped = True
                continue
            val = _factor(norms[q], k, m, e)
            if best is None or val > best:
                best, arg = val, (c, q, a)
        if not dropped:
            return best, arg, norms[2.0]


def _rank_bracket(
    axis: np.ndarray, mags: np.ndarray, spacing: float, centers: list, table: list, norms: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= rank <= up on the `_ranked_log_factors` rank of every row, in scan order.

    axis and mags are the signal's support (`_support`), spacing its h.

    The support, sorted along the axis, is cut into blocks of
    `_BRACKET_BLOCK` consecutive samples.  On block j, log|x - c| lies
    between dmin_j and dmax_j, the smaller and the larger of its values at the
    block's two end points; dmin_j = -inf when the block's span holds c.  With
    S_j = log sum_block |g|^q and h the spacing, a finite-q row's log M lies
    between

        (log h + LSE_j(q alpha dmin_j + S_j)) / q
        and (log h + LSE_j(q alpha dmax_j + S_j)) / q,

    LSE_j the log-sum-exp over the blocks.  At q = inf, with S_j the block
    maximum of log|g|, it lies between max_j(alpha dmin_j + S_j) and
    max_j(alpha dmax_j + S_j).  Each bound B is widened by `_BRACKET_RTOL`
    (1 + |log h| + log n + |B|), n the support size, which covers the rounding
    of the bracket and of the ranked pass (each errs by a few units of
    rounding of the magnitudes that enter log M).  It is then mapped to a rank
    by the ranked pass's own formula, offset - e log M, which falls as log M
    grows in floating point too.
    A log M that may be -inf (every block's span holds c) gives up = +inf; a
    row whose log M is certainly -inf (every sample on the centre, M = 0)
    gets lo = up = -inf.  The cost is O(rows * n / block) and one O(n) pass
    per q.  Below `_BRACKET_MIN_SUPPORT` samples every row gets (-inf, inf).
    """
    size = len(centers) * len(table)
    if mags.size < _BRACKET_MIN_SUPPORT:
        return np.full(size, -np.inf), np.full(size, np.inf)
    starts = np.arange(0, mags.size, _BRACKET_BLOCK)
    first, last = axis[starts], axis[np.append(starts[1:], mags.size) - 1]
    c = np.asarray(centers, dtype=float)[:, None]
    with np.errstate(divide="ignore"):  # a block end on the centre
        at_first, at_last = np.log(np.abs(first - c)), np.log(np.abs(last - c))
    # dmin of each centre's blocks, then dmax
    dist = np.concatenate(
        (np.where((first <= c) & (c <= last), -np.inf, np.minimum(at_first, at_last)), np.maximum(at_first, at_last))
    )
    level = np.log(mags)
    peak = np.maximum.reduceat(level, starts)
    below_peak = level - np.repeat(peak, np.diff(starts, append=mags.size))
    qs = sorted({row[0] for row in table})
    block_level = np.array(
        [peak if math.isinf(q) else q * peak + np.log(np.add.reduceat(np.exp(q * below_peak), starts)) for q in qs]
    )
    row_c, row_t = np.divmod(np.arange(size), len(table))
    columns = np.array(table).T
    row_q, row_a, row_e = columns[:3, row_t]
    scale = np.where(np.isinf(row_q), 1.0, row_q)
    # each row twice: against dmin (its lower log M bound), then against dmax (its upper)
    dist_row = np.concatenate((row_c, row_c + len(centers)))
    level_row = np.tile(np.searchsorted(qs, row_q), 2)
    weight = np.tile(scale * row_a, 2)
    top, total = np.empty((2, 2 * size))
    step = max(1, _BLOCK_BYTES // (16 * starts.size))
    work, gathered = np.empty((2, min(step, 2 * size), starts.size))
    for b in range(0, 2 * size, step):
        r = slice(b, min(b + step, 2 * size))
        x, s = work[: r.stop - b], gathered[: r.stop - b]
        np.take(dist, dist_row[r], axis=0, out=x, mode="clip")  # in range; "clip" skips the buffered copy
        x *= weight[r, None]
        np.take(block_level, level_row[r], axis=0, out=s, mode="clip")
        x += s
        top[r] = x.max(axis=1)
        x -= np.where(top[r] > -np.inf, top[r], 0.0)[:, None]
        np.exp(x, out=x)
        total[r] = x.sum(axis=1)
    with np.errstate(divide="ignore"):  # every block -inf: the bound is -inf
        lse = top + (math.log(spacing) + np.log(total))
    lower, upper = np.where(np.isinf(row_q), top.reshape(2, size), lse.reshape(2, size) / scale)
    magnitude = 1.0 + abs(math.log(spacing)) + math.log(mags.size)
    feasible = upper > -np.inf
    lower -= _BRACKET_RTOL * (magnitude + np.abs(lower))  # -inf stays -inf
    np.add(upper, _BRACKET_RTOL * (magnitude + np.abs(upper)), out=upper, where=feasible)
    offsets = _rank_offsets(columns, norms)[row_t]
    lo = np.where(feasible, offsets - row_e * upper, -np.inf)
    up = np.where(feasible, offsets - row_e * lower, -np.inf)
    return lo, up


def _ranked_log_factors(g: Signal, centers: list, table: list, norms: dict, rows: np.ndarray) -> np.ndarray:
    """log `_factor` of the given rows (indices in the (center, q, alpha) scan order), without a power.

    On the nonzero samples, u = q (alpha log|x - c| + log|g|) is q times the
    log of the moment integrand, so with h the spacing

        log M = (max u + log h + log sum exp(u - max u)) / q,

    and log M is the maximum of alpha log|x - c| + log|g| at q = inf.
    log|x - c| is taken only for the centres that have a row to rank, a group
    of at most `_BLOCK_BYTES` of them at a time.  A group's rows of one q are
    stacked in blocks of at most `_BLOCK_BYTES` of u.  Each row is reduced on
    its own contiguous row of the block, so a row's rank does not depend on
    which rows are ranked with it.  Rows with M = 0 (every sample on the
    centre) rank -inf.
    """
    axis, mags = _support(g)
    rank = np.full(rows.size, -np.inf)
    if mags.size == 0 or rows.size == 0:
        return rank
    row_c, row_t = np.divmod(rows, len(table))
    columns = np.array(table).T
    row_q, row_a, row_e = columns[:3, row_t]
    level = np.log(mags)
    log_h = math.log(g.spacing)
    log_m = np.empty(rows.size)
    step = max(1, _BLOCK_BYTES // (8 * mags.size))
    used = np.flatnonzero(np.bincount(row_c, minlength=len(centers)))
    log_dist = np.empty((min(step, used.size), mags.size))
    block = np.empty((min(step, rows.size), mags.size))
    for first in range(0, used.size, step):
        group = used[first : first + step]
        dist = log_dist[: group.size]
        np.abs(np.subtract(axis, np.asarray(centers, dtype=float)[group, None], out=dist), out=dist)
        with np.errstate(divide="ignore"):
            np.log(dist, out=dist)
        in_group = (group[0] <= row_c) & (row_c <= group[-1])
        for q in sorted(set(row_q[in_group].tolist())):  # np.unique would import numpy.ma on first use
            picked = np.flatnonzero(in_group & (row_q == q))
            scale = 1.0 if math.isinf(q) else q
            scaled_level = scale * level
            for b in range(0, picked.size, step):
                r = picked[b : b + step]
                u = block[: r.size]
                # in range; "clip" skips the buffered copy
                np.take(dist, group.searchsorted(row_c[r]), axis=0, out=u, mode="clip")
                u *= (scale * row_a[r])[:, None]
                u += scaled_level
                top = u.max(axis=1)
                if not math.isinf(q):
                    with np.errstate(invalid="ignore"):  # top = -inf: the row is masked below
                        u -= top[:, None]
                    np.exp(u, out=u)
                    top += log_h + np.log(u.sum(axis=1))
                log_m[r] = top / scale
    feasible = log_m > -np.inf
    rank[feasible] = (_rank_offsets(columns, norms)[row_t] - row_e * log_m)[feasible]
    return rank


def _rank_offsets(columns: np.ndarray, norms: dict) -> np.ndarray:
    """(e - 2) log ||g||_q - log K of each row of the table's columns (q, alpha, e, K).

    A row's log `_factor` is this offset minus e log M.
    """
    q, _, e, k = columns
    return (e - 2.0) * np.log([norms[x] for x in q.tolist()]) - np.log(k)


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
        raise ValueError("measures must be positive")
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
    signal raises ValueError.
    """
    alpha = float(alpha)
    if not alpha > 0.5:
        raise ValueError(f"support bound requires alpha > 1/2, got {alpha!r}")
    if axis not in (TIME, FREQUENCY):
        raise ValueError(f"axis must be 'time' or 'frequency', got {axis!r}")
    n2 = norm_lq(f, 2.0)
    if n2 == 0.0:
        raise ValueError("support bound of the zero signal is undefined")
    supported, other = (f, fhat) if axis == TIME else (fhat, f)
    supp = support_mask(supported).measure
    moment = weighted_moment_norm(other, energy_centroid(other), alpha, 2.0)
    return supp * moment ** (1.0 / alpha), n2 ** (1.0 / alpha) / price_k(1, alpha, 2.0)

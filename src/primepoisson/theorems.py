"""Numerical checks of Poisson-approximation bounds for prime-factor counts.

Each check_* routine assembles an exact left-hand side (from the counting
sieve or the independent-factor model) and the corresponding closed-form
right-hand side, and returns a TheoremReport carrying both plus the ratio.
The asymptotic bounds carry unknown absolute constants, so ratios are
recorded and regression-tested against frozen bands rather than asserted
against any particular constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dist import (
    DEFAULT_TAIL_EPS,
    exact_sum,
    poisson_pmf,
    product_joint,
    tv_distance,
    tv_distance_joint,
    tv_distance_keys,
)
from .errors import CapError, DomainError, EmptyConditionError
from .factorstats import CountMode, JointCounts, SetSpec, joint_factor_counts
from .factorstats import check_disjoint, check_x_cap
from .kubilius import model_exact_pmf, model_tv_exact
from .primesets import EXPEXP_MAX_K, PrimeSet, expexp_block, expexp_cutoff, harmonic_sums
from .primesets import sieve_primes

# halasz and thm4 build one report per k; 10^5 of them take 0.7-0.9 s and
# 50-60 MiB (2-vCPU VM), so a k range with more values than this is refused
# before any work.
MAX_REPORT_ROWS = 10_000


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one numerical check.

    ratio is lhs/rhs, or None when rhs is zero (reported as undefined rather
    than synthesizing an infinity).  params carries the configuration echo
    and any secondary quantities; uncertainty bounds the numerical slack in
    lhs (truncation tails and the like).
    """

    name: str
    lhs: float
    rhs: float
    params: dict
    uncertainty: float = 0.0

    @property
    def ratio(self) -> float | None:
        return _ratio(self.lhs, self.rhs)

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "params": self.params,
            "uncertainty": self.uncertainty,
        }


def _ratio(lhs: float, rhs: float) -> float | None:
    return None if rhs == 0.0 else lhs / rhs


def _check_report_rows(n_rows: int) -> None:
    if n_rows > MAX_REPORT_ROWS:
        raise CapError(f"{n_rows} report rows exceed the cap of {MAX_REPORT_ROWS}")


def _poisson_mass(rate: float, k: int) -> float:
    """Poisson(rate){k}, evaluated in log space."""
    return math.exp(-rate + k * math.log(rate) - math.lgamma(k + 1))


def _set_summary(spec: SetSpec) -> dict:
    hs = harmonic_sums(spec.primes)
    return {
        "size": len(spec.primes),
        "mode": spec.mode.value,
        "h": hs.h,
        "h1": hs.h1,
        "h2": hs.h2,
    }


@dataclass(frozen=True)
class Thm1Config:
    """Joint Poisson comparison: x, smoothness bound y, and per-set specs.

    Every prime in every set must be <= y; sets must be pairwise disjoint.
    """

    x: int
    y: int
    specs: tuple[SetSpec, ...]
    tail_eps: float = DEFAULT_TAIL_EPS
    include_decomposition: bool = True


def check_thm1(cfg: Thm1Config) -> TheoremReport:
    """Compare the exact joint law of factor counts against a product of
    Poisson laws (rate h per distinct-mode set, h1 per multiplicity-mode
    set).  rhs is the closed-form bound sum(h2/(1+h)) + u^-u with
    u = log x / log y.

    When include_decomposition is set, the report also carries the two legs
    of the triangle decomposition: the exact model-vs-truth vector distance
    and the model-vs-Poisson distance, whose sum must dominate lhs.
    """
    if cfg.y < 2 or cfg.y > cfg.x:
        raise DomainError(f"need 2 <= y <= x, got y={cfg.y}, x={cfg.x}")
    for ps in (spec.primes.array for spec in cfg.specs):
        if ps.size and ps[-1] > cfg.y:
            p = ps[np.searchsorted(ps, cfg.y, "right")]
            raise DomainError(f"prime {p} exceeds the smoothness bound y={cfg.y}")
    check_x_cap(cfg.x)
    check_disjoint(cfg.specs)

    u = math.log(cfg.x) / math.log(cfg.y)
    summaries = [_set_summary(s) for s in cfg.specs]
    rates = [
        s["h"] if spec.mode is CountMode.DISTINCT else s["h1"]
        for s, spec in zip(summaries, cfg.specs)
    ]
    poisson = [poisson_pmf(lam, cfg.tail_eps) for lam in rates]
    if cfg.include_decomposition:
        # the decomposition's two grids come before the count, so one over the cap is refused first
        poisson_joint = product_joint(poisson)
        model_joint = product_joint(
            [model_exact_pmf(s.primes, s.mode, cfg.tail_eps) for s in cfg.specs]
        )
    counts = joint_factor_counts(cfg.x, cfg.specs)
    tv = tv_distance_keys(counts.keys, counts.tallies / cfg.x, poisson)

    rhs = math.fsum(s["h2"] / (1.0 + s["h"]) for s in summaries) + u ** (-u)
    params: dict = {
        "x": cfg.x,
        "y": cfg.y,
        "u": u,
        "u_term": u ** (-u),
        "sets": summaries,
        "poisson_rates": rates,
    }

    if cfg.include_decomposition:
        model_vs_poisson = tv_distance_joint(model_joint, poisson_joint)
        vector_tv = model_tv_exact(cfg.x, cfg.y)
        slack = (
            model_vs_poisson.value
            + vector_tv.value
            + model_vs_poisson.uncertainty
            + tv.uncertainty
            - tv.value
        )
        params["decomposition"] = {
            "model_vs_poisson": model_vs_poisson.value,
            "model_vs_poisson_uncertainty": model_vs_poisson.uncertainty,
            "exact_vector_tv": vector_tv.value,
            "triangle_slack": slack,
        }

    return TheoremReport(
        name=f"thm1[x={cfg.x},y={cfg.y},m={len(cfg.specs)}]",
        lhs=tv.value,
        rhs=rhs,
        params=params,
        uncertainty=tv.uncertainty,
    )


def check_corollary1(
    x: int,
    xi_lo: int,
    xi_hi: int,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> TheoremReport:
    """Joint Poisson(1) comparison over doubly exponential prime blocks
    (t_k, t_{k+1}], t_k = floor(exp(exp(k))).

    A requested block k is usable when t_k^3 <= x (its lower cutoff sits
    below the cube root, keeping u away from 1) and t_{k+1} <= x.  The t_k
    grow, so the usable blocks run from xi_lo to the first that is not; the
    rest are dropped and recorded.  rhs is exp(-e^(xi_lo/2)), an
    order-of-magnitude reference whose absolute constant is unknown.
    """
    if xi_hi < xi_lo:
        raise DomainError(f"empty block range [{xi_lo}, {xi_hi}]")
    if xi_lo < 0:
        raise DomainError(f"block index must be >= 0, got {xi_lo}")

    if xi_hi > EXPEXP_MAX_K:  # refused whole: the first index past the last cutoff raises
        expexp_cutoff(max(xi_lo, EXPEXP_MAX_K + 1))
    used = []
    for k in range(xi_lo, xi_hi + 1):
        if expexp_cutoff(k) ** 3 > x or expexp_cutoff(k + 1) > x:
            break
        used.append(k)
    if not used:
        raise DomainError(
            f"infeasible cutoffs: no block in [{xi_lo}, {xi_hi}] fits below x^(1/3) for x={x}"
        )
    check_x_cap(x)

    blocks = [expexp_block(k) for k in used]
    specs = tuple(SetSpec(b, CountMode.DISTINCT) for b in blocks)
    unit = poisson_pmf(1.0, tail_eps)
    counts = joint_factor_counts(x, specs)
    tv = tv_distance_keys(counts.keys, counts.tallies / x, [unit] * len(specs))

    rhs = math.exp(-math.exp(xi_lo / 2.0))
    block_stats = []
    for k, b in zip(used, blocks):
        h = exact_sum([1.0 / b.array])  # harmonic_sums' h: each p <= x <= 2^40 is an exact float
        block_stats.append(
            {
                "k": k,
                "lo": expexp_cutoff(k),
                "hi": expexp_cutoff(k + 1),
                "size": len(b),
                "h": h,
                "h_minus_1": h - 1.0,
            }
        )
    y_eff = expexp_cutoff(max(used) + 1)
    params = {
        "x": x,
        "requested": [xi_lo, xi_hi],
        "used_blocks": used,
        "skipped_blocks": list(range(xi_lo + len(used), xi_hi + 1)),
        "xi_effective": xi_lo,
        "blocks": block_stats,
        "y_effective": y_eff,
        "u_effective": math.log(x) / math.log(y_eff),
    }
    return TheoremReport(
        name=f"cor1[x={x},xi={xi_lo}..{xi_hi}]",
        lhs=tv.value,
        rhs=rhs,
        params=params,
        uncertainty=tv.uncertainty,
    )


def _thm2_flags(counts: JointCounts, ks: Sequence[int]) -> tuple[int, int]:
    """The covering flags (eta, xi): eta is 0 exactly when the sets jointly
    cover every prime <= x (1 otherwise); xi is 1 exactly when eta is 0 and
    every k_j is 0.  The sets cover every prime <= x exactly when n = 1 is the
    only n <= x with no prime factor in them, that is when the zero count
    vector (the first key row) has tally 1."""
    eta = 0 if counts.tallies[0] == 1 else 1
    return eta, 1 if eta == 0 and all(k == 0 for k in ks) else 0


def check_thm2(x: int, sets: Sequence[PrimeSet], ks: Sequence[int]) -> TheoremReport:
    """Exact point probability of the count vector ks over disjoint sets
    (distinct prime divisors in each) against the uniform upper bound.

    rhs_first = prod_j e^{-h_j} h1_j^{k_j} / k_j! * (eta + sum k_j/h1_j) + xi;
    rhs_second = prod_j e^{-h_j} (h_j+2)^{k_j} / k_j!.  Both ratios are
    reported; the headline ratio uses rhs_first.  The flags eta and xi are
    derived from the counts (_thm2_flags) and echoed in params.
    """
    r, ks = len(sets), tuple(int(k) for k in ks)
    if r == 0 or len(ks) != r:
        raise DomainError(f"need matching sets and counts, got {r} sets, {len(ks)} counts")
    if any(k < 0 for k in ks):
        raise DomainError("target counts must be >= 0")
    if any(len(s) == 0 for s in sets):
        raise DomainError("T must be nonempty")

    specs = tuple(SetSpec(s, CountMode.DISTINCT) for s in sets)
    check_disjoint(specs)
    counts = joint_factor_counts(x, specs)
    # a count vector is a row of uint8, so a target above 255 matches no row
    target = np.array([min(k, 256) for k in ks])
    lhs = int(counts.tallies[(counts.keys == target).all(axis=1)].sum()) / x
    eta, xi = _thm2_flags(counts, ks)

    summaries = [_set_summary(s) for s in specs]
    log_first = []
    correction = 0.0
    log_second = []
    for s, k in zip(summaries, ks):
        log_first.append(-s["h"] + k * math.log(s["h1"]) - math.lgamma(k + 1))
        log_second.append(-s["h"] + k * math.log(s["h"] + 2.0) - math.lgamma(k + 1))
        correction += k / s["h1"]
    rhs_first = math.exp(math.fsum(log_first)) * (eta + correction) + xi
    rhs_second = math.exp(math.fsum(log_second))

    params = {
        "x": x,
        "ks": list(ks),
        "eta": eta,
        "xi": xi,
        "sets": summaries,
        "rhs_second": rhs_second,
        "ratio_second": _ratio(lhs, rhs_second),
        "h1_le_h_plus_1": [s["h1"] <= s["h"] + 1.0 + 1e-12 for s in summaries],
    }
    return TheoremReport(
        name=f"thm2[x={x},r={r},k={','.join(map(str, ks))}]",
        lhs=lhs,
        rhs=rhs_first,
        params=params,
    )


@lru_cache(maxsize=4)
def _thm3_table(x: int, tset: PrimeSet) -> tuple[float, int, np.ndarray, np.ndarray]:
    """h(primes <= x) (harmonic_sums' h: each p <= 2^40 is an exact float), pi(x) - |T|
    and the distinct-count table of (T, primes <= x), that is of (omega(n, T), omega(n)),
    shared by every (k, psi) cell of one (x, T)."""
    full = sieve_primes(x)
    if np.searchsorted(tset.array, x, "right") == len(full):  # T holds every prime <= x
        raise DomainError("T must be a proper subset of the primes <= x")
    counts = joint_factor_counts(x, [SetSpec(s, CountMode.DISTINCT) for s in (tset, full)])
    return exact_sum([1.0 / full.array]), len(full) - len(tset), counts.keys, counts.tallies


def check_thm3(x: int, tset: PrimeSet, k: int, a_param: float, psi: float) -> TheoremReport:
    """Conditional concentration: given omega(n) = k, the count over T should
    concentrate around alpha*k, alpha = h(T)/h(all primes <= x).

    The exact conditional deviation probability lhs = P(|omega(n, T) -
    alpha*k| >= psi*sqrt(alpha*(1-alpha)*k) given omega(n) = k), computed
    from the exact joint counts of (omega(n, T), omega(n)) restricted to
    omega(n) = k, is compared against exp(-psi^2/3).

    Requires x >= 2, 1 <= k <= a_param * loglog(x), a_param > 1, and
    0 <= psi <= sqrt(alpha*k).
    """
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if a_param <= 1.0:
        raise DomainError(f"a_param must be > 1, got {a_param}")
    if len(tset) == 0:
        raise DomainError("T must be nonempty")
    loglog = math.log(math.log(x))
    if not 1 <= k <= a_param * loglog:
        raise DomainError(f"need 1 <= k <= a_param*loglog(x) = {a_param * loglog:.6f}, got k={k}")
    check_x_cap(x)

    h_s, complement_size, keys, tallies = _thm3_table(x, tset)
    alpha = harmonic_sums(tset).h / h_s
    if not 0.0 <= psi <= math.sqrt(alpha * k):
        raise DomainError(f"need 0 <= psi <= sqrt(alpha*k) = {math.sqrt(alpha * k):.6f}, got {psi}")

    threshold = psi * math.sqrt(alpha * (1.0 - alpha) * k)
    in_t, omega = keys.T.astype(np.int64)
    on = omega == k
    conditioned = int(tallies[on].sum())
    deviating = int(tallies[on & (np.abs(in_t - alpha * k) >= threshold)].sum())
    if conditioned == 0:
        raise EmptyConditionError(f"no n <= {x} has exactly {k} distinct prime factors")

    lhs = deviating / conditioned
    rhs = math.exp(-psi**2 / 3.0)
    params = {
        "x": x,
        "k": k,
        "psi": psi,
        "a_param": a_param,
        "alpha": alpha,
        "threshold": threshold,
        "t_size": len(tset),
        "complement_size": complement_size,
        "conditioned_count": conditioned,
        "deviating_count": deviating,
    }
    return TheoremReport(
        name=f"thm3[x={x},k={k},psi={psi}]",
        lhs=lhs,
        rhs=rhs,
        params=params,
    )


def check_halasz(x: int, tset: PrimeSet, k_range: Sequence[int]) -> list[TheoremReport]:
    """Pointwise Poisson comparison for the multiplicity count over T.

    For each k, lhs is the exact P(count = k) and rhs the Poisson(h) mass at
    k.  params carries the alternative Poisson(h1) ratio and the error shape
    |k-h|/h + 1/sqrt(h) for context; nothing is asserted here.  More than
    MAX_REPORT_ROWS values of k are refused (CapError) before the count.
    """
    # len() overflows on a range of more than sys.maxsize values; its ends do not
    ends = isinstance(k_range, range) and k_range
    _check_report_rows((k_range[-1] - k_range[0]) // k_range.step + 1 if ends else len(k_range))
    ks = [int(k) for k in k_range]
    if not ks:
        raise DomainError("k_range must be nonempty")
    if any(k < 0 for k in ks):
        raise DomainError("k values must be >= 0")
    if len(tset) == 0:
        raise DomainError("T must be nonempty")
    counts = joint_factor_counts(x, (SetSpec(tset, CountMode.WITH_MULTIPLICITY),))
    marginal = counts.marginal(0)
    hs = harmonic_sums(tset)

    reports = []
    for k in ks:
        lhs = marginal.get(k, 0) / x
        rhs = _poisson_mass(hs.h, k)
        params = {
            "x": x,
            "k": k,
            "h": hs.h,
            "h1": hs.h1,
            "t_size": len(tset),
            "ratio_h1": _ratio(lhs, _poisson_mass(hs.h1, k)),
            "error_shape": abs(k - hs.h) / hs.h + 1.0 / math.sqrt(hs.h),
        }
        reports.append(
            TheoremReport(
                name=f"halasz[x={x},k={k}]",
                lhs=lhs,
                rhs=rhs,
                params=params,
            )
        )
    return reports


def check_thm4_local(
    tset: PrimeSet,
    mode: CountMode,
    tail_eps: float = DEFAULT_TAIL_EPS,
    k_max: int | None = None,
) -> list[TheoremReport]:
    """Pointwise model-vs-Poisson gaps against the local bound.

    With rate H (h for distinct mode, h1 for multiplicity mode):
      k <= 1.9*H: rhs = h2 * Pois(H){k} * (1/(k+1) + ((k-H)/H)^2)
      k >  1.9*H: rhs = h2 * e^(0.9*H) / 1.9^k
    A negative k_max is a DomainError; more than MAX_REPORT_ROWS values of k
    (k_max + 1) are refused (CapError), both before the model law is built.
    """
    if len(tset) == 0:
        raise DomainError("T must be nonempty")
    if k_max is not None and k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    hs = harmonic_sums(tset)
    rate = hs.h if mode is CountMode.DISTINCT else hs.h1
    if k_max is None:
        k_max = math.ceil(3.0 * rate) + 10
    _check_report_rows(k_max + 1)
    model = model_exact_pmf(tset, mode, tail_eps)
    pois = poisson_pmf(rate, tail_eps)

    reports = []
    for k in range(k_max + 1):
        lhs = abs(model.prob(k) - pois.prob(k))
        if k <= 1.9 * rate:
            rhs = hs.h2 * _poisson_mass(rate, k) * (1.0 / (k + 1) + ((k - rate) / rate) ** 2)
            regime = "bulk"
        else:
            rhs = hs.h2 * math.exp(0.9 * rate) / 1.9**k
            regime = "upper"
        params = {
            "k": k,
            "mode": mode.value,
            "h": hs.h,
            "h1": hs.h1,
            "h2": hs.h2,
            "rate": rate,
            "regime": regime,
        }
        reports.append(
            TheoremReport(
                name=f"thm4[{mode.value},k={k}]",
                lhs=lhs,
                rhs=rhs,
                params=params,
                uncertainty=model.tail_bound + pois.tail_bound,
            )
        )
    return reports


def check_cor32(
    tset: PrimeSet,
    mode: CountMode = CountMode.DISTINCT,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> TheoremReport:
    """Total variation between the model count law and its Poisson limit
    against the closed-form rate h2/(1+h)."""
    if len(tset) == 0:
        raise DomainError("T must be nonempty")
    hs = harmonic_sums(tset)
    rate = hs.h if mode is CountMode.DISTINCT else hs.h1
    tv = tv_distance(model_exact_pmf(tset, mode, tail_eps), poisson_pmf(rate, tail_eps))
    rhs = hs.h2 / (1.0 + hs.h)
    params = {
        "mode": mode.value,
        "t_size": len(tset),
        "h": hs.h,
        "h1": hs.h1,
        "h2": hs.h2,
        "rate": rate,
    }
    return TheoremReport(
        name=f"cor32[{mode.value},m={len(tset)}]",
        lhs=tv.value,
        rhs=rhs,
        params=params,
        uncertainty=tv.uncertainty,
    )

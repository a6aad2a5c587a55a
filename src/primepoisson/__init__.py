"""Exact distributions of prime-factor counts, an independent-factor model of
the exponent vector, and numerical diagnostics for their Poisson limits."""

from .dist import (
    BinomialTailBounds,
    JointPmf,
    Pmf,
    TvResult,
    binomial_pmf,
    binomial_tail_bound,
    poisson_pmf,
    product_joint,
    tv_distance,
    tv_distance_joint,
    tv_distance_keys,
)
from .errors import CapError, DomainError, EmptyConditionError
from .factorstats import (
    CountMode,
    JointCounts,
    SetSpec,
    joint_factor_counts,
    oracle_factor_counts,
    smooth_part_distribution,
)
from .kubilius import model_exact_pmf, model_tv_exact
from .primesets import (
    HarmonicSums,
    PrimeSet,
    count_primes,
    expexp_block,
    expexp_cutoff,
    harmonic_sums,
    is_prime,
    primes_in_interval,
    sieve_primes,
)
from .theorems import (
    TheoremReport,
    Thm1Config,
    check_cor32,
    check_corollary1,
    check_halasz,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4_local,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialTailBounds",
    "CapError",
    "CountMode",
    "DomainError",
    "EmptyConditionError",
    "HarmonicSums",
    "JointCounts",
    "JointPmf",
    "Pmf",
    "PrimeSet",
    "SetSpec",
    "TheoremReport",
    "Thm1Config",
    "TvResult",
    "binomial_pmf",
    "binomial_tail_bound",
    "check_cor32",
    "check_corollary1",
    "check_halasz",
    "check_thm1",
    "check_thm2",
    "check_thm3",
    "check_thm4_local",
    "count_primes",
    "expexp_block",
    "expexp_cutoff",
    "harmonic_sums",
    "is_prime",
    "joint_factor_counts",
    "model_exact_pmf",
    "model_tv_exact",
    "oracle_factor_counts",
    "poisson_pmf",
    "primes_in_interval",
    "product_joint",
    "sieve_primes",
    "smooth_part_distribution",
    "tv_distance",
    "tv_distance_joint",
    "tv_distance_keys",
]

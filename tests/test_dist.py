"""Probability containers, Poisson/binomial laws, and distance functions."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primepoisson import (
    CapError,
    CountMode,
    DomainError,
    JointPmf,
    Pmf,
    PrimeSet,
    SetSpec,
    TvResult,
    binomial_pmf,
    binomial_tail_bound,
    joint_factor_counts,
    poisson_pmf,
    product_joint,
    tv_distance,
    tv_distance_joint,
    tv_distance_keys,
)
from primepoisson.dist import MASS_SLACK, exact_sum


def test_pmf_basic_accessors():
    pmf = Pmf(probs=(0.25, 0.5, 0.25), tail_bound=0.0)
    assert len(pmf) == 3
    assert pmf.prob(1) == 0.5
    assert pmf.prob(99) == 0.0
    assert pmf.mean() == 1.0


def test_pmf_rejects_bad_mass():
    with pytest.raises(DomainError):
        Pmf(probs=(0.5, 0.1), tail_bound=0.0)
    with pytest.raises(DomainError):
        Pmf(probs=(0.5, -0.1, 0.6), tail_bound=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pmfs_reject_non_finite_entries_and_tail_bounds(bad):
    # a NaN entry used to pass the mass check and give a TV of 1 +- 0
    for probs in ([bad, 1.0], [0.0] * 5000 + [bad, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            Pmf(tuple(probs))
        with pytest.raises(DomainError, match="finite"):
            JointPmf(np.array([probs]))
    with pytest.raises(DomainError, match="finite"):
        Pmf((1.0,), tail_bound=bad)
    with pytest.raises(DomainError, match="finite"):
        JointPmf(np.array([[1.0]]), tail_bound=bad)


def test_pmf_series_is_probability_generating_function():
    pmf = Pmf(probs=(0.5, 0.25, 0.25), tail_bound=0.0)
    assert pmf.series(1.0) == pytest.approx(1.0, abs=1e-15)
    assert pmf.series(2.0) == pytest.approx(0.5 + 0.5 + 1.0, abs=1e-15)


def test_poisson_k0_closed_form():
    assert poisson_pmf(1.0).prob(0) == pytest.approx(math.exp(-1), abs=1e-15)


def test_poisson_degenerate():
    pmf = poisson_pmf(0.0)
    assert pmf.probs.tolist() == [1.0]
    assert pmf.tail_bound == 0.0


def test_poisson_k2_closed_form_and_scale_identity():
    # lam=1 mass at 2 is 1/(2e); with lam = 1/(p-1) the mass at 2 is ~ 1/(2 p^2)
    assert poisson_pmf(1.0).prob(2) == pytest.approx(1 / (2 * math.e), abs=1e-15)
    p = 101
    lam = 1 / (p - 1)
    assert poisson_pmf(lam).prob(2) == pytest.approx(
        math.exp(-lam) * lam**2 / 2, abs=1e-18
    )


@given(st.floats(min_value=0.01, max_value=40.0))
def test_poisson_certificate_dominates_true_tail(lam):
    pmf = poisson_pmf(lam, tail_eps=1e-9)
    kept = math.fsum(pmf.probs)
    true_tail = max(0.0, 1.0 - kept)
    assert pmf.tail_bound >= true_tail
    assert pmf.tail_bound <= 1e-9


def test_tv_identity_and_disjoint():
    p = poisson_pmf(1.0)
    assert tv_distance(p, p).value == 0.0
    point0 = Pmf(probs=(1.0,), tail_bound=0.0)
    point1 = Pmf(probs=(0.0, 1.0), tail_bound=0.0)
    assert tv_distance(point0, point1).value == 1.0


def test_tv_poisson_pair_against_direct_summation():
    p = poisson_pmf(1.0, 1e-15)
    q = poisson_pmf(1.5, 1e-15)
    terms = []
    tp, tq = math.exp(-1.0), math.exp(-1.5)
    for k in range(200):
        terms.append(abs(tp - tq))
        tp *= 1.0 / (k + 1)
        tq *= 1.5 / (k + 1)
    direct = 0.5 * math.fsum(terms)
    res = tv_distance(p, q)
    assert res.value == pytest.approx(direct, abs=1e-12)
    assert res.value <= 0.5


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_tv_symmetry(lam1, lam2):
    p, q = poisson_pmf(lam1), poisson_pmf(lam2)
    assert tv_distance(p, q).value == tv_distance(q, p).value


@given(
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_tv_triangle_inequality(a, b, c):
    pa, pb, pc = poisson_pmf(a), poisson_pmf(b), poisson_pmf(c)
    ab = tv_distance(pa, pb).value
    bc = tv_distance(pb, pc).value
    ac = tv_distance(pa, pc).value
    assert ac <= ab + bc + 1e-12


def test_joint_identity_and_shifted_point_mass():
    joint = product_joint([poisson_pmf(1.0), poisson_pmf(1.0)])
    assert tv_distance_joint(joint, joint).value == 0.0
    a = JointPmf(np.array([[1.0]]), tail_bound=0.0)
    b = JointPmf(np.array([[0.0, 1.0]]), tail_bound=0.0)
    assert tv_distance_joint(a, b).value == 1.0


def dict_tv(p: JointPmf, q: JointPmf) -> TvResult:
    """Reference joint TV over dicts of tuple keys: fsum of |p - q| over the
    sorted union of the keys of both boxes."""
    pe, qe = ({k: float(v) for k, v in np.ndenumerate(d.probs)} for d in (p, q))
    total = math.fsum(abs(pe.get(k, 0.0) - qe.get(k, 0.0)) for k in sorted(pe.keys() | qe.keys()))
    value, radius = 0.5 * total, 0.5 * (p.tail_bound + q.tail_bound)
    if value + radius <= 1.0:
        return TvResult(value, radius)
    lo = min(max(0.0, value - radius), 1.0)  # the TV is in [lo, 1]: its midpoint and half-width
    return TvResult((1.0 + lo) / 2, (1.0 - lo) / 2)


@st.composite
def joint_pmf_pairs(draw):
    """Two random joint pmfs of the same dimension (1-3) whose boxes differ.

    Boxes reach 15^3 cells, past the 2^11 values of an exact_sum level.  Cells of
    weight 0 get tiny values down to 5e-324, as the model grids have."""
    dims = draw(st.integers(min_value=1, max_value=3))
    tiny = st.one_of(st.floats(0.0, 1e-17), st.sampled_from([0.0, 5e-324, 2.0**-1022]))

    def one():
        shape = tuple(draw(st.lists(st.integers(1, 15), min_size=dims, max_size=dims)))
        n = math.prod(shape)
        weights = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=64))
        w = np.resize(np.array(weights, dtype=float), n)
        assume(w.any())
        t = np.resize(np.array(draw(st.lists(tiny, min_size=1, max_size=7))), n)
        probs = np.where(w > 0.0, w / w.sum(), t).reshape(shape)
        return JointPmf(probs, tail_bound=draw(st.floats(0.0, 0.1)))

    return one(), one()


@given(joint_pmf_pairs())
def test_joint_tv_matches_dict_reference(pair):
    p, q = pair
    assert tv_distance_joint(p, q) == dict_tv(p, q)
    assert tv_distance_joint(q, p) == dict_tv(q, p)


def scatter(keys: np.ndarray, probs: np.ndarray) -> JointPmf:
    """A sparse law as a dense pmf over the box of its keys."""
    box = np.zeros(keys.max(axis=0).astype(np.intp) + 1)
    box[tuple(keys.T)] = probs
    return JointPmf(box)


@st.composite
def keys_and_components(draw):
    """1-3 random pmfs, and distinct random keys with positive masses.  Key
    coordinates run two past each pmf's support, so keys fall inside the
    product box, on its last cells and outside it; or the keys are the whole
    box, where the mass left off the keys is 0 up to rounding.  Entries of
    weight 0 get tiny values down to 5e-324, as the Poisson tails have."""
    tiny = st.one_of(st.floats(0.0, 1e-17), st.sampled_from([0.0, 5e-324, 2.0**-1022]))
    components = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 15))
        weights = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=15))
        w = np.resize(np.array(weights, dtype=float), n)
        assume(w.any())
        t = np.resize(np.array(draw(st.lists(tiny, min_size=1, max_size=7))), n)
        components.append(Pmf(np.where(w > 0.0, w / w.sum(), t)))
    if draw(st.booleans()):
        keys = np.array(list(itertools.product(*(range(len(c)) for c in components))), np.uint8)
    else:
        coords = st.tuples(*(st.integers(0, len(c) + 1) for c in components))
        keys = np.array(draw(st.lists(coords, min_size=1, max_size=40, unique=True)), np.uint8)
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=len(keys), max_size=len(keys))))
    return keys, weights / weights.sum(), components


@given(keys_and_components())
# the key TV rounds to 1.0; with its uncertainty clamped to 1 - value it claimed 0.0
@example((np.array([[0, 2]], np.uint8), np.ones(1), [Pmf([1 / 3, 2 / 3]), Pmf([1 / 11, 10 / 11])]))
def test_key_tv_is_the_dense_tv_of_its_scatter_within_its_uncertainty(triple):
    keys, probs, components = triple
    tv = tv_distance_keys(keys, probs, components)
    dense = tv_distance_joint(scatter(keys, probs), product_joint(components))
    assert abs(tv.value - dense.value) <= tv.uncertainty


def test_key_tv_clamps_and_counts_a_negative_mass_difference():
    # on these three pmfs the products of all 18 cells sum 2^-52 past the
    # product of the sums, so the mass left off the keys rounds below 0
    components = [
        Pmf([0.6645264847512039, 0.33547351524879615]),
        Pmf([0.078125, 0.37160326086956524, 0.5502717391304348]),
        Pmf([0.6083530338849488, 0.27501970055161545, 0.11662726556343578]),
    ]
    keys = np.array(list(itertools.product(range(2), range(3), range(3))), np.uint8)
    probs = product_joint(components).probs[tuple(keys.T)]
    tv = tv_distance_keys(keys, probs, components)
    dense = tv_distance_joint(scatter(keys, probs), product_joint(components))
    assert tv.value == 0.0 == dense.value
    assert tv.uncertainty == 5 * math.ulp(1.0) + 0.5 * 2.0**-52


def test_key_tv_empirical_key_outside_poisson_support():
    counts = joint_factor_counts(10**4, [SetSpec(PrimeSet([2]), CountMode.WITH_MULTIPLICITY)])
    probs = counts.tallies / counts.x
    poisson = poisson_pmf(1.0, 1e-3)  # h1 of {2} is 1
    assert counts.keys.max() >= len(poisson)
    tv = tv_distance_keys(counts.keys, probs, [poisson])
    dense = dict_tv(scatter(counts.keys, probs), product_joint([poisson]))
    assert abs(tv.value - dense.value) <= tv.uncertainty - 0.5 * poisson.tail_bound
    with pytest.raises(DomainError, match="dimension mismatch"):
        tv_distance_keys(counts.keys, probs, [poisson_pmf(1.0)] * 2)


def test_joint_grids_over_cap_refused():
    flat = np.full((5000, 1), 1 / 5000)  # the union box of these two has 25 M cells
    with pytest.raises(CapError, match="tv grid of 25000000 entries"):
        tv_distance_joint(JointPmf(flat), JointPmf(flat.T))


def test_joint_truncation_gap_within_tail_bounds():
    wide = product_joint([poisson_pmf(1.0, 1e-15), poisson_pmf(1.0, 1e-15)])
    narrow = product_joint([poisson_pmf(1.0, 1e-6), poisson_pmf(1.0, 1e-6)])
    res = tv_distance_joint(wide, narrow)
    assert res.value <= wide.tail_bound + narrow.tail_bound + 1e-15


def test_product_joint_entries():
    single = product_joint([poisson_pmf(1.0)])
    assert single.probs.ndim == 1
    assert single.entries[(1,)] == pytest.approx(math.exp(-1), abs=1e-15)

    pair = product_joint([poisson_pmf(1.0, 1e-15), poisson_pmf(2.0, 1e-15)])
    assert pair.entries[(1, 1)] == pytest.approx(math.exp(-3) * 1 * 2, abs=1e-15)

    points = product_joint(
        [Pmf(probs=(1.0,), tail_bound=0.0), Pmf(probs=(1.0,), tail_bound=0.0)]
    )
    assert points.entries == {(0, 0): 1.0}


def binomial_exact(k, alpha):
    """Every C(k, m) alpha^m (1 - alpha)^(k - m) from alpha's exact value:
    with alpha = a / d, d a power of two, the numerators C(k, m) a^m (d - a)^(k - m)
    are integers, each divided by d^k once (int / int rounds correctly)."""
    a, d = alpha.as_integer_ratio()
    num, whole, out = (d - a) ** k, d**k, []
    for m in range(k + 1):
        out.append(num / whole)
        num = num * (k - m) * a // ((m + 1) * (d - a))
    return out


unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def test_binomial_hand_cases():
    assert binomial_pmf(0, 0.3).probs.tolist() == [1.0]
    assert binomial_pmf(2, 0.5).probs.tolist() == [0.25, 0.5, 0.25]
    assert binomial_pmf(10, 0.3).prob(3) == binomial_exact(10, 0.3)[3] == 0.266827932


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("k", [0, 7, 1001])
def test_binomial_point_masses(monkeypatch, k, alpha):
    from primepoisson import dist

    monkeypatch.setattr(dist, "Decimal", None)  # the recurrence's ratio a / (1 - a) is never built
    pmf = binomial_pmf(k, alpha)
    unit = np.zeros(k + 1)
    unit[round(alpha * k)] = 1.0
    assert pmf.probs.tolist() == unit.tolist()
    assert pmf.tail_bound == 0.0


# (91, 1e-12): P(X = 0) came out 18 ulps high; (1000, 0.01): alpha^m underflowed
# before comb(k, m) multiplied it, so entries from m = 162 on came out 0.0;
# (10000, 0.5): the subnormal entries m = 3146 and 6854 were rounded twice;
# (57, 0.5): m = 25 and 32 are exact ties between two floats, and
# (3, 1.0662801976527762e-97): m = 1 lies a relative 2e-97 below one; the
# recurrence's own rounding cannot tell which way these go
BINOMIAL_EXACT = [
    (91, 1e-12), (1000, 0.01), (200, 0.37), (10000, 0.5), (57, 0.5), (3, 1.0662801976527762e-97)
]


@pytest.mark.parametrize("k, alpha", BINOMIAL_EXACT)
def test_binomial_entries_are_exact_floats(k, alpha):
    assert binomial_pmf(k, alpha).probs.tolist() == binomial_exact(k, alpha)


def test_binomial_near_tie_resolves_without_integers(monkeypatch):
    # the integers of an exact ratio grow as k log2(1/alpha): about 37 M bits at
    # (98304, 1.0662801976527762e-97), whose m = 1 entry took 11 s that way
    from primepoisson import dist

    retried, exact = [], []
    retry, integers = dist._binomial_entry, dist._binomial_entry_exact
    monkeypatch.setattr(
        dist, "_binomial_entry", lambda k, m, *a: retried.append((k, m)) or retry(k, m, *a)
    )
    monkeypatch.setattr(
        dist, "_binomial_entry_exact", lambda k, m, *a: exact.append((k, m)) or integers(k, m, *a)
    )
    binomial_pmf(3, 1.0662801976527762e-97)
    assert (retried, exact) == ([(3, 1)], [])
    binomial_pmf(57, 0.5)  # exact ties: no precision resolves them
    assert exact == [(57, 25), (57, 32)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=300), unit_open)
def test_binomial_entries_are_exact_floats_drawn(k, alpha):
    assert binomial_pmf(k, alpha).probs.tolist() == binomial_exact(k, alpha)


def test_binomial_mass_survives_a_tiny_one_minus_alpha():
    # (1 - alpha)^k = 2^-3,400,000 is below the default decimal context's 10^-999999,
    # where the recurrence would start from 0 and the mass would be lost
    pmf = binomial_pmf(170_000, 1.0 - 2.0**-20)
    assert 1.0 - MASS_SLACK <= exact_sum([pmf.probs]) <= 1.0 + MASS_SLACK


def test_product_joint_sums_its_grid_once(monkeypatch):
    from primepoisson import dist

    sizes = []

    def spy(arrays):
        arrays = list(arrays)
        sizes.extend(a.size for a in arrays)
        return exact_sum(arrays)

    monkeypatch.setattr(dist, "exact_sum", spy)
    joint = product_joint([poisson_pmf(1.0), poisson_pmf(2.0), poisson_pmf(3.0)])
    assert sizes.count(joint.probs.size) == 1
    # a caller's mass goes through the same window check
    with pytest.raises(DomainError, match="window"):
        JointPmf(np.array([0.5, 0.25]), mass=0.75)


BINOMIAL_LARGE_K = [(3000, 0.2), (5000, 0.2), (10000, 0.5), (1080, 0.35973308349377253)]


@pytest.mark.parametrize("k, alpha", BINOMIAL_LARGE_K)
def test_binomial_large_k_entries_are_rounded_once(k, alpha):
    # these cells failed their own mass check on the old lgamma route
    pmf = binomial_pmf(k, alpha)
    assert 1.0 - MASS_SLACK <= exact_sum([pmf.probs]) <= 1.0 + MASS_SLACK
    assert pmf.tail_bound == 0.0
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for m, got in enumerate(pmf.probs.tolist()):
            want = mpmath.binomial(k, m) * a**m * (1 - a) ** (k - m)
            if want >= 2.0**-1022:
                assert abs(got - want) <= 1e-13 * want, m
            else:  # below the normal range only the absolute ulp is kept
                assert abs(got - want) <= 2.0**-1074, m


def test_binomial_large_k_log_route_consistent():
    pmf = binomial_pmf(2000, 0.37)
    log_mode = (
        math.lgamma(2001) - math.lgamma(741) - math.lgamma(1261)
        + 740 * math.log(0.37) + 1260 * math.log(0.63)
    )
    assert pmf.prob(740) == pytest.approx(math.exp(log_mode), rel=1e-11)
    assert math.fsum(pmf.probs) == pytest.approx(1.0, abs=1e-12)


def test_tail_bound_degenerate_cases():
    assert binomial_tail_bound(5, 0.4, 0.4) == (1.0, 1.0)
    assert binomial_tail_bound(5, 0.0, 0.5) == (0.0, 0.0)
    assert binomial_tail_bound(5, 1.0, 0.5) == (0.0, 0.0)


def test_tail_bound_plugin_arithmetic():
    kull, expo = binomial_tail_bound(100, 0.5, 0.25)
    assert expo == pytest.approx(math.exp(-25 / 3), rel=1e-12)
    kl = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
    assert kull == pytest.approx(math.exp(-100 * kl), rel=1e-12)


def exact_lower_tail(k, alpha, beta):
    pmf = binomial_pmf(k, alpha)
    cut = math.floor(beta * k)
    return math.fsum(pmf.probs[: cut + 1])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_tail_chain_in_its_valid_region(k, alpha, beta):
    # Lower tail with alpha <= 1/2: here 3*alpha*(1-alpha) is the larger
    # denominator, so the exponential bound keeps its documented form.
    beta = min(beta, alpha)
    exact = exact_lower_tail(k, alpha, beta)
    kull, expo = binomial_tail_bound(k, alpha, beta)
    assert exact <= kull + 1e-14
    assert kull <= expo + 1e-14


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.5, max_value=0.95),
    st.floats(min_value=0.5, max_value=0.99),
)
def test_tail_chain_mirrored_upper_region(k, alpha, beta):
    # Mirror image: upper tail with alpha >= 1/2, beta >= alpha.  By the
    # (alpha, beta) -> (1-alpha, 1-beta) symmetry this is the same region.
    beta = max(beta, alpha)
    pmf = binomial_pmf(k, alpha)
    exact = math.fsum(pmf.probs[math.ceil(beta * k):])  # P(X >= beta*k)
    kull, expo = binomial_tail_bound(k, alpha, beta)
    assert exact <= kull + 1e-14
    assert kull <= expo + 1e-14


def exact_tail(k, alpha, beta):
    """P(X <= beta*k) for beta <= alpha, else P(X >= beta*k), X ~ Binomial(k,
    alpha), summed at 50 digits so the oracle's own rounding is negligible."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        cut = b * k
        ms = range(k + 1)
        ms = [m for m in ms if m <= cut] if b <= a else [m for m in ms if m >= cut]
        return float(mpmath.fsum(mpmath.binomial(k, m) * a**m * (1 - a) ** (k - m) for m in ms))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=150), unit_open, unit_open)
@example(1, 0.01, 0.03)  # the 3*alpha*(1-alpha) form fell below kullback
@example(1, 0.01, 0.38)  # ... and below the exact tail 0.01 itself
# log of a rounded quotient near 1: kullback fell 2.5e-14 below the exact tail
@example(148, 1.3823041052678443e-14, 1.3823041052678443e-214)
@example(0, 0.0, 0.5)  # k = 0: the tail P(X >= 0) is 1
@example(0, 1.0, 0.5)
def test_tail_chain_whole_domain(k, alpha, beta):
    exact = exact_tail(k, alpha, beta)
    kull, expo = binomial_tail_bound(k, alpha, beta)
    assert exact <= kull + 1e-14
    assert kull <= expo + 1e-14


# ------------------------------------------------------------ exact sums

FLOAT_MAX = 1.7976931348623157e308

finite_values = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals, down to 2^-1074
    st.floats(min_value=1.0, max_value=1e300),
    st.floats(min_value=-FLOAT_MAX, max_value=FLOAT_MAX),
    st.sampled_from(
        [-0.0, 5e-324, 2.0**-1022, np.nextafter(1.0, 0.0), 2.0**992, -(2.0**1000), FLOAT_MAX]
    ),
)


@st.composite
def array_streams(draw):
    """A list of arrays, tiled up to 120,000 values, so blocks of 2^15 run
    over array ends and a level's 2^11 values are crossed both ways, and
    their exact sum: the tile count times the drawn values'."""
    values = draw(st.lists(finite_values, max_size=40))
    reps = draw(st.sampled_from([1, 1, 30, 900, 3000]))
    data = np.tile(np.array(values, dtype=float), reps)
    cuts = sorted(draw(st.lists(st.integers(0, data.size), max_size=4)))
    return np.split(data, cuts), reps * sum(map(Fraction, values))


def _outcome(fn, *args):
    """fn(*args), or OverflowError if it raises that."""
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=300, deadline=None)
@given(array_streams())
@example(([], Fraction(0)))
@example(([np.full(3000, -0.0), np.array([5e-324])], Fraction(5e-324)))
@example(([np.r_[np.ones(3000), -1.0]], Fraction(2999)))  # a negative value past 2^11 values
@example(([np.full(3000, FLOAT_MAX)], 3000 * Fraction(FLOAT_MAX)))
def test_exact_sum_is_fsum(stream):
    # float(Fraction) rounds correctly and raises OverflowError past the max;
    # math.fsum agrees, but also raises where a partial sum in its order
    # overflows though the sum does not, and exact_sum then returns the sum
    arrays, exact = stream
    want = _outcome(float, exact)
    fsum = _outcome(math.fsum, [v for a in arrays for v in a.tolist()])
    assert _outcome(exact_sum, arrays) == want
    assert _outcome(exact_sum, iter(arrays)) == want
    assert fsum == want or fsum is OverflowError


@pytest.mark.parametrize("size", [1, 3000, 100_000])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_refuses_a_value_that_is_not_finite_at_every_size(bad, size):
    values = np.ones(size)
    values[size // 2] = bad
    with pytest.raises(ValueError, match=f"finite values, got {bad}"):
        exact_sum([values])


@pytest.mark.parametrize("low", [0.0, 0.5, -1.0])
def test_exact_sum_of_dense_random_blocks(low):
    # every q of a level has up to 37 bits, so its sum is exact only within
    # the bound: 2^15 values below 2^(e + 1) at sigma = 2^(e + 17)
    rng = np.random.default_rng(3)
    terms = rng.uniform(low, 1.0, 1 << 17)
    assert exact_sum([terms]) == math.fsum(terms.tolist())
    # a rounded level sum would likely round to the same total, but not cancel
    assert exact_sum([terms, -rng.permutation(terms), np.array([5e-324])]) == 5e-324


@pytest.mark.parametrize("e", [991, 992, 1006, 1010, 1012])
def test_exact_sum_at_tops_around_the_split(e):
    # below 2^992 a block forms sigma = 2^(e + 17) itself; at and above it the
    # multiples of 2^990 go to an int, sigma would not fit at e = 1007 and up
    rng = np.random.default_rng(e)
    block = np.ldexp(rng.uniform(-1.0, 1.0, 1 << 15), e + 1 - rng.integers(0, 60, 1 << 15))
    assert exact_sum([block]) == float(sum(map(Fraction, block.tolist())))


def test_exact_sum_many_terms_near_one():
    terms = np.full(1 << 20, np.nextafter(1.0, 0.0))
    terms[::3] = 2.0**-60 + 2.0**-100
    assert exact_sum([terms]) == math.fsum(terms.tolist())


@pytest.mark.parametrize(
    "value", [np.nextafter(1.0, 0.0), -np.nextafter(2.0**-40, 0.0), 1.0, -(2.0**600)]
)
def test_exact_sum_at_the_edge_of_the_level_bound(value):
    # 2^15 equal values: each just below a power of two rounds up to it, so a
    # level's q-sum is 2^15 times it, the most its bound allows; at an exact
    # power of two the q are the values and no residual is left
    block = np.full(1 << 15, value)
    assert exact_sum([block]) == float((1 << 15) * Fraction(value))
    assert exact_sum([block] * 5) == float(5 * (1 << 15) * Fraction(value))


def huge_block() -> np.ndarray:
    """2^15 values: +-2^1000 to 2^1024, each next to the negation of itself
    times 1 - 2^-40, among subnormals and values in [0, 1)."""
    rng = np.random.default_rng(5)
    block = np.ldexp(rng.random(1 << 15), rng.integers(-1074, -1021, 1 << 15))
    magnitudes = np.ldexp(1.0 + rng.random(1 << 13), rng.integers(1000, 1024, 1 << 13))
    big = rng.choice([-1.0, 1.0], 1 << 13) * magnitudes
    block[::4], block[2::4] = big, -big * (1 - 2.0**-40)
    block[1::8] = rng.random(1 << 12)
    return block


def test_exact_sum_splits_a_top_past_2_1000_next_to_subnormals():
    block = huge_block()
    exact = sum(map(Fraction, block.tolist()))
    assert exact_sum([block]) == float(exact)
    assert exact_sum([block, np.array([5e-324]), -block]) == 5e-324
    assert exact_sum(itertools.repeat(block, 40)) == float(40 * exact)
    # a sum past the float max, and ones whose partial sums pass it though they do not
    with pytest.raises(OverflowError):
        exact_sum([np.full(2, FLOAT_MAX)])
    assert exact_sum([np.array([FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX, 5e-324])]) == FLOAT_MAX
    cancelling = np.r_[np.full(3000, FLOAT_MAX), np.full(3000, -FLOAT_MAX), 5e-324]
    assert exact_sum([cancelling]) == 5e-324


def test_exact_sum_folds_a_long_stream():
    # one block repeated, 36 M values near one: each block leaves a few level
    # sums and residuals in the carry, rounded once at the end
    block = np.full((1 << 15) - 1, np.nextafter(1.0, 0.0))
    block[:2] = 0.3, 5e-324
    exact = sum(map(Fraction, block.tolist())) * 1100
    assert exact_sum(itertools.repeat(block, 1100)) == float(exact)

import itertools
import math
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_topic
from tarstop.config import MethodParams
from tarstop.core import StopOutcome, Topic, rel_at
from tarstop.methods import (
    RULES,
    _checkpoints,
    _first_rank_reaching,
    _knee_candidate,
    _quota,
    _target_rng,
    knee_stop,
    oracle_stop,
    poisson_stop,
    target_stop,
)
from tarstop.metrics import recall_of
from tarstop.ratefit import _MAX_EXP_ARG, _ROUNDING
from tarstop.simulate import ExponentialRate, PiecewiseRate, gen_topic

DEFAULTS = MethodParams()


def test_poisson_gamma_gate_full_review():
    topic = make_topic("t", set(), 500)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 500
    assert not outcome.predicted
    assert outcome.effort == 500


def test_poisson_gamma_gate_preserves_recall():
    topic = make_topic("t", {450, 480, 499}, 500)  # all relevant in the tail
    outcome = poisson_stop(topic, DEFAULTS)
    assert not outcome.predicted
    assert recall_of(outcome, topic) == 1.0


def test_poisson_synthetic_golden():
    # frozen from the first converged build of this loop
    topic = gen_topic(2000, ExponentialRate(0.5, -0.005), seed=1)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 600
    assert rel_at(topic, outcome.stop_rank) == 98
    assert outcome.predicted
    assert recall_of(outcome, topic) >= 0.7


def test_poisson_stops_at_initial_sample_when_quota_met():
    # Steep decay: the initial sample already holds the required count.
    topic = gen_topic(1000, ExponentialRate(0.9, -0.02), seed=5)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.predicted
    assert outcome.stop_rank == 300  # ceil(0.3 * 1000)


@given(
    st.sets(st.integers(1, 60)),
    st.integers(1, 60),
    st.integers(0, 60),
    st.integers(0, 60),
    st.integers(-2, 62),
)
def test_first_rank_reaching_matches_the_rank_loop(relevant, n, start, width, quota):
    topic = make_topic("t", {r for r in relevant if r <= n}, n)
    start = min(start, n)
    end = min(start + width, n)
    expected = next(
        (rank for rank in range(start, end + 1) if rel_at(topic, rank) >= quota),
        None,
    )
    rank = _first_rank_reaching(topic, start, end, quota)
    assert rank == expected
    assert rank is None or type(rank) is int


def test_target_exhaustion_full_review():
    topic = make_topic("t", {2, 5}, 50)
    outcome = target_stop(topic, DEFAULTS, seed=0)
    assert outcome.stop_rank == 50
    assert not outcome.predicted
    assert outcome.extra_examined == 0


def test_target_stops_at_max_sampled_relevant():
    # Every document relevant: the first 10 samples are the target set.
    topic = make_topic("t", set(range(1, 101)), 100)
    outcome = target_stop(topic, DEFAULTS, seed=3)
    assert outcome.predicted
    assert rel_at(topic, outcome.stop_rank) >= 10


def test_target_seeded_golden():
    # Frozen when the sampling order became one Generator permutation; the
    # shuffled Python list before it gave (222, 99, 34, True).
    topic = gen_topic(500, ExponentialRate(0.4, -0.01), seed=123)
    outcome = target_stop(topic, DEFAULTS, seed=7)
    assert _as_tuple(outcome, topic) == (283, 51, 36, True)


def test_target_deterministic_per_seed():
    topic = gen_topic(300, ExponentialRate(0.3, -0.008), seed=9)
    assert target_stop(topic, DEFAULTS, seed=11) == target_stop(
        topic, DEFAULTS, seed=11
    )


def test_knee_flat_curve_full_review():
    topic = make_topic("t", set(), 100)
    outcome = knee_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 100
    assert not outcome.predicted


def test_knee_threshold_formula():
    for rel in range(0, 301):
        threshold = DEFAULTS.epsilon + 6 - min(rel, DEFAULTS.epsilon)
        if rel >= 150:
            assert threshold == 6
        else:
            assert threshold == 156 - rel


def test_knee_convex_golden():
    # 50 relevant at odd ranks 1..100, none after; frozen from the first build.
    topic = make_topic(
        "convex", {i for i in range(1, 101) if i % 2 == 1}, 1000
    )
    outcome = knee_stop(topic, MethodParams(epsilon=50))
    assert outcome.predicted
    assert outcome.stop_rank == 300  # first batch boundary (alpha sample)
    assert recall_of(outcome, topic) == 1.0


def test_knee_candidate_degenerate():
    import numpy as np

    assert _knee_candidate(np.array([2.0])) is None
    assert _knee_candidate(np.array([3.0, 3.0, 3.0])) is None


def test_oracle_first_ranks():
    topic = make_topic("t", set(range(1, 11)), 50)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 7


def test_oracle_ceiling_effect():
    topic = make_topic("t", {5, 500}, 600)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 500  # needs ceil(1.4) = 2


def test_oracle_deep_tail():
    topic = make_topic("t", {1, 2, 3000}, 3000)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 3000  # needs ceil(2.1) = 3


def test_oracle_rejects_zero_relevant():
    topic = make_topic("t", set(), 10)
    with pytest.raises(ValueError):
        oracle_stop(topic, DEFAULTS)


def _sequential_outcome(topic, params, order):
    """(stop_rank, extra, found, predicted) drawing ``order`` one rank at a time.

    ``found`` recounts the relevant documents in the examined set: the
    ranked prefix up to the stop rank and every sampled rank.
    """
    found, examined = [], []
    for pos in order:
        examined.append(pos)
        if topic.relevant[pos - 1]:
            found.append(pos)
            if len(found) == params.target_count:
                break
    else:
        return topic.size, 0, topic.total_relevant, False
    stop_rank = max(found)
    extra = sum(1 for pos in examined if pos > stop_rank)
    examined_set = set(range(1, stop_rank + 1)) | set(examined)
    relevant = sum(int(topic.relevant[r - 1]) for r in examined_set)
    return stop_rank, extra, relevant, True


def _target_reference(topic, params, seed):
    order = [int(pos) + 1 for pos in _target_rng(seed).permutation(topic.size)]
    return _sequential_outcome(topic, params, order)


def _as_tuple(outcome, topic):
    return (
        outcome.stop_rank,
        outcome.extra_examined,
        rel_at(topic, outcome.stop_rank),
        outcome.predicted,
    )


@given(
    st.sets(st.integers(1, 80)),
    st.integers(1, 80),
    st.integers(1, 12),
    st.integers(-(2**63), 2**63),
)
def test_target_stop_matches_sequential_draws(relevant, n, target_count, seed):
    topic = make_topic("t", {r for r in relevant if r <= n}, n)
    params = MethodParams(target_count=target_count)
    outcome = target_stop(topic, params, seed)
    assert _as_tuple(outcome, topic) == _target_reference(topic, params, seed)


# Seeds -SEEDS/2 .. SEEDS/2 - 1, shared by every case of the exact-law test.
SEEDS = 10_000


@pytest.mark.parametrize(
    "n, relevant", [(5, {1, 3}), (6, {2, 3, 5}), (7, {1, 4, 5, 6})]
)
def test_target_stop_follows_the_exact_permutation_law(n, relevant):
    """target_stop over fixed seeds against the law of a uniform permutation.

    The exact law of (stop_rank, extra, found, predicted) comes from applying
    the per-draw rule to each of the n! sampling orders.  For k outcomes and
    N seeds, the empirical law of a sampler with that law lies within
    TV <= sqrt(k/N)/2 in expectation (Cauchy-Schwarz); changing one seed's
    outcome moves TV by at most 1/N, so by McDiarmid it exceeds that by more
    than sqrt(ln(1e6)/(2N)) with probability below 1e-6.
    """
    topic = make_topic("t", relevant, n)
    orders = list(itertools.permutations(range(1, n + 1)))
    for target_count in range(1, len(relevant) + 1):
        params = MethodParams(target_count=target_count)
        exact = Counter(_sequential_outcome(topic, params, o) for o in orders)
        seen = Counter(
            _as_tuple(target_stop(topic, params, seed), topic)
            for seed in range(-SEEDS // 2, SEEDS // 2)
        )
        assert set(seen) <= set(exact)
        tv = 0.5 * sum(
            abs(seen[key] / SEEDS - count / len(orders))
            for key, count in exact.items()
        )
        bound = 0.5 * math.sqrt(len(exact) / SEEDS) + math.sqrt(
            math.log(1e6) / (2 * SEEDS)
        )
        assert tv <= bound, (target_count, tv, bound)


def test_target_stream_is_apart_from_gen_topic():
    # simulate passes seed + trial both to gen_topic's default_rng and to tm.
    for seed in range(50):
        assert not np.array_equal(
            _target_rng(seed).permutation(1000),
            np.random.default_rng(seed).permutation(1000),
        )
        if seed:
            assert not np.array_equal(
                _target_rng(seed).permutation(1000),
                _target_rng(-seed).permutation(1000),
            )


def test_outcomes_hold_python_ints():
    topic = gen_topic(800, ExponentialRate(0.4, -0.004), seed=4)
    outcomes = [
        poisson_stop(topic, DEFAULTS),
        knee_stop(topic, DEFAULTS),
        target_stop(topic, DEFAULTS, seed=0),
        oracle_stop(topic, DEFAULTS),
    ]
    for outcome in outcomes:
        counts = (outcome.stop_rank, outcome.extra_examined, outcome.effort)
        assert all(type(count) is int for count in counts), outcome
        assert type(outcome.predicted) is bool, outcome


def test_prefix_methods_report_prefix_relevant():
    topic = gen_topic(800, ExponentialRate(0.4, -0.004), seed=4)
    for method in (poisson_stop, knee_stop, oracle_stop):
        outcome = method(topic, DEFAULTS)
        assert outcome.extra_examined == 0


@given(st.integers(1, 5000), st.floats(1e-4, 1.0), st.floats(1e-4, 1.0))
@example(50, 1.0, 0.5)  # the initial sample is the whole topic
@example(100, 0.6, 0.5)  # one batch reaches past n
@example(10, 0.3, 0.01)  # batches of one rank
def test_checkpoints_walk_the_batch_schedule(n, frac_a, frac_b):
    alpha_frac, beta_frac = max(frac_a, frac_b), min(frac_a, frac_b)
    params = MethodParams(alpha_frac=alpha_frac, beta_frac=beta_frac)
    alpha = min(n, max(1, math.ceil(alpha_frac * n)))
    batch = max(1, math.ceil(beta_frac * n))
    ends = _checkpoints(n, params)
    assert ends[0] == alpha and ends[-1] == n
    assert all(type(end) is int for end in ends)
    steps = [b - a for a, b in zip(ends, ends[1:])]
    assert all(step == batch for step in steps[:-1])
    assert all(0 < step <= batch for step in steps[-1:])


@pytest.mark.parametrize("seed", range(6))
def test_examined_set_holds_the_prefix_count(seed):
    """Every rule's examined set holds cumrel[stop_rank] relevant documents.

    The set is the ranked prefix up to the stop rank; for tm it also holds
    every rank drawn, one at a time from its permutation, until the target
    set was found.
    """
    # Over these seeds pp stops and falls back, km stops and tm draws extras.
    topic = gen_topic(600, ExponentialRate(0.6, -0.02), seed=seed)
    params = MethodParams(target_count=5, epsilon=30)
    for name, rule in RULES.items():
        outcome = rule(topic, params, seed)
        examined = set(range(1, outcome.stop_rank + 1))
        if name == "tm" and outcome.predicted:
            found = 0
            for index in _target_rng(seed).permutation(topic.size).tolist():
                examined.add(index + 1)
                found += int(topic.relevant[index])
                if found == params.target_count:
                    break
        assert len(examined) == outcome.effort, name
        count = sum(int(topic.relevant[r - 1]) for r in examined)
        assert count == rel_at(topic, outcome.stop_rank), name


def test_method_registry_order_and_dispatch():
    assert tuple(RULES) == ("pp", "tm", "km", "or")
    topic = gen_topic(400, ExponentialRate(0.5, -0.008), seed=100)
    params = MethodParams()
    assert RULES["pp"](topic, params, 7) == poisson_stop(topic, params)
    assert RULES["tm"](topic, params, 7) == target_stop(topic, params, 7)
    assert RULES["tm"](topic, params, 7) != target_stop(topic, params, 8)
    assert RULES["km"](topic, params, 7) == knee_stop(topic, params)
    assert RULES["or"](topic, params, 7) == oracle_stop(topic, params)


@st.composite
def _small_topics(draw):
    """A seeded topic of 50-400 documents with one of four rate shapes."""
    n = draw(st.integers(50, 400))
    high, low = draw(st.floats(0.02, 0.6)), draw(st.floats(0.0, 0.3))
    cutoff = draw(st.integers(1, n))
    rate = draw(
        st.sampled_from(
            [
                ExponentialRate(high, math.log(max(low, 1e-3) / high) / n),
                PiecewiseRate(high, high, 0),  # uniform
                PiecewiseRate(high, 0.0, cutoff),  # step
                PiecewiseRate(high, low, cutoff),  # bimodal
            ]
        )
    )
    return gen_topic(n, rate, draw(st.integers(0, 2**32 - 1)))


# The upper ends leave room for the stricter steps of the monotonicity property.
_PARAMS = st.builds(
    MethodParams,
    target_recall=st.floats(0.3, 0.95),
    confidence=st.floats(0.5, 0.95),
    gamma=st.integers(1, 20),
    delta=st.floats(0.3, 0.95),
    target_count=st.integers(1, 10),
    epsilon=st.integers(0, 200),
)


def _relabelled(topic, ranks, relabel):
    """The topic with each of the given ranks relevant with chance p.

    relabel is (p, seed); p = 0 and p = 1 clear or fill every rank.
    """
    p, seed = relabel
    relevant = topic.relevant.copy()
    draws = np.random.default_rng(seed).random(len(ranks))
    relevant[np.array(sorted(ranks), dtype=int) - 1] = draws < p
    return Topic(topic.topic_id, relevant)


_RELABEL = st.tuples(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))


@settings(deadline=None)
@given(_small_topics(), _PARAMS, st.integers(0, 2**32 - 1), _RELABEL)
def test_no_rule_reads_a_rank_it_did_not_examine(topic, params, seed, relabel):
    n = topic.size
    for rule in (poisson_stop, knee_stop):
        outcome = rule(topic, params)
        unseen = range(outcome.stop_rank + 1, n + 1)
        assert rule(_relabelled(topic, unseen, relabel), params) == outcome, rule
    # tm also reads each rank it sampled until its last needed hit.
    outcome = target_stop(topic, params, seed)
    sampled, found = set(), 0
    for rank in (_target_rng(seed).permutation(n) + 1).tolist():
        if found == params.target_count:
            break
        sampled.add(rank)
        found += int(topic.relevant[rank - 1])
    unseen = set(range(outcome.stop_rank + 1, n + 1)) - sampled
    assert target_stop(_relabelled(topic, unseen, relabel), params, seed) == outcome


@settings(deadline=None)
@given(_small_topics(), _PARAMS)
def test_a_stricter_rule_never_stops_earlier(topic, params):
    stop = poisson_stop(topic, params).stop_rank
    for stricter in (
        {"confidence": params.confidence + 0.04},
        {"target_recall": params.target_recall + 0.05},
        {"delta": params.delta + 0.05},
        {"gamma": params.gamma + 3},
    ):
        outcome = poisson_stop(topic, replace(params, **stricter))
        assert outcome.stop_rank >= stop, stricter
    stricter = replace(params, epsilon=params.epsilon + 30)
    assert knee_stop(topic, stricter).stop_rank >= knee_stop(topic, params).stop_rank


@settings(deadline=None)
@given(_small_topics(), _PARAMS)
def test_pp_stops_at_the_first_rank_that_meets_its_quota(topic, params):
    """poisson_stop against pp read one rank at a time.

    Each rank from the end of the initial sample on is held against the
    quota fitted at the last checkpoint; a checkpoint that does not meet
    it is fitted anew and held against its own.
    """
    n = topic.size
    ends = _checkpoints(n, params)
    stop, quota = None, None
    if rel_at(topic, ends[0]) >= params.gamma:
        for rank in range(ends[0], n + 1):
            met = quota is not None and rel_at(topic, rank) >= quota
            if rank in ends and not met:
                quota = _quota(topic, rank, params)
                met = quota is not None and rel_at(topic, rank) >= quota
            if met:
                stop = rank
                break
    outcome = poisson_stop(topic, params)
    expected = (n, False) if stop is None else (stop, True)
    assert (outcome.stop_rank, outcome.predicted) == expected


# A reference pp built from the paper's steps, with none of ratefit's,
# poisson's or methods' code: bin the prefix, fit d * exp(k * x) to the
# densities by least squares on a dense grid, refined by bisection on the
# cost's slope until t = k * span is good to the last bits, take Lambda(n)
# and the prefix's prediction in closed form at 30 digits, find the
# Poisson quantile by bisection on mpmath's regularized gammainc, and apply
# the quota, the gamma and delta gates and the window search.  Only
# ratefit's rounding margin and exponent limit are shared: they say where
# the code refuses a fit, not how it finds one.


class _Tie(Exception):
    """A step whose outcome rounding decides: the reference does not call it."""


def _ref_cost(t, u, dens):
    """|r|^2 of the best d * exp(t * u) at each t."""
    z = np.multiply.outer(u, t)
    e = np.exp(z - z.max(axis=0))
    d = (dens @ e) / (e * e).sum(axis=0)
    return ((dens[:, None] - d * e) ** 2).sum(axis=0)


def _ref_minima(lo, hi, u, dens):
    """(|r|^2, t) at the root of the cost's slope in each cell [lo, hi], lowest first."""
    for _ in range(64):
        t = 0.5 * (lo + hi)
        near = np.where(t < 0, u[0], u[-1])
        e = np.exp((u[:, None] - near) * t)
        d = (dens @ e) / (e * e).sum(axis=0)
        slope = -d * ((u[:, None] - near) * e * (dens[:, None] - d * e)).sum(axis=0)
        lo, hi = np.where(slope < 0, t, lo), np.where(slope < 0, hi, t)
    t = 0.5 * (lo + hi)
    return sorted(zip(_ref_cost(t, u, dens).tolist(), t.tolist()))


def _ref_fit(x, dens):
    """(d, k) of the least-squares d * exp(k * x), or None where the code raises.

    The grid of t = k * span reaches the limits of the cost at both ends.
    Raises _Tie when the lowest minimum is within half ratefit's rounding
    margin of where ratefit refuses it, or another minimum is within that
    margin of it.
    """
    if len(x) < 2 or not dens.any():
        return None
    span = x[-1] - x[0]
    u = (x - x[0]) / span
    tail = np.geomspace(1e-3, 800.0 / np.diff(u).min(), 4000)
    grid = np.concatenate((-tail[::-1], [0.0], tail))
    cost = _ref_cost(grid, u, dens)
    inner = np.flatnonzero((cost[1:-1] < cost[:-2]) & (cost[1:-1] <= cost[2:])) + 1
    minima = _ref_minima(grid[inner - 1], grid[inner + 1], u, dens)
    if not minima:
        return None
    (best, t), *others = minima
    # ratefit refuses a fit whose |r|^2 is not below the lower limit by the margin.
    margin = _ROUNDING * len(dens) * float(dens @ dens)
    refused = min(float(dens[1:] @ dens[1:]), float(dens[:-1] @ dens[:-1])) - margin
    if abs(best - refused) <= margin / 2:
        raise _Tie("a fit cost at the limit")
    if best >= refused:
        return None
    if any(c - best <= margin and abs(s - t) > 1e-6 * (1 + abs(t)) for c, s in others):
        raise _Tie("two fit minima")
    near = 0 if t < 0 else -1
    e = np.exp(t * (u - u[near]))
    k = t / span
    log_d = math.log(float(e @ dens) / float(e @ e)) - k * x[near]
    if not -_MAX_EXP_ARG < log_d < _MAX_EXP_ARG:
        return None
    return math.exp(log_d), k


def _ref_quota(found, end, width, n, params):
    """Relevant documents needed after ranks 1..end, or None where no quota is set."""
    edges = [*range(0, end, width), end]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    fit = _ref_fit((lo + 1 + hi) / 2.0, (found[hi] - found[lo]) / (hi - lo))
    if fit is None or fit[1] * n > _MAX_EXP_ARG:
        return None
    with mpmath.workdps(30):
        d, k = mpmath.mpf(fit[0]), mpmath.mpf(fit[1])
        if k == 0:
            predicted, mean = d * end, d * n
        else:
            # sum of d * exp(k * x) over ranks 1..end, and its integral over (0, n].
            predicted = d * mpmath.exp(k) * mpmath.expm1(k * end) / mpmath.expm1(k)
            mean = d / k * mpmath.expm1(k * n)
        if predicted >= 1e-12:
            if abs(found[end] - params.delta * predicted) <= 1e-9 * predicted:
                raise _Tie("the delta gate")
            if found[end] < params.delta * predicted:
                return None

        def cdf(r):
            return mpmath.gammainc(r + 1, mean, mpmath.inf, regularized=True)

        # The least r with cdf(r) >= confidence; any bound from hi up sets a
        # quota above n, which no window can meet.
        lo, hi = -1, math.ceil((n + 1) / params.target_recall) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if cdf(mid) >= params.confidence else (mid, hi)
        if any(r >= 0 and abs(cdf(r) - params.confidence) <= 1e-9 for r in (lo, hi)):
            raise _Tie("the credible bound")
    return math.ceil(hi * params.target_recall)


def _reference_pp(topic, params):
    """pp's StopOutcome from the paper's steps; raises _Tie where rounding decides."""
    n = topic.size
    found = np.concatenate(([0], np.cumsum(topic.relevant)))
    width = max(1, math.ceil(params.beta_frac * n))
    ends = [*range(min(n, max(1, math.ceil(params.alpha_frac * n))), n, width), n]
    if found[ends[0]] >= params.gamma:
        for end, next_end in zip(ends, [*ends[1:], n]):
            quota = _ref_quota(found, end, width, n, params)
            if quota is None:
                continue
            for rank in range(end, next_end + 1):
                if found[rank] >= quota:
                    return StopOutcome(rank)
    return StopOutcome(n, predicted=False)


def _reference_case(seed):
    """A seeded topic of 50-400 documents with one of four rate shapes, and params.

    Every other four seeds take delta = 1, the strictest gate: below 0.95
    it rejects a fit at almost no checkpoint of these topics.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 401))
    high, low = rng.uniform(0.02, 0.6), rng.uniform(0.0, 0.3)
    cutoff = int(rng.integers(1, n + 1))
    rate = [
        ExponentialRate(high, math.log(max(low, 1e-3) / high) / n),
        PiecewiseRate(high, high, 0),  # uniform
        PiecewiseRate(high, 0.0, cutoff),  # step
        PiecewiseRate(high, low, cutoff),  # bimodal
    ][seed % 4]
    params = MethodParams(
        target_recall=rng.uniform(0.3, 0.95),
        confidence=rng.uniform(0.5, 0.95),
        gamma=int(rng.integers(1, 21)),
        delta=1.0 if seed % 8 >= 4 else rng.uniform(0.3, 0.95),
    )
    return gen_topic(n, rate, seed), params


def test_pp_matches_a_reference_built_from_the_papers_steps():
    # None of these 120 cases ties; 5 of the first 1,000 do, each at the
    # delta gate with delta = 1 on equal densities, whose fit (k = 0)
    # predicts exactly the count it is held against.
    ties = []
    for seed in range(120):
        topic, params = _reference_case(seed)
        try:
            expected = _reference_pp(topic, params)
        except _Tie as tie:
            ties.append((seed, str(tie)))
            continue
        assert poisson_stop(topic, params) == expected, seed
    assert len(ties) <= 3, ties

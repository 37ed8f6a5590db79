import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import SamplerParams, checks, coverage_lower_bound, sample_audit_batch
from auditloop.errors import InvalidParams
from auditloop.oracle import _PCG_MULT_HI, _PCG_MULT_LO
from auditloop.sampler import (
    ACTIVE_FRACTION,
    EPSILON,
    _explore,
    least_probed_quartile,
    stratified_fill,
)


def test_param_validation():
    with pytest.raises(InvalidParams):
        SamplerParams(batch_size=0)


@pytest.mark.parametrize("n,m,expected", [(60, 6, 0.03), (10, 10, 0.3), (10, 3, 0.09)])
def test_coverage_lower_bound(n, m, expected):
    assert math.isclose(coverage_lower_bound(n, m), expected)


def test_coverage_lower_bound_validation():
    with pytest.raises(InvalidParams):
        coverage_lower_bound(5, 6)


def test_least_probed_quartile_ties_break_by_id():
    counts = np.array([3, 0, 0, 0, 5, 0, 1, 2])
    assert list(least_probed_quartile(counts)) == [1, 2]


def test_stratified_split_30_70():
    # with exploration disabled, 10 slots split 3 active / 7 inactive
    rng = np.random.default_rng(0)
    picks = stratified_fill(10, list(range(20)), list(range(20, 60)), rng)
    assert len(picks) == 10
    assert sum(1 for p in picks if p < 20) == 3
    assert sum(1 for p in picks if p >= 20) == 7


def test_stratified_spillover_to_inactive():
    rng = np.random.default_rng(0)
    picks = stratified_fill(4, [], list(range(10)), rng)
    assert len(picks) == 4 and all(p < 10 for p in picks)


def test_stratified_spillover_to_active():
    rng = np.random.default_rng(0)
    picks = stratified_fill(6, list(range(10)), [17], rng)
    assert len(picks) == 6 and picks.count(17) == 1


def test_batch_covers_space_when_m_equals_n():
    params = SamplerParams(batch_size=5)
    batch, _ = sample_audit_batch(np.zeros(5, bool), np.zeros(5, int), params, np.random.default_rng(0))
    assert batch == [0, 1, 2, 3, 4]


def test_batch_when_m_exceeds_n():
    params = SamplerParams(batch_size=9)
    batch, _ = sample_audit_batch(np.zeros(4, bool), np.zeros(4, int), params, np.random.default_rng(1))
    assert batch == [0, 1, 2, 3]


def test_determinism():
    params = SamplerParams(batch_size=6)
    gates = np.zeros(40, bool)
    gates[:10] = True
    probes = np.arange(40) % 7
    a = sample_audit_batch(gates, probes, params, np.random.default_rng([3, 11]))
    b = sample_audit_batch(gates, probes, params, np.random.default_rng([3, 11]))
    assert a == b


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 60),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_no_duplicates_and_size_contract(n, m, seed, data):
    gates = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    probes = np.array(data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)))
    params = SamplerParams(batch_size=m)
    batch, exploration = sample_audit_batch(gates, probes, params, np.random.default_rng(seed))
    assert len(batch) == len(set(batch)) == min(m, n)
    assert set(exploration) <= set(batch)
    assert all(0 <= u < n for u in batch)


def test_exploration_targets_least_probed():
    # Exploration draws only from the least-probed quartile, units 6 to 8,
    # and over 200 seeds every one of them, up to all three slots at once.
    params = SamplerParams(batch_size=3)
    probes = np.array([9, 9, 9, 9, 9, 9, 0, 0, 0, 9, 9, 9])
    explored = []
    for seed in range(200):
        batch, exploration = sample_audit_batch(np.zeros(12, bool), probes, params, np.random.default_rng(seed))
        assert set(exploration) <= {6, 7, 8} and set(exploration) <= set(batch)
        explored.append(exploration)
    assert set().union(*explored) == {6, 7, 8}
    assert [6, 7, 8] in explored


def test_coverage_bound_quick():
    # frozen gates, 400 cycles: every unit audited at least the binomial lower bound
    probes = checks.coverage_probes(30, 6, 400, seed=0)
    assert checks.coverage_verdict(30, 6, 400, int(probes.min())).ok
    assert probes.sum() == 400 * 6


def reference_explore(pool, slots, target, rng):
    """`_explore` through the generator's own calls: each slot, until
    `target` ids are chosen, draws `random()` and, below EPSILON, pops
    position `integers(len(pool))` of the pool while it lasts."""
    chosen = []
    for _ in range(slots):
        if len(chosen) >= target:
            break
        if rng.random() < EPSILON and pool:
            chosen.append(pool.pop(int(rng.integers(len(pool)))))
    return chosen


def reference_sample_audit_batch(gates, probe_counts, params, rng):
    """`sample_audit_batch` in plain Python: the quartile sorted on (probe
    count, id), then list pools for the stratified draws."""
    n = len(gates)
    target = min(params.batch_size, n)
    pool = sorted(range(n), key=lambda i: (probe_counts[i], i))[: max(1, -(-n // 4))]
    chosen = reference_explore(pool, params.batch_size, target, rng)
    exploration = list(chosen)
    k = target - len(chosen)
    if k > 0:
        active = [i for i in range(n) if gates[i] and i not in exploration]
        inactive = [i for i in range(n) if not gates[i] and i not in exploration]
        n_active = min(len(active), int(round(ACTIVE_FRACTION * k)))
        n_inactive = min(len(inactive), k - n_active)
        n_active = min(len(active), k - n_inactive)
        for stratum, size in ((active, n_active), (inactive, n_inactive)):
            if size:
                chosen.extend(int(i) for i in rng.choice(stratum, size=size, replace=False))
    return sorted(chosen), sorted(exploration)


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_sampler_matches_plain_python_reference(n, seed, data):
    m = data.draw(st.integers(1, n + 3))
    gates = data.draw(st.one_of(
        st.just([True] * n), st.just([False] * n), st.lists(st.booleans(), min_size=n, max_size=n)
    ))
    probes = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))  # many ties
    params = SamplerParams(batch_size=m)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_audit_batch(np.array(gates), np.array(probes), params, rng) == reference_sample_audit_batch(
        gates, probes, params, ref_rng
    )
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def assert_matches_reference(gates, probes, m, rng, ref_rng):
    gates, probes = np.asarray(gates, dtype=bool), np.asarray(probes)
    params = SamplerParams(batch_size=m)
    got = sample_audit_batch(gates, probes, params, rng)
    assert got == reference_sample_audit_batch(gates.tolist(), probes.tolist(), params, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


def test_raw_exploration_with_a_32_bit_value_buffered_at_entry():
    # integers() leaves the high half of its output buffered; the raw path's
    # first bounded draw must take that half.
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref_rng):
            g.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_matches_reference(np.arange(200) % 3 == 0, np.arange(200) % 4, 1 + seed, rng, ref_rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_raw_exploration_on_tiny_spaces(n):
    # N <= 4 has a one-unit pool, where integers(1) draws nothing; at N = 1
    # the loop stops once the one unit is explored.
    for seed in range(30):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_matches_reference([True] * n, [0] * n, 1 + seed, rng, ref_rng)


def _state_before_output(r: int, inc: int) -> int:
    """A PCG64 state whose next output is `r`: the state after the step is r
    itself, since a state with high half 0 outputs its low half."""
    mult = _PCG_MULT_HI << 64 | _PCG_MULT_LO
    return (r - inc) * pow(mult, -1, 1 << 128) & (1 << 128) - 1


@pytest.mark.parametrize("buffered, draws_again", [(0, True), (0xAAAAAAAB, False)])
def test_raw_exploration_at_lemires_threshold(buffered, draws_again):
    # With a pool of 3, integers(3) takes the buffered value x and keeps
    # it unless the low word of 3x is below (2**32 - 3) % 3 = 1. x = 0 gives
    # the low word 0, so it draws again; x = 0xAAAAAAAB gives 1, kept at the
    # threshold. The next output, 5, makes the first slot explore.
    inc = 2 * 0x9E3779B97F4A7C15F39CC0605CEDC835 + 1 & (1 << 128) - 1
    state = {"bit_generator": "PCG64", "state": {"state": _state_before_output(5, inc), "inc": inc},
             "has_uint32": 1, "uinteger": buffered}
    gates, probes = [False] * 12, [0, 0, 0] + [1] * 9
    for m in (1, 16):
        rngs = []
        for _ in range(3):
            bit_generator = np.random.PCG64()
            bit_generator.state = state
            rngs.append(np.random.Generator(bit_generator))
        probe = rngs[2]
        assert probe.random() < EPSILON
        probe.integers(3)
        assert probe.bit_generator.state["has_uint32"] == draws_again
        _, exploration = assert_matches_reference(gates, probes, m, *rngs[:2])
        assert exploration


@pytest.mark.parametrize("m", [32, 100])
def test_raw_exploration_at_wide_740_sizes(m):
    data = np.random.default_rng(m)
    for seed in range(10):
        gates, probes = data.random(740) < 0.3, data.integers(0, 4, 740)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_matches_reference(gates, probes, m, rng, ref_rng)


def test_raw_exploration_costs_o_n_at_a_huge_batch_size():
    # Once the pool is empty, the reference loop draws one uniform per slot
    # left; `_explore` skips them in one advance. Its end state is the
    # reference's at a batch size that empties the pool, advanced by the
    # slots beyond it, with the same buffered value.
    pool = least_probed_quartile(np.arange(74) % 5).tolist()
    slots, m0 = 10**9, 400
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_explore(pool.copy(), m0, 74, ref_rng)
        assert sorted(want) == sorted(pool)
        expected = ref_rng.bit_generator.state
        ref_rng.bit_generator.advance(slots - m0)
        expected["state"] = ref_rng.bit_generator.state["state"]
        start = time.perf_counter()
        assert _explore(pool.copy(), slots, 74, rng) == want
        assert time.perf_counter() - start < 1.0
        assert rng.bit_generator.state == expected
        batch, exploration = sample_audit_batch(np.zeros(74, bool), np.arange(74) % 5, SamplerParams(slots), rng)
        assert len(batch) == 74 and sorted(exploration) == sorted(pool)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import SamplerParams, checks, coverage_lower_bound, sample_audit_batch
from auditloop.errors import InvalidParams
from auditloop.sampler import ACTIVE_FRACTION, EPSILON, least_probed_quartile, stratified_fill


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


def reference_sample_audit_batch(gates, probe_counts, params, rng):
    """`sample_audit_batch` in plain Python: the quartile sorted on (probe
    count, id), then list pools for the stratified draws."""
    n = len(gates)
    target = min(params.batch_size, n)
    pool = sorted(range(n), key=lambda i: (probe_counts[i], i))[: max(1, -(-n // 4))]
    chosen = []
    for _ in range(params.batch_size):
        if len(chosen) >= target:
            break
        if rng.random() < EPSILON and pool:
            chosen.append(pool.pop(int(rng.integers(len(pool)))))
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

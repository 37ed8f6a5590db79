import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import OracleSpec, SyntheticOracle, TraceRecordingOracle, TrainingState, replay_trace
from auditloop.allocator import gate_cost
from auditloop.errors import (
    InactiveUnit,
    InvalidParams,
    LengthMismatch,
    MalformedTrace,
    TooLarge,
    UnknownConfiguration,
)
from auditloop.driver import default_run_config
from auditloop.oracle import SEED_BLOCK, KeyedStreams, _seed_states


def simple_spec(**overrides):
    base = dict(
        base_score=0.5,
        mu_inf=(0.1, 0.2, -0.05),
        kappa=(100.0, 200.0, 150.0),
        sigma_val=0.0,
        seed=7,
    )
    base.update(overrides)
    return OracleSpec(**base)


def trained(oracle, gates, steps):
    state = oracle.fresh_state()
    return oracle.train_step(state, gates, steps)


def test_spec_validation():
    with pytest.raises(InvalidParams):
        simple_spec(base_score=1.5)
    with pytest.raises(InvalidParams):
        simple_spec(kappa=(1.0, -1.0, 1.0))
    with pytest.raises(InvalidParams):
        simple_spec(groups=((0, 0),), gammas=(0.5,))
    with pytest.raises(InvalidParams):
        simple_spec(groups=((0, 1),), gammas=(1.5,))
    with pytest.raises(InvalidParams):
        simple_spec(groups=((0,), (1,)), gammas=(0.5,))


def test_empty_configuration_returns_base():
    oracle = SyntheticOracle(simple_spec())
    state = oracle.fresh_state()
    assert oracle.evaluate(state, [False, False, False], call_index=0) == 0.5
    assert oracle.true_value(state, [False, False, False]) == 0.5


def test_noise_free_determinism():
    oracle = SyntheticOracle(simple_spec())
    state = trained(oracle, np.array([True, True, False]), 500)
    a = oracle.evaluate(state, [True, True, False], call_index=0)
    b = oracle.evaluate(state, [True, True, False], call_index=1)
    assert a == b


def test_additive_limit_fully_trained():
    oracle = SyntheticOracle(simple_spec())
    state = trained(oracle, np.ones(3, bool), 1_000_000)
    v = oracle.true_value(state, [True, True, False])
    assert math.isclose(v, 0.5 + 0.1 + 0.2, abs_tol=1e-6)


def test_train_step_accumulates_only_active():
    oracle = SyntheticOracle(simple_spec())
    state = oracle.fresh_state()
    gates = np.array([True, False, True])
    for _ in range(3):
        state = oracle.train_step(state, gates, 200)
    assert list(state.steps) == [600.0, 0.0, 600.0]
    with pytest.raises(InvalidParams):
        oracle.train_step(state, gates, 0)


def test_untrained_unit_contributes_nothing_without_floor():
    oracle = SyntheticOracle(simple_spec())
    state = oracle.fresh_state()
    assert oracle.true_value(state, [True, True, True]) == 0.5


def test_warm_floor_gives_untrained_signal():
    oracle = SyntheticOracle(simple_spec(warm_floor=0.1))
    state = oracle.fresh_state()
    assert math.isclose(oracle.true_value(state, [True, False, False]), 0.5 + 0.01)


def test_true_marginal_additive_case():
    oracle = SyntheticOracle(simple_spec())
    state = trained(oracle, np.array([True, True, False]), 300)
    expected = 0.1 * (1 - math.exp(-300 / 100))
    assert math.isclose(oracle.true_marginal(state, [True, True, False], 0), expected, abs_tol=1e-12)
    with pytest.raises(InactiveUnit):
        oracle.true_marginal(state, [True, True, False], 2)


def test_null_unit_zero_marginal():
    oracle = SyntheticOracle(simple_spec(mu_inf=(0.0, 0.2, -0.05)))
    state = trained(oracle, np.ones(3, bool), 1000)
    assert oracle.true_marginal(state, np.ones(3, bool), 0) == 0.0


def test_redundant_group_diminishing_returns():
    spec = simple_spec(mu_inf=(0.1, 0.1, 0.0), groups=((0, 1),), gammas=(0.5,))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 1_000_000)
    first_alone = oracle.true_value(state, [True, False, False]) - 0.5
    both = oracle.true_value(state, [True, True, False]) - 0.5
    second_marginal = both - first_alone
    assert second_marginal < first_alone
    assert oracle.true_marginal(state, [True, True, False], 1) == pytest.approx(second_marginal)


def test_group_capacity_realized_when_full():
    spec = simple_spec(mu_inf=(0.1, 0.1, 0.0), groups=((0, 1),), gammas=(0.5,))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 10_000_000)
    assert math.isclose(oracle.true_value(state, [True, True, False]), 0.5 + 0.2, abs_tol=1e-4)


def test_submodularity_within_group():
    spec = simple_spec(
        mu_inf=(0.05, 0.08, 0.06), kappa=(100.0, 100.0, 100.0),
        groups=((0, 1, 2),), gammas=(0.6,),
    )
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 5000)
    # marginal of unit 2 on {0} >= marginal of unit 2 on {0, 1}
    small = oracle.true_value(state, [True, False, True]) - oracle.true_value(state, [True, False, False])
    large = oracle.true_value(state, [True, True, True]) - oracle.true_value(state, [True, True, False])
    assert small >= large - 1e-12


def test_monotone_learning():
    oracle = SyntheticOracle(simple_spec(mu_inf=(0.1, 0.2, 0.0)))
    gates = np.array([True, True, False])
    state = oracle.fresh_state()
    prev = oracle.true_value(state, gates)
    for _ in range(5):
        state = oracle.train_step(state, gates, 100)
        cur = oracle.true_value(state, gates)
        assert cur >= prev - 1e-12
        prev = cur


def test_noise_seeded_by_call_index():
    spec = simple_spec(sigma_val=0.05)
    a = SyntheticOracle(spec)
    b = SyntheticOracle(spec)
    state = a.fresh_state()
    gates = [True, False, False]
    assert a.evaluate(state, gates, call_index=3) == b.evaluate(state, gates, call_index=3)
    assert a.evaluate(state, gates, call_index=4) != b.evaluate(state, gates, call_index=5)


@pytest.mark.parametrize("prefix", [(), (7, 0x0E11), (2**32, 2**32 - 1)])
@pytest.mark.parametrize("key", [0, 2**32 - 1, 2**32, 2**64 + 3])
def test_keyed_streams_are_default_rng_streams(prefix, key):
    # SeedSequence splits every int key into 32-bit words; the helper must
    # split them the same way at each word boundary.
    ours, reference = KeyedStreams(*prefix)(key), np.random.default_rng(list(prefix) + [key])
    assert np.array_equal(ours.standard_normal(8), reference.standard_normal(8))
    assert np.array_equal(ours.permutation(20), reference.permutation(20))
    assert np.array_equal(ours.uniform(-1.0, 1.0, 5), reference.uniform(-1.0, 1.0, 5))


def test_keyed_streams_reject_negative_keys():
    with pytest.raises(InvalidParams):
        KeyedStreams(1)(-1)


@pytest.mark.parametrize("n_words", range(1, 7))
def test_seed_states_equal_seed_sequence(n_words):
    # Rows shorter than the 4-word pool hash zeros; longer ones mix the
    # extra words into the pool.
    rng = np.random.default_rng(n_words)
    rows = rng.integers(0, 2**32, (40, n_words), dtype=np.uint64)
    rows[0], rows[1] = 0, 2**32 - 1
    want = np.array([np.random.SeedSequence(row).generate_state(4, np.uint64) for row in rows])
    assert np.array_equal(_seed_states(rows), want)


@pytest.mark.parametrize("prefix", [(), (7, 0x0E11), (2**32, 2**32 - 1)])
def test_keyed_streams_out_of_order_across_blocks_and_words(prefix):
    # One instance keeps one block; each query below leaves the cached one
    # or crosses into a key with more 32-bit words.
    streams = KeyedStreams(*prefix)
    for key in (SEED_BLOCK - 1, SEED_BLOCK, 0, 2**32 - 1, 2**32, 2**64 + 3, 5):
        ours, reference = streams(key), np.random.default_rng([*prefix, key])
        assert np.array_equal(ours.standard_normal(8), reference.standard_normal(8))
        assert np.array_equal(ours.permutation(20), reference.permutation(20))


def test_noise_calibration():
    # sample variance over 10^4 draws within 5% of sigma^2 (clamp never binds here)
    spec = simple_spec(sigma_val=0.04)
    oracle = SyntheticOracle(spec)
    state = oracle.fresh_state()
    draws = np.array([oracle.evaluate(state, [False] * 3, call_index=i) for i in range(10_000)])
    assert abs(draws.var() - 0.04**2) < 0.05 * 0.04**2


def test_drift_walk_is_seeded_and_bounded():
    spec = simple_spec(drift=0.01)
    a, b = SyntheticOracle(spec), SyntheticOracle(spec)
    sa, sb = a.fresh_state(), b.fresh_state()
    for _ in range(10):
        sa = a.train_step(sa, [True, False, False], 10)
        sb = b.train_step(sb, [True, False, False], 10)
    assert np.array_equal(sa.drift_offsets, sb.drift_offsets)
    assert np.abs(sa.drift_offsets).max() <= 10 * 0.01 + 1e-12


def test_length_mismatch():
    oracle = SyntheticOracle(simple_spec())
    with pytest.raises(LengthMismatch):
        oracle.true_value(oracle.fresh_state(), [True, False])


# -- exhaustive optimum -------------------------------------------------------


def test_oracle_optimum_additive_reduces_to_knapsack():
    # over the 8 subsets at budget 2e-3: {1} scores 0.20, beating {0, 2}'s 0.15
    spec = simple_spec(mu_inf=(0.10, 0.20, 0.05), kappa=(1.0, 1.0, 1.0))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 10_000)
    costs = np.array([1e-3, 2e-3, 1e-3])
    gates, value = oracle.oracle_optimum(state, costs, p_max=2e-3)
    assert list(gates) == [False, True, False]
    assert math.isclose(value, 0.5 + 0.20, abs_tol=1e-9)
    # shrinking the budget below unit 1's cost flips the optimum to {0}
    gates2, value2 = oracle.oracle_optimum(state, costs, p_max=1e-3)
    assert list(gates2) == [True, False, False]
    assert math.isclose(value2, 0.5 + 0.10, abs_tol=1e-9)


def test_oracle_optimum_all_harmful_selects_nothing():
    spec = simple_spec(mu_inf=(-0.1, -0.2, -0.05))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 10_000)
    gates, value = oracle.oracle_optimum(state, np.full(3, 1e-3), p_max=1.0)
    assert not gates.any()
    assert value == 0.5


def test_oracle_optimum_redundancy_prefers_outsider():
    # budget affords both twins (group value 0.2, second marginal 0.0586) but a
    # cheaper outsider worth 0.08 beats the second twin: enumeration picks
    # one twin + outsider (0.7214 > 0.70)
    spec = simple_spec(
        mu_inf=(0.1, 0.1, 0.08),
        kappa=(1.0, 1.0, 1.0),
        groups=((0, 1),),
        gammas=(0.5,),
    )
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 10_000)
    costs = np.array([1e-3, 1e-3, 0.5e-3])
    gates, value = oracle.oracle_optimum(state, costs, p_max=2e-3)
    assert gates[2]
    assert gates[:2].sum() == 1
    assert math.isclose(value, 0.5 + math.sqrt(0.2 * 0.1) + 0.08, abs_tol=1e-6)


def test_oracle_optimum_decides_feasibility_by_gate_cost():
    # as in the allocator: 8 x 0.1 sums to 0.8 > p_max under the budget check
    n = 8
    spec = OracleSpec(base_score=0.0, mu_inf=(0.01,) * n, kappa=(1.0,) * n)
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(n, bool), 10_000)
    costs = np.full(n, 0.1)
    gates, _ = oracle.oracle_optimum(state, costs, p_max=0.7999999999999999)
    assert gates.sum() == 7
    assert gate_cost(gates, costs) <= 0.7999999999999999


def test_oracle_optimum_value_is_the_true_value_of_its_gates():
    # The subset values use `np.power`, `true_value` Python's `**`; on some
    # hosts they differ in the last bit, so the value returned is recomputed.
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        perm = rng.permutation(n)
        split = int(rng.integers(1, n))
        spec = OracleSpec(
            base_score=float(rng.uniform(0.0, 0.5)),
            mu_inf=tuple(rng.uniform(-0.05, 0.2, n)),
            kappa=tuple(rng.uniform(50.0, 500.0, n)),
            groups=(tuple(sorted(perm[:split].tolist())), tuple(sorted(perm[split:].tolist()))),
            gammas=tuple(rng.uniform(0.2, 0.95, 2)),
        )
        oracle = SyntheticOracle(spec)
        state = trained(oracle, np.ones(n, bool), int(rng.integers(1, 1000)))
        costs = rng.uniform(1e-4, 1e-3, n)
        gates, value = oracle.oracle_optimum(state, costs, float(rng.uniform(costs.min(), costs.sum())))
        assert value == oracle.true_value(state, gates)


def test_oracle_optimum_cap():
    n = 21
    spec = OracleSpec(base_score=0.5, mu_inf=(0.01,) * n, kappa=(1.0,) * n)
    oracle = SyntheticOracle(spec)
    with pytest.raises(TooLarge):
        oracle.oracle_optimum(oracle.fresh_state(), np.full(n, 1e-3), 1.0)


# -- trace record / replay ----------------------------------------------------


def test_trace_lookup_and_exhaustion(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"gates": "010", "score": 0.8, "noise_seed": 0}) + "\n")
    oracle = replay_trace(path)
    state = oracle.fresh_state()
    assert oracle.evaluate_toggles(state, [False, True, False], [], 0) == (0.8, [])
    with pytest.raises(UnknownConfiguration, match="past the 1 trace records"):
        oracle.evaluate_toggles(state, [False, True, False], [], 0)
    with pytest.raises(UnknownConfiguration, match="record 1: the queried gates differ"):
        replay_trace(path).evaluate_toggles(state, [True, False, False], [], 0)


def write_trace(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return path


def test_replay_rejects_a_call_index_other_than_the_recorded_one(tmp_path):
    path = write_trace(tmp_path / "trace.jsonl", [
        {"gates": "010", "score": 0.8, "noise_seed": 0},
        {"gates": "010", "score": 0.7, "noise_seed": 1},
    ])
    oracle = replay_trace(path)
    state = oracle.fresh_state()
    assert oracle.evaluate_toggles(state, [False, True, False], [], 0) == (0.8, [])
    with pytest.raises(UnknownConfiguration, match="record 2: recorded noise_seed 1, queried 5"):
        oracle.evaluate_toggles(state, [False, True, False], [], 5)
    with pytest.raises(UnknownConfiguration, match="record 1: recorded noise_seed 0, queried -1"):
        replay_trace(path).true_value(state, [False, True, False])


def test_replay_rejects_queries_out_of_order(tmp_path):
    # Both queries are in the trace, but the second record is asked for first.
    path = write_trace(tmp_path / "trace.jsonl", [
        {"gates": "010", "score": 0.8, "noise_seed": 0},
        {"gates": "110", "score": 0.6, "noise_seed": -1},
        {"gates": "011", "score": 0.7, "noise_seed": 1},
    ])
    oracle = replay_trace(path)
    state = oracle.fresh_state()
    with pytest.raises(UnknownConfiguration, match="record 1"):
        oracle.true_value(state, [True, True, False])
    oracle = replay_trace(path)
    assert oracle.evaluate_toggles(state, [False, True, False], [], 0) == (0.8, [])
    with pytest.raises(UnknownConfiguration, match="record 2"):
        oracle.evaluate_toggles(state, [False, True, True], [], 1)


def test_malformed_traces(tmp_path):
    bad_json = tmp_path / "a.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(MalformedTrace):
        replay_trace(bad_json)
    bad_gates = tmp_path / "b.jsonl"
    bad_gates.write_text(json.dumps({"gates": "01x", "score": 0.5, "noise_seed": 0}) + "\n")
    with pytest.raises(MalformedTrace):
        replay_trace(bad_gates)
    empty = tmp_path / "c.jsonl"
    empty.write_text("")
    with pytest.raises(MalformedTrace):
        replay_trace(empty)
    inconsistent = tmp_path / "d.jsonl"
    inconsistent.write_text(
        json.dumps({"gates": "01", "score": 0.5, "noise_seed": 0}) + "\n"
        + json.dumps({"gates": "011", "score": 0.5, "noise_seed": 1}) + "\n"
    )
    with pytest.raises(MalformedTrace):
        replay_trace(inconsistent)


def test_record_then_replay_reproduces_scores(tmp_path):
    spec = simple_spec(sigma_val=0.03)
    inner = SyntheticOracle(spec)
    path = tmp_path / "trace.jsonl"
    recorded = []
    with TraceRecordingOracle(inner, path) as rec:
        state = rec.fresh_state()
        state = rec.train_step(state, [True, True, False], 100)
        for i in range(5):
            recorded.append(rec.evaluate_toggles(state, [True, True, False], [], i))
        recorded.append(rec.true_value(state, [True, True, False]))
    replayed = replay_trace(path)
    state2 = replayed.fresh_state()
    out = [replayed.evaluate_toggles(state2, [True, True, False], [], i) for i in range(5)]
    out.append(replayed.true_value(state2, [True, True, False]))
    assert out == recorded


# -- batched toggle audit --------------------------------------------------------


def per_call_toggles(oracle, state, gates, units, first_call_index):
    """The audit as separate `evaluate` calls: the full configuration, then
    each one-unit toggle, at consecutive call indices."""
    full = oracle.evaluate(state, gates, call_index=first_call_index)
    toggled = []
    for pos, unit in enumerate(units):
        flipped = np.array(gates, dtype=bool)
        flipped[unit] = not flipped[unit]
        toggled.append(oracle.evaluate(state, flipped, call_index=first_call_index + 1 + pos))
    return full, toggled


@st.composite
def toggle_cases(draw):
    """A random spec (one group of at least 8 members, so group sums take
    numpy's pairwise path), a trained state, gates and toggled units."""
    n = draw(st.integers(8, 24))
    perm = draw(st.permutations(range(n)))
    big = draw(st.integers(8, n))
    groups = [tuple(perm[:big])]
    rest = list(perm[big:])
    while rest:
        k = draw(st.integers(1, len(rest)))
        groups.append(tuple(rest[:k]))
        rest = rest[k:]
    listed = groups[: draw(st.integers(1, len(groups)))]  # the rest become implicit singletons
    unit_floats = st.floats(-0.2, 0.3, allow_nan=False, allow_infinity=False)
    spec = OracleSpec(
        base_score=draw(st.floats(0.0, 1.0)),
        mu_inf=draw(st.lists(unit_floats, min_size=n, max_size=n)),
        kappa=draw(st.lists(st.floats(10.0, 1000.0), min_size=n, max_size=n)),
        sigma_val=draw(st.sampled_from([0.0, 0.05])),
        groups=listed,
        gammas=draw(st.lists(st.floats(0.05, 1.0), min_size=len(listed), max_size=len(listed))),
        warm_floor=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    trained_gates = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    steps = draw(st.integers(1, 2000))
    gates = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        gates[list(groups[0])] = True
    units = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    first_call_index = draw(st.integers(0, 10**6))
    return spec, trained_gates, steps, gates, units, first_call_index


@settings(max_examples=150, deadline=None)
@given(toggle_cases())
def test_evaluate_toggles_matches_per_call_evaluate(case):
    spec, trained_gates, steps, gates, units, first_call_index = case
    batched, per_call = SyntheticOracle(spec), SyntheticOracle(spec)
    state = batched.train_step(batched.fresh_state(), trained_gates, steps)
    got = batched.evaluate_toggles(state, gates, units, first_call_index)
    want = per_call_toggles(per_call, state, gates, units, first_call_index)
    assert got == want  # bit for bit: float == on every score


def test_evaluate_toggles_matches_evaluate_on_the_default_groups():
    # The default space has redundancy groups of 12 units, past numpy's
    # 8-way unrolled summation; the call indices cross a seed-state block.
    spec = default_run_config(10, 3).oracle_spec
    assert max(len(g) for g in spec.groups) > 8
    batched, per_call = SyntheticOracle(spec), SyntheticOracle(spec)
    rng = np.random.default_rng(0)
    state = batched.train_step(batched.fresh_state(), rng.random(spec.n_units) < 0.5, 200)
    gates = rng.random(spec.n_units) < 0.3
    units = list(rng.permutation(spec.n_units))
    first = SEED_BLOCK - 30
    assert batched.evaluate_toggles(state, gates, units, first) == per_call_toggles(
        per_call, state, gates, units, first
    )


@pytest.mark.parametrize("base_score, mu, clamped", [(0.95, 0.2, 1.0), (0.05, -0.2, 0.0)])
@pytest.mark.parametrize("sigma_val", [0.0, 0.05])
def test_evaluate_toggles_matches_evaluate_where_totals_clamp(base_score, mu, clamped, sigma_val):
    spec = simple_spec(base_score=base_score, mu_inf=(mu, mu, 0.01), sigma_val=sigma_val)
    batched, per_call = SyntheticOracle(spec), SyntheticOracle(spec)
    state = batched.train_step(batched.fresh_state(), np.ones(3, bool), 5000)
    gates = np.array([True, False, False])
    units = [0, 1, 2, 1]
    got = batched.evaluate_toggles(state, gates, units, 11)
    assert got == per_call_toggles(per_call, state, gates, units, 11)
    assert batched.true_value(state, [True, True, False]) == clamped


def test_evaluate_toggles_with_no_units_is_one_evaluate():
    spec = simple_spec(sigma_val=0.05)
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), np.ones(3, bool), 300)
    gates = [True, False, True]
    assert oracle.evaluate_toggles(state, gates, [], 9) == (oracle.evaluate(state, gates, call_index=9), [])


def test_evaluate_toggles_checks_gate_length():
    oracle = SyntheticOracle(simple_spec())
    with pytest.raises(LengthMismatch):
        oracle.evaluate_toggles(oracle.fresh_state(), [True, False], [0], 0)


def test_trace_identical_through_toggles_and_per_call(tmp_path):
    spec = simple_spec(sigma_val=0.03, groups=((0, 1),), gammas=(0.5,))
    gates = np.array([True, False, True])
    units = [2, 0, 1]
    path = tmp_path / "trace.jsonl"
    with TraceRecordingOracle(SyntheticOracle(spec), path) as rec:
        state = rec.train_step(rec.fresh_state(), gates, 300)
        for first in (0, 4):
            rec.evaluate_toggles(state, gates, units, first)
            rec.true_value(state, gates)

    # The same records, built from per-call `evaluate` at the same indices.
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), gates, 300)
    expected = []
    for first in (0, 4):
        full, toggled = per_call_toggles(oracle, state, gates, units, first)
        expected.append({"gates": "101", "score": full, "noise_seed": first})
        for pos, (bits, score) in enumerate(zip(("100", "001", "111"), toggled)):
            expected.append({"gates": bits, "score": score, "noise_seed": first + 1 + pos})
        expected.append({"gates": "101", "score": oracle.true_value(state, gates), "noise_seed": -1})
    assert path.read_bytes() == write_trace(tmp_path / "expected.jsonl", expected).read_bytes()

    replayed = replay_trace(path)
    for first in (0, 4):
        assert replayed.evaluate_toggles(state, gates, units, first) == per_call_toggles(
            oracle, state, gates, units, first
        )
        assert replayed.true_value(state, gates) == oracle.true_value(state, gates)
    with pytest.raises(UnknownConfiguration, match="past the 10 trace records"):
        replayed.true_value(state, gates)

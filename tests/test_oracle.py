import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import OracleSpec, ReplayOracle, SyntheticOracle, TraceRecordingOracle, replay_trace
from auditloop.allocator import Budget, gate_cost
from auditloop.errors import (
    InvalidParams,
    LengthMismatch,
    MalformedTrace,
    TooLarge,
    UnknownConfiguration,
)
from auditloop.driver import default_run_config
from auditloop.oracle import SEED_BLOCK, KeyedStreams, _clamp, _seed_states


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


def true_marginal(oracle, state, gates, unit_id):
    """Noise-free value change from toggling an active unit off."""
    without = np.array(gates, dtype=bool)
    without[unit_id] = False
    return oracle.true_value(state, gates) - oracle.true_value(state, without)


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
    assert oracle.evaluate_toggles(state, [False, False, False], [], 0)[0] == 0.5
    assert oracle.true_value(state, [False, False, False]) == 0.5


def test_noise_free_determinism():
    oracle = SyntheticOracle(simple_spec())
    state = trained(oracle, np.array([True, True, False]), 500)
    a = oracle.evaluate_toggles(state, [True, True, False], [], 0)[0]
    b = oracle.evaluate_toggles(state, [True, True, False], [], 1)[0]
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
    assert list(state) == [600.0, 0.0, 600.0]
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
    assert math.isclose(true_marginal(oracle, state, [True, True, False], 0), expected, abs_tol=1e-12)


def test_null_unit_zero_marginal():
    oracle = SyntheticOracle(simple_spec(mu_inf=(0.0, 0.2, -0.05)))
    state = trained(oracle, np.ones(3, bool), 1000)
    assert true_marginal(oracle, state, np.ones(3, bool), 0) == 0.0


def test_redundant_group_diminishing_returns():
    spec = simple_spec(mu_inf=(0.1, 0.1, 0.0), groups=((0, 1),), gammas=(0.5,))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 1_000_000)
    first_alone = oracle.true_value(state, [True, False, False]) - 0.5
    both = oracle.true_value(state, [True, True, False]) - 0.5
    second_marginal = both - first_alone
    assert second_marginal < first_alone
    assert true_marginal(oracle, state, [True, True, False], 1) == pytest.approx(second_marginal)


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
    assert a.evaluate_toggles(state, gates, [], 3)[0] == b.evaluate_toggles(state, gates, [], 3)[0]
    assert a.evaluate_toggles(state, gates, [], 4)[0] != b.evaluate_toggles(state, gates, [], 5)[0]


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


@pytest.mark.parametrize("prefix", [(), (7, 0x0E11), (2**32, 2**32 - 1)])
@pytest.mark.parametrize(
    "first, count",
    [(5, 0), (5, 1), (SEED_BLOCK - 3, 7), (0, 2 * SEED_BLOCK + 1), (2**32 - 2, 4)],
    ids=["none", "one", "across-a-block", "three-blocks", "across-a-word"],
)
def test_batch_of_generators_equals_one_stream_per_key(prefix, first, count):
    streams = KeyedStreams(*prefix)
    streams(3 * SEED_BLOCK)  # leaves a block cached that the batch does not use
    want = [np.random.default_rng([*prefix, key]).standard_normal() for key in range(first, first + count)]
    assert [rng.standard_normal() for rng in streams.generators(first, count)] == want


def test_noise_calibration():
    # sample variance over 10^4 draws within 5% of sigma^2 (clamp never binds here)
    spec = simple_spec(sigma_val=0.04)
    oracle = SyntheticOracle(spec)
    state = oracle.fresh_state()
    draws = np.array([oracle.evaluate_toggles(state, [False] * 3, [], i)[0] for i in range(10_000)])
    assert abs(draws.var() - 0.04**2) < 0.05 * 0.04**2


def test_states_are_read_only_and_train_step_leaves_its_input_unchanged():
    # The value cache keys on the state object, so a state must not change in place.
    oracle = SyntheticOracle(simple_spec())
    fresh = oracle.fresh_state()
    state = oracle.train_step(fresh, [True, False, True], 200)
    assert list(fresh) == [0.0, 0.0, 0.0] and list(state) == [200.0, 0.0, 200.0]
    assert list(oracle.train_step(state, [False, True, False], 50)) == [200.0, 50.0, 200.0]
    assert list(state) == [200.0, 0.0, 200.0]
    for s in (fresh, state, ReplayOracle([], 3).fresh_state()):
        with pytest.raises(ValueError, match="read-only"):
            s[0] = 1.0


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
    gates, value = oracle.oracle_optimum(state, Budget.from_costs(costs, 2e-3))
    assert list(gates) == [False, True, False]
    assert math.isclose(value, 0.5 + 0.20, abs_tol=1e-9)
    # shrinking the budget below unit 1's cost flips the optimum to {0}
    gates2, value2 = oracle.oracle_optimum(state, Budget.from_costs(costs, 1e-3))
    assert list(gates2) == [True, False, False]
    assert math.isclose(value2, 0.5 + 0.10, abs_tol=1e-9)


def test_oracle_optimum_all_harmful_selects_nothing():
    spec = simple_spec(mu_inf=(-0.1, -0.2, -0.05))
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(3, bool), 10_000)
    gates, value = oracle.oracle_optimum(state, Budget.from_costs(np.full(3, 1e-3), 1.0))
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
    gates, value = oracle.oracle_optimum(state, Budget.from_costs(costs, 2e-3))
    assert gates[2]
    assert gates[:2].sum() == 1
    assert math.isclose(value, 0.5 + math.sqrt(0.2 * 0.1) + 0.08, abs_tol=1e-6)


def test_oracle_optimum_decides_feasibility_by_gate_cost():
    # as in the allocator: 8 x 0.1 sums past p_max at their exact value, and
    # to 0.8 > p_max in `gate_cost`
    n = 8
    spec = OracleSpec(base_score=0.0, mu_inf=(0.01,) * n, kappa=(1.0,) * n)
    oracle = SyntheticOracle(spec)
    state = trained(oracle, np.ones(n, bool), 10_000)
    costs = np.full(n, 0.1)
    gates, _ = oracle.oracle_optimum(state, Budget.from_costs(costs, 0.7999999999999999))
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
        budget = Budget.from_costs(costs, float(rng.uniform(costs.min(), costs.sum())))
        gates, value = oracle.oracle_optimum(state, budget)
        assert value == oracle.true_value(state, gates)


def test_oracle_optimum_cap():
    n = 21
    spec = OracleSpec(base_score=0.5, mu_inf=(0.01,) * n, kappa=(1.0,) * n)
    oracle = SyntheticOracle(spec)
    with pytest.raises(TooLarge):
        oracle.oracle_optimum(oracle.fresh_state(), Budget.from_costs(np.full(n, 1e-3), 1.0))


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


@pytest.mark.parametrize(
    "field, value",
    [("noise_seed", "0"), ("noise_seed", 0.7), ("noise_seed", True), ("noise_seed", -2),
     ("score", "0.448"), ("score", True), ("score", None), ("score", 10**400)],
    ids=["string-seed", "fractional-seed", "bool-seed", "seed-below-minus-1",
         "string-score", "bool-score", "null-score", "huge-integer-score"],
)
def test_trace_field_of_the_wrong_type_is_malformed_naming_the_line(tmp_path, field, value):
    path = write_trace(tmp_path / "trace.jsonl", [
        {"gates": "010", "score": 0.8, "noise_seed": 0},
        {"gates": "010", "score": 0.7, "noise_seed": 1} | {field: value},
    ])
    with pytest.raises(MalformedTrace, match=f"trace.jsonl:2: {field} must be"):
        replay_trace(path)


@pytest.mark.parametrize(
    "line, message",
    [('{"gates": "010", "noise_seed": 1, "score": 0.7, "extra": true}', "unknown trace record key 'extra'"),
     ('{"gates": "010", "noise_seed": 1}', "trace record key 'score' is missing"),
     ("7", "trace record must be a JSON object, not int")],
    ids=["extra-key", "missing-score", "non-object"],
)
def test_trace_line_other_than_one_record_is_malformed_naming_the_line_and_key(tmp_path, line, message):
    path = write_trace(tmp_path / "trace.jsonl", [{"gates": "010", "score": 0.8, "noise_seed": 0}])
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(MalformedTrace) as info:
        replay_trace(path)
    assert str(info.value) == f"{path}:2: {message}"


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


def left_to_right(x):
    return np.add.accumulate(x)[-1] if x.size else 0.0


def reference_true_value(spec, state, gates, group_sum=np.sum):
    """`SyntheticOracle.true_value` as a plain per-group loop: each group's
    active members summed in listed order by a 1-D numpy `.sum()` (or by
    `group_sum`), the
    concave step with Python's `**`, and the terms added from left to right
    onto the base score."""
    mu = np.array(spec.mu_inf) * np.maximum(1.0 - np.exp(-state / np.array(spec.kappa)), spec.warm_floor)
    gates = np.asarray(gates, dtype=bool)
    total = spec.base_score
    for group, gamma in spec.full_groups():
        members = np.array(group, dtype=np.intp)
        s = float(group_sum(mu[members[gates[members]]]))
        cap = float(np.maximum(np.array(spec.mu_inf)[members], 0.0).sum())
        total += s if gamma >= 1.0 or cap <= 0.0 or s <= 0.0 else cap ** (1.0 - gamma) * s**gamma
    return min(1.0, max(0.0, total))


def reference_evaluate(spec, state, gates, call_index):
    value = reference_true_value(spec, state, gates)
    if spec.sigma_val > 0.0:
        value += spec.sigma_val * np.random.default_rng([spec.seed, 0x0E11, call_index]).standard_normal()
    return min(1.0, max(0.0, value))


def per_call_toggles(spec, state, gates, units, first_call_index):
    """The audit as separate reference evaluations: the full configuration,
    then each one-unit toggle, at consecutive call indices."""
    full = reference_evaluate(spec, state, gates, first_call_index)
    toggled = []
    for pos, unit in enumerate(units):
        flipped = np.array(gates, dtype=bool)
        flipped[unit] = not flipped[unit]
        toggled.append(reference_evaluate(spec, state, flipped, first_call_index + 1 + pos))
    return full, toggled


@st.composite
def toggle_cases(draw, big_min=8):
    """A random spec (one group of at least `big_min` >= 8 members, so group
    sums take numpy's pairwise path), a trained state, gates and toggled units."""
    n = draw(st.integers(big_min, 24))
    perm = draw(st.permutations(range(n)))
    big = draw(st.integers(big_min, n))
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
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), trained_gates, steps)
    got = oracle.evaluate_toggles(state, gates, units, first_call_index)
    assert got == per_call_toggles(spec, state, gates, units, first_call_index)  # bit for bit
    assert oracle.true_value(state, gates) == reference_true_value(spec, state, gates)


@st.composite
def value_query_cases(draw):
    """An audit from `toggle_cases` with a group of at least 9 members and a
    base score often at an end of [0, 1], so totals clamp; then the gates of
    two value queries, each differing from the audited ones in random units
    (the first may switch the big group on whole), and whether a query on
    another state comes between them."""
    spec, trained_gates, steps, gates, units, first_call_index = draw(toggle_cases(big_min=9))
    spec = replace(spec, base_score=draw(st.sampled_from([0.0, 1.0, spec.base_score])))
    queries = []
    for _ in range(2):
        query = gates.copy()
        query[sorted(draw(st.sets(st.integers(0, spec.n_units - 1))))] ^= True
        queries.append(query)
    if draw(st.booleans()):
        queries[0][list(spec.groups[0])] = True
    return spec, trained_gates, steps, gates, units, first_call_index, queries, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(value_query_cases())
def test_value_queries_after_an_audit_match_the_reference(case):
    # The first query rescores the groups it changed against the audit's
    # pass, the second against the first query, unless a query on another
    # state came between them.
    spec, trained_gates, steps, gates, units, first_call_index, (g2, g3), between = case
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), trained_gates, steps)
    oracle.evaluate_toggles(state, gates, units, first_call_index)
    assert oracle.true_value(state, g2) == reference_true_value(spec, state, g2)  # bit for bit
    if between:
        other = oracle.train_step(state, ~g2, steps)
        assert oracle.true_value(other, g2) == reference_true_value(spec, other, g2)
    assert oracle.true_value(state, g3) == reference_true_value(spec, state, g3)


def test_evaluate_toggles_matches_evaluate_on_the_default_groups():
    # The default space has redundancy groups of 12 units, past numpy's
    # 8-way unrolled summation; the call indices cross a seed-state block.
    spec = default_run_config(10, 3).oracle_spec
    oracle = SyntheticOracle(spec)
    rng = np.random.default_rng(0)
    state = oracle.train_step(oracle.fresh_state(), rng.random(spec.n_units) < 0.5, 200)
    gates = rng.random(spec.n_units) < 0.3
    units = list(rng.permutation(spec.n_units))
    first = SEED_BLOCK - 30
    want = per_call_toggles(spec, state, gates, units, first)
    assert oracle.evaluate_toggles(state, gates, units, first) == want
    # The random gates above leave fewer than 8 members of any group on,
    # where the pairwise sum is the left-to-right one. Every member of the 12-unit
    # groups on, after 1,000 steps of every unit, is a case where the two
    # orders give different scores.
    state = oracle.train_step(oracle.fresh_state(), np.ones(spec.n_units, bool), 1000)
    gates = np.zeros(spec.n_units, dtype=bool)
    gates[[i for g in spec.groups if len(g) > 8 for i in g]] = True
    assert reference_true_value(spec, state, gates) != reference_true_value(spec, state, gates, left_to_right)
    want = per_call_toggles(spec, state, gates, units, first)
    assert oracle.evaluate_toggles(state, gates, units, first) == want


@pytest.mark.parametrize("base_score, mu, clamped", [(0.95, 0.2, 1.0), (0.05, -0.2, 0.0)])
@pytest.mark.parametrize("sigma_val", [0.0, 0.05])
def test_evaluate_toggles_matches_evaluate_where_totals_clamp(base_score, mu, clamped, sigma_val):
    spec = simple_spec(base_score=base_score, mu_inf=(mu, mu, 0.01), sigma_val=sigma_val)
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), np.ones(3, bool), 5000)
    gates = np.array([True, False, False])
    units = [0, 1, 2, 1]
    assert oracle.evaluate_toggles(state, gates, units, 11) == per_call_toggles(spec, state, gates, units, 11)
    assert oracle.true_value(state, [True, True, False]) == clamped


@pytest.mark.parametrize("k", [*range(1, 17), 40, 129])
def test_row_sums_add_as_one_dimensional_sums(k):
    # `_terms` sums the rows with k active members as one (rows, k) block;
    # that is bit-identical to the per-group 1-D sums only if numpy adds each
    # row of a C-contiguous block in the order it adds a 1-D array.
    rng = np.random.default_rng(k)
    for n_rows in (1, 2, 7, 64, 1000):
        x = rng.standard_normal((n_rows, k)) * 10.0 ** rng.uniform(-12.0, 12.0, (n_rows, k))
        want = np.array([row.sum() for row in x])
        assert np.array_equal(x.sum(axis=1), want), (
            f"numpy {np.__version__} sums rows of {k} differently from 1-D arrays ({n_rows} rows)"
        )


def memo_case():
    spec = default_run_config(10, 3).oracle_spec
    oracle = SyntheticOracle(spec)
    rng = np.random.default_rng(5)
    first = oracle.train_step(oracle.fresh_state(), rng.random(spec.n_units) < 0.5, 200)
    second = oracle.train_step(first, rng.random(spec.n_units) < 0.5, 300)
    gates = [rng.random(spec.n_units) < 0.3 for _ in range(2)]
    return spec, oracle, (first, second), gates


def test_true_value_memo_with_interleaved_states_and_gates():
    spec, oracle, states, gates = memo_case()
    units = [0, 13, 40]
    for s, g, t, h in [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0), (0, 0, 1, 1)]:
        oracle.evaluate_toggles(states[s], gates[g], units, 0)
        assert oracle.true_value(states[t], gates[h]) == reference_true_value(spec, states[t], gates[h])
        assert oracle.true_value(states[s], gates[g]) == reference_true_value(spec, states[s], gates[g])


def test_true_value_memo_after_the_caller_changes_its_gates_in_place():
    spec, oracle, (state, _), (gates, _) = memo_case()
    oracle.evaluate_toggles(state, gates, [1, 2], 0)
    gates[[0, 12, 30]] = ~gates[[0, 12, 30]]
    assert oracle.true_value(state, gates) == reference_true_value(spec, state, gates)


def test_true_value_before_any_evaluate_toggles():
    spec, oracle, (state, _), (gates, _) = memo_case()
    assert oracle.true_value(state, gates) == reference_true_value(spec, state, gates)


def test_evaluate_toggles_with_no_units_is_one_evaluate():
    spec = simple_spec(sigma_val=0.05)
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), np.ones(3, bool), 300)
    gates = [True, False, True]
    assert oracle.evaluate_toggles(state, gates, [], 9) == (reference_evaluate(spec, state, gates, 9), [])


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

    # The same records, built from reference evaluations at the same indices.
    oracle = SyntheticOracle(spec)
    state = oracle.train_step(oracle.fresh_state(), gates, 300)
    expected = []
    for first in (0, 4):
        full, toggled = per_call_toggles(spec, state, gates, units, first)
        expected.append({"gates": "101", "score": full, "noise_seed": first})
        for pos, (bits, score) in enumerate(zip(("100", "001", "111"), toggled)):
            expected.append({"gates": bits, "score": score, "noise_seed": first + 1 + pos})
        expected.append({"gates": "101", "score": oracle.true_value(state, gates), "noise_seed": -1})
    assert path.read_bytes() == write_trace(tmp_path / "expected.jsonl", expected).read_bytes()

    replayed = replay_trace(path)
    for first in (0, 4):
        assert replayed.evaluate_toggles(state, gates, units, first) == per_call_toggles(
            spec, state, gates, units, first
        )
        assert replayed.true_value(state, gates) == oracle.true_value(state, gates)
    with pytest.raises(UnknownConfiguration, match="past the 10 trace records"):
        replayed.true_value(state, gates)


class ConstantOracle:
    """An inner oracle that answers every query with one score."""

    n_units = 4

    def __init__(self, score):
        self.score = score

    def evaluate_toggles(self, state, gates, units, first_call_index):
        return self.score, [self.score] * len(units)

    def true_value(self, state, gates):
        return self.score


@pytest.mark.parametrize("call_index", [-1, 0, 2**40])
@pytest.mark.parametrize(
    "score", [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16, np.float64(0.5), 1],
    ids=["nan", "inf", "-inf", "-0.0", "5e-324", "0.1", "1e16", "np.float64", "int"],
)
def test_trace_lines_are_json_dumps_for_every_score_type(tmp_path, score, call_index):
    gates, units = np.array([True, False, False, True]), [3, 0, 2]
    path = tmp_path / "trace.jsonl"
    with TraceRecordingOracle(ConstantOracle(score), path) as rec:
        rec.evaluate_toggles(None, gates, units, call_index)
        rec.true_value(None, gates)
    queries = [("1001", call_index), ("1000", call_index + 1), ("0001", call_index + 2),
               ("1011", call_index + 3), ("1001", -1)]
    expected = "".join(
        json.dumps({"gates": bits, "score": score, "noise_seed": seed}, sort_keys=True) + "\n"
        for bits, seed in queries
    )
    assert path.read_text() == expected

    replayed = replay_trace(path)
    full, toggled = replayed.evaluate_toggles(None, gates, units, call_index)
    served = [full, *toggled, replayed.true_value(None, gates)]
    if math.isnan(score):
        assert all(math.isnan(s) for s in served)
    else:
        assert served == [float(score)] * 5


def test_audit_clamp_is_the_python_clamp_bit_for_bit():
    # `evaluate_toggles` clamps its noisy totals as one array; each must equal
    # `min(1.0, max(0.0, v))`, sign bit included: NaN and -0.0 give +0.0.
    values = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
              0.5, 0.25, 5e-324, -5e-324, math.nextafter(0.0, -1.0), 2.0, -3.0]
    got = _clamp(np.array(values)).tolist()
    want = [min(1.0, max(0.0, v)) for v in values]
    assert [(g, math.copysign(1.0, g)) for g in got] == [(w, math.copysign(1.0, w)) for w in want]


@pytest.mark.parametrize("sigma_val", [0.0, 0.05])
def test_scores_are_python_floats(sigma_val):
    # The trace writer takes its `repr` path only when `type(score) is float`.
    oracle = SyntheticOracle(simple_spec(sigma_val=sigma_val))
    state = oracle.train_step(oracle.fresh_state(), np.ones(3, bool), 300)
    full, toggled = oracle.evaluate_toggles(state, [True, False, True], [0, 1, 2], 4)
    assert [type(v) for v in (full, *toggled)] == [float] * 4
    # The cached pass's gates, a value query that rescores one group, and a full pass.
    for value in (oracle.true_value(state, [True, False, True]), oracle.true_value(state, [True, True, True]),
                  oracle.true_value(oracle.fresh_state(), [True, True, True])):
        assert type(value) is float

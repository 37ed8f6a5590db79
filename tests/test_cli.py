import contextlib
import copy
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import cli
from auditloop.cli import main
from auditloop.driver import DIAGNOSTIC_COLUMNS
from auditloop.oracle import SyntheticOracle, TraceRecordingOracle


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "space": {
            "backbone": {"layers": 1, "hidden_dims": [16], "param_count": 200_000},
            "templates": [
                {"family": "LoRA", "topology": t, "size": r, "slot": "Attention"}
                for t in ("SA", "PA")
                for r in (2, 4, 8)
            ],
        },
        "oracle": {
            "kind": "synthetic",
            "base_score": 0.4,
            "mu_inf": [0.05, 0.03, 0.06, -0.01, 0.04, 0.02],
            "kappa": [200.0, 300.0, 250.0, 150.0, 220.0, 180.0],
            "sigma_val": 0.02,
            "warm_floor": 0.3,
            "seed": 9,
        },
        "sampler": {"batch_size": 3},
        "allocator": {"p_max": 0.002, "mu_eff": 0.02},
        "cycles": 12,
        "steps_per_cycle": 50,
        "refinetune_steps": 1000,
        "run_seed": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_three_outputs(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
    assert (out / "report.json").exists()
    assert (out / "events.jsonl").exists()
    assert (out / "diagnostics.csv").exists()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join(DIAGNOSTIC_COLUMNS)


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_bad_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


BACKBONE = {"layers": 1, "hidden_dims": [16], "param_count": 200_000}
UNIT_5 = {"id": 5, "family": "LoRA", "topology": "SA", "size": 2, "layer": 0,
          "slot": "Attention", "hidden_dim": 16, "cost": 0.0003}
NAN, INF = float("nan"), float("inf")
# A six-unit space with a synthetic oracle over it.
SMALL = {
    "cycles": 2,
    "steps_per_cycle": 10,
    "space": {"backbone": BACKBONE, "templates": [
        {"family": "LoRA", "topology": t, "size": r, "slot": "Attention"} for t in ("SA", "PA") for r in (2, 4, 8)
    ]},
    "oracle": {"kind": "synthetic", "base_score": 0.5, "mu_inf": [0.05] * 6, "kappa": [200.0] * 6,
               "sigma_val": 0.02, "seed": 9},
}


def small_with_oracle(**fields):
    return SMALL | {"oracle": SMALL["oracle"] | fields}


def set_path(doc, path, value):
    """Copy of `doc` with the entry at `path` (dict keys and list indices,
    missing dicts created) set to `value`."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return doc


def with_space(*path, value):
    """A short run over a small space with one space field replaced: a
    "units" path edits a dumped one-unit space, any other path the
    six-template schema."""
    space = {"backbone": BACKBONE, "units": [UNIT_5 | {"id": 0}]} if path[0] == "units" else SMALL["space"]
    return set_path({"cycles": 2, "steps_per_cycle": 10, "space": space}, ("space",) + path, value)


@pytest.mark.parametrize(
    "doc",
    [
        {"cycles": "x", "steps_per_cycle": 10},
        {"cycles": 2, "steps_per_cycle": 10, "oracle": [1]},
        [1, 2],
        {"cycles": 2, "steps_per_cycle": 10, "shots": 0},
        {"cycles": 2, "steps_per_cycle": 10, "shots": -1},
        {"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "templates": [
            {"family": "LoRA", "topology": "SA", "size": 2, "slot": "Norm"}]}},
        {"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "templates": []}},
        {"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "units": [UNIT_5]}},
        {"cycles": 2, "steps_per_cycle": 10, "window": 7},
        {"cycles": 2, "steps_per_cycle": 10, "window": 2},
        {"cycles": 2, "steps_per_cycle": 10, "window": 3.5},
        {"cycles": 2.5, "steps_per_cycle": 10},
        {"cycles": 2, "steps_per_cycle": 10, "run_seed": -1},
        {"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "seed": -1}},
        small_with_oracle(seed=-1),
        {"cycles": 2, "steps_per_cycle": 10, "sampler": {"batch_size": 2.5}},
        small_with_oracle(drift=INF),
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"mu_eff": NAN}},
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"mu_eff": INF}},
        {"cycles": 2, "steps_per_cycle": 10, "fsm": {"tau_act": 2.5}},
        small_with_oracle(kappa=[NAN] + [200.0] * 5),
        small_with_oracle(kappa=[INF] + [200.0] * 5),
        small_with_oracle(mu_inf=[NAN] + [0.05] * 5),
        small_with_oracle(sigma_val=INF),
        {"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "units": [
            UNIT_5 | {"id": 0, "cost": NAN}]}},
        {"cycles": 2, "steps_per_cycle": 10, "smoothing": {"lambda_s": NAN}},
        with_space("backbone", "layers", value=1.7),
        with_space("backbone", "hidden_dims", 0, value=16.9),
        with_space("backbone", "param_count", value=200_000.5),
        with_space("templates", 0, "size", value=2.9),
        with_space("units", 0, "id", value=0.5),
        with_space("units", 0, "size", value=2.9),
        with_space("units", 0, "layer", value=0.5),
        with_space("units", 0, "hidden_dim", value=16.9),
        with_space("sapa_shared_weights", value="false"),
        with_space("units", 0, "gate", value="false"),
        with_space("units", 0, "cost", value="0.0003"),
    ],
    ids=[
        "non-integer-cycles", "non-object-oracle", "top-level-array", "zero-shots",
        "negative-shots", "lora-on-norm", "no-templates", "unit-id-gap", "window-7", "window-2",
        "fractional-window", "fractional-cycles", "negative-run-seed", "negative-default-oracle-seed",
        "negative-oracle-seed", "fractional-batch-size", "infinite-drift", "nan-mu-eff", "infinite-mu-eff",
        "fractional-tau-act", "nan-kappa", "infinite-kappa", "nan-mu-inf", "infinite-sigma-val",
        "nan-unit-cost", "nan-lambda-s", "fractional-layers", "fractional-hidden-dim",
        "fractional-param-count", "fractional-template-size", "fractional-unit-id", "fractional-unit-size",
        "fractional-unit-layer", "fractional-unit-hidden-dim", "string-sapa-flag", "string-unit-gate",
        "string-unit-cost",
    ],
)
@pytest.mark.parametrize("seed", [None, "3"])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, doc, seed):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["run", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]
    assert main(argv + (["--seed", seed] if seed else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_seed_flag_exits_2_with_one_line(tmp_path, capsys, config_path):
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--quiet", "--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Any value, well-formed or not, for one field of a small valid document.
FUZZ_FIELDS = [
    ("cycles",), ("steps_per_cycle",), ("refinetune_steps",), ("shots",), ("run_seed",), ("window",),
    ("sampler", "batch_size"), ("sampler", "active_fraction"), ("sampler", "epsilon"),
    ("smoothing", "beta"), ("smoothing", "lambda_s"),
    ("allocator", "p_max"), ("allocator", "mu_eff"),
    ("fsm", "tau_act"), ("oracle", "seed"),
    ("space", "backbone", "layers"), ("space", "backbone", "hidden_dims", 0), ("space", "backbone", "param_count"),
    ("space", "templates", 0, "size"),
]
FUZZ_VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=FUZZ_VALUES)
def test_any_field_value_exits_0_or_2_with_one_line(field, value):
    doc = {"cycles": 2, "steps_per_cycle": 10, "sampler": {"batch_size": 4},
           "oracle": {"kind": "default", "seed": 0}, "space": SMALL["space"]}
    doc = set_path(doc, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "o"), "--quiet"])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_ignored_tau_rank_leaves_events_unchanged(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    logs = []
    for name, fsm in (("without", {"tau_act": 3}), ("with", {"tau_act": 3, "tau_rank": 3})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc | {"fsm": fsm}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name), "--quiet"]) == 0
        logs.append((tmp_path / name / "events.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_run_that_raises_leaves_closed_parseable_trace(tmp_path, config_path, monkeypatch):
    class FailingOracle(SyntheticOracle):
        def evaluate_toggles(self, state, gates, units, first_call_index):
            if first_call_index > 0:
                raise RuntimeError("evaluator died")
            return super().evaluate_toggles(state, gates, units, first_call_index)

    opened = []

    class TrackedRecording(TraceRecordingOracle):
        def __enter__(self):
            opened.append(self)
            return super().__enter__()

    monkeypatch.setattr(cli, "SyntheticOracle", FailingOracle)
    monkeypatch.setattr(cli, "TraceRecordingOracle", TrackedRecording)
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--record-trace", str(trace)]
    with pytest.raises(RuntimeError, match="evaluator died"):
        main(argv + ["--quiet"])
    assert len(opened) == 1 and opened[0]._fh.closed
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    batch = json.loads(config_path.read_text())["sampler"]["batch_size"]
    # the first cycle's audit, then its noise-free value query
    assert [r["noise_seed"] for r in records] == list(range(1 + batch)) + [-1]


def test_run_deterministic_checksums(tmp_path, config_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        outs.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert outs[0] == outs[1]


def test_seed_override_changes_output(tmp_path, config_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["run", "--config", str(config_path), "--out", str(out1), "--quiet"])
    main(["run", "--config", str(config_path), "--out", str(out2), "--seed", "77", "--quiet"])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config"]["run_seed"] != r2["config"]["run_seed"]


def test_baseline_command(tmp_path, config_path):
    out = tmp_path / "base"
    assert main(["baseline", "--config", str(config_path), "--out", str(out), "--samples", "5", "--quiet"]) == 0
    doc = json.loads((out / "baseline.json").read_text())
    assert len(doc["values"]) == 5
    assert doc["worst"] <= doc["median"] <= doc["best"]


def test_record_and_replay_commands(tmp_path, config_path):
    out1 = tmp_path / "orig"
    trace = tmp_path / "trace.jsonl"
    assert main([
        "run", "--config", str(config_path), "--out", str(out1),
        "--record-trace", str(trace), "--quiet",
    ]) == 0
    out2 = tmp_path / "replayed"
    assert main([
        "replay", "--config", str(config_path), "--trace", str(trace),
        "--out", str(out2), "--quiet",
    ]) == 0
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()


def test_replay_with_wrong_config_exits_1(tmp_path, config_path):
    trace = tmp_path / "trace.jsonl"
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
          "--record-trace", str(trace), "--quiet"])
    doc = json.loads(config_path.read_text())
    doc["run_seed"] = 999  # different sampling path: unrecorded configurations
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(other), "--trace", str(trace),
                 "--out", str(tmp_path / "o2"), "--quiet"]) == 1


def test_replay_with_fewer_cycles_exits_1_naming_the_record(tmp_path, capsys, config_path):
    trace = tmp_path / "trace.jsonl"
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
          "--record-trace", str(trace), "--quiet"])
    doc = json.loads(config_path.read_text())
    doc["cycles"] = 8  # the replay's final value query meets cycle 8's audit
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", "--config", str(other), "--trace", str(trace),
                 "--out", str(tmp_path / "o2"), "--quiet"]) == 1
    err = capsys.readouterr().err
    # Each cycle records its audit's evaluations, then one value query.
    evals = 8 * (1 + doc["sampler"]["batch_size"])
    record = evals + 8 + 1
    assert err == f"error: replay diverges at trace record {record}: recorded noise_seed {evals}, queried -1\n"


def test_verify_bounds_quick():
    # At 400 cycles the coverage bound is -1.65, which any probe count meets;
    # at 800 it is 4.70.
    assert main(["verify-bounds", "--replicas", "2000", "--cycles", "800", "--quiet"]) == 0


def test_bench_alloc_quick():
    assert main(["bench-alloc", "--instances", "40", "--n-max", "10", "--quiet"]) == 0


def test_bench_alloc_cap_exits_2():
    assert main(["bench-alloc", "--instances", "5", "--n-max", "25", "--quiet"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-alloc", "--instances", "0"],
        ["bench-alloc", "--instances", "-1"],
        ["bench-alloc", "--n-max", "0"],
        ["bench-alloc", "--seed", "-1"],
        ["verify-bounds", "--replicas", "0"],
        ["verify-bounds", "--replicas", "1", "--cycles", "0"],
        ["verify-bounds", "--cycles", "-5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_count_flag_exits_2_with_one_line(capsys, argv):
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_command(tmp_path, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    out2 = tmp_path / "rep"
    assert main(["report", "--events", str(out / "events.jsonl"), "--out", str(out2), "--quiet"]) == 0
    assert (out2 / "diagnostics.csv").read_text() == (out / "diagnostics.csv").read_text()


def test_report_prints_the_final_record_or_where_the_log_ends(tmp_path, capsys, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    final_value = json.loads((out / "report.json").read_text())["final_value"]
    capsys.readouterr()
    assert main(["report", "--events", str(out / "events.jsonl"), "--out", str(tmp_path / "rep")]) == 0
    assert f"final value {final_value:.4f} " in capsys.readouterr().out

    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join((out / "events.jsonl").read_text().splitlines(keepends=True)[:-1]))
    assert main(["report", "--events", str(cut), "--out", str(tmp_path / "cut")]) == 0
    printed = capsys.readouterr().out
    assert "no final record: log ends after cycle 11 " in printed and "final value" not in printed
    assert (tmp_path / "cut" / "diagnostics.csv").exists()


def test_report_of_a_log_with_a_non_object_line_exits_1_with_one_line(tmp_path, capsys, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    events = out / "events.jsonl"
    events.write_text(events.read_text() + "[1]\n")
    capsys.readouterr()
    assert main(["report", "--events", str(events), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2

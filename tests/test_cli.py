import hashlib
import json

import pytest

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
    ],
    ids=[
        "non-integer-cycles", "non-object-oracle", "top-level-array", "zero-shots",
        "negative-shots", "lora-on-norm", "no-templates", "unit-id-gap", "window-7", "window-2",
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


def test_verify_bounds_quick():
    # At 400 cycles the coverage bound is -1.65, which any probe count meets;
    # at 800 it is 4.70.
    assert main(["verify-bounds", "--replicas", "2000", "--cycles", "800", "--quiet"]) == 0


def test_bench_alloc_quick():
    assert main(["bench-alloc", "--instances", "40", "--n-max", "10", "--quiet"]) == 0


def test_bench_alloc_cap_exits_2():
    assert main(["bench-alloc", "--instances", "5", "--n-max", "25", "--quiet"]) == 2


def test_report_command(tmp_path, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    out2 = tmp_path / "rep"
    assert main(["report", "--events", str(out / "events.jsonl"), "--out", str(out2), "--quiet"]) == 0
    assert (out2 / "diagnostics.csv").read_text() == (out / "diagnostics.csv").read_text()


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2

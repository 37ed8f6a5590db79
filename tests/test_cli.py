import argparse
import contextlib
import copy
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import cli
from auditloop.cli import main
from auditloop.driver import DIAGNOSTIC_COLUMNS, RunConfig, default_run_config
from auditloop.errors import check_keys
from auditloop.oracle import SyntheticOracle, TraceRecordingOracle

ROOT = Path(__file__).resolve().parents[1]


SMALL_CONFIG = {
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


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
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
          "slot": "Attention", "hidden_dim": 16, "params": 60}
NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer too large for a float
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
        # `window` is no run config key, whatever its value.
        {"cycles": 2, "steps_per_cycle": 10, "window": 7},
        {"cycles": 2, "steps_per_cycle": 10, "window": 2},
        {"cycles": 2, "steps_per_cycle": 10, "window": 3.5},
        {"cycles": 2.5, "steps_per_cycle": 10},
        {"cycles": 2, "steps_per_cycle": 10, "run_seed": -1},
        {"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "seed": -1}},
        small_with_oracle(seed=-1),
        {"cycles": 2, "steps_per_cycle": 10, "sampler": {"batch_size": 2.5}},
        small_with_oracle(drift=INF),  # no synthetic oracle key
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"mu_eff": NAN}},
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"mu_eff": INF}},
        {"cycles": 2, "steps_per_cycle": 10, "fsm": {"tau_act": 2.5}},
        small_with_oracle(kappa=[NAN] + [200.0] * 5),
        small_with_oracle(kappa=[INF] + [200.0] * 5),
        small_with_oracle(mu_inf=[NAN] + [0.05] * 5),
        small_with_oracle(sigma_val=INF),
        # `cost` is no unit key, whatever its value.
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
        with_space("sapa_shared_weights", value="false"),  # no space key
        with_space("units", 0, "gate", value="false"),
        with_space("units", 0, "cost", value="0.0003"),  # no unit key
        small_with_oracle(sigma_val=True),
        small_with_oracle(base_score="0.45"),
        small_with_oracle(mu_inf=[10**400] + [0.05] * 5),
        small_with_oracle(groups=[[0, 1.7]], gammas=[0.5]),
        small_with_oracle(groups=[["0", "1"]], gammas=[0.5]),
        small_with_oracle(groups=[[False, True]], gammas=[0.5]),
        {"cycles": 2, "steps_per_cycle": 10, "refinetune_step": 100},
        {"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "sed": 3}},
        small_with_oracle(sed=3),
        small_with_oracle(kind="replay"),
        {"cycles": 2, "steps_per_cycle": 10, "space": None},
        with_space("sapa_shared_weight", value=True),
        with_space("backbone", "param_counts", value=200_000),
        with_space("templates", 0, "sizes", value=[4]),
        with_space("units", 0, "gates", value=True),
        set_path(with_space("units", 0, "gate", value=False), ("space", "templates"), SMALL["space"]["templates"]),
        {"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "shots": 5}},
        {"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "space": "default"}},
        {"cycles": 2, "steps_per_cycle": 10, "sampler": [1]},
        {"cycles": 2, "steps_per_cycle": 10, "fsm": 5},
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"p_max": True}},
        {"cycles": 2, "steps_per_cycle": 10, "allocator": {"mu_eff": HUGE}},
        {"cycles": 2, "steps_per_cycle": 10, "smoothing": {"beta": "0.5"}},
        {"cycles": 2, "steps_per_cycle": HUGE},
        {"cycles": 2, "steps_per_cycle": 10, "refinetune_steps": HUGE},
        {"cycles": HUGE, "steps_per_cycle": 1, "refinetune_steps": 0},
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
        "string-unit-cost", "bool-sigma-val", "string-base-score", "huge-integer-mu-inf", "fractional-group-id",
        "string-group-id", "bool-group-id", "unknown-top-level-key", "unknown-default-oracle-key",
        "unknown-synthetic-oracle-key", "unknown-oracle-kind", "null-space", "unknown-space-key",
        "unknown-backbone-key", "unknown-template-key", "unknown-unit-key", "dumped-space-with-templates",
        "default-oracle-shots", "default-oracle-space", "non-object-sampler", "non-object-fsm",
        "bool-p-max", "huge-integer-mu-eff", "string-beta", "huge-steps-per-cycle", "huge-refinetune-steps",
        "huge-cycles",
    ],
)
# No sample count runs `run`; a count runs `baseline`. Both read the config
# through `RunConfig.from_json`.
@pytest.mark.parametrize("samples", [None, "3"])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, doc, samples):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    command = ["baseline", "--samples", samples] if samples else ["run"]
    assert main(command + ["--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, line",
    [
        (with_space("templates", 0, "sizes", value=[4]), "unknown space template key 'sizes'"),
        ({"cycles": 2, "steps_per_cycle": 10, "window": 5}, "unknown run config key 'window'"),
        (with_space("sapa_shared_weights", value=False), "unknown space key 'sapa_shared_weights'"),
        (small_with_oracle(drift=0.0), "unknown oracle key 'drift'"),
        ({"cycles": 2, "steps_per_cycle": 10, "sampler": {"batch_size": 3, "active_fraction": 0.3}},
         "unknown sampler key 'active_fraction'"),
        ({"cycles": 2, "steps_per_cycle": 10, "sampler": {"batch_size": 3, "epsilon": 0.3}},
         "unknown sampler key 'epsilon'"),
        ({"cycles": 2, "steps_per_cycle": 10, "oracle": {"kind": "default", "shots": 5}},
         "unknown default oracle key 'shots'"),
        # A unit dumped before `params` replaced `cost`.
        ({"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "units": [
            {k: v for k, v in UNIT_5.items() if k != "params"} | {"id": 0, "cost": 0.0003}]}},
         "unknown space unit key 'cost'"),
    ],
    ids=["template-sizes", "window", "sapa-shared-weights", "drift", "active-fraction", "epsilon",
         "default-oracle-shots", "stale-unit-cost"],
)
def test_unknown_key_error_names_the_key_and_its_object(tmp_path, capsys, doc, line):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "doc, line",
    [
        ({"cycles": 2}, "run config key 'steps_per_cycle' is missing"),
        ({"cycles": 2, "steps_per_cycle": 10, "sampler": {}}, "sampler key 'batch_size' is missing"),
        (SMALL | {"oracle": {"base_score": 0.5}}, "oracle key 'mu_inf' is missing"),
        (SMALL | {"oracle": {"base_score": 0.5, "mu_inf": [0.05] * 6}}, "oracle key 'kappa' is missing"),
        ({"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE, "units": [
            {k: v for k, v in UNIT_5.items() if k != "params"} | {"id": 0}]}}, "space unit key 'params' is missing"),
        (with_space("backbone", value={"layers": 1}), "space backbone key 'hidden_dims' is missing"),
        ({"cycles": 2, "steps_per_cycle": 10, "space": {"backbone": BACKBONE}}, "space key 'templates' is missing"),
        ({"cycles": 2, "steps_per_cycle": 10, "space": {"units": [UNIT_5 | {"id": 0}]}},
         "space key 'backbone' is missing"),
        (with_space("units", 0, "slot", value="Norm"), "LoRA cannot attach to the Norm slot"),
        (with_space("units", 0, "layer", value=99), "unit layer must be at most 0"),
        (with_space("units", 0, "hidden_dim", value=7), "unit 0 hidden_dim must be 16, layer 0's"),
        (with_space("units", 0, "params", value=0), "unit params must be at least 1"),
        (with_space("units", 0, "params", value=-1), "unit params must be at least 1"),
        (with_space("units", 0, "params", value=1.5), "unit params must be an integer, not 1.5"),
        (with_space("units", 0, "params", value=True), "unit params must be an integer, not True"),
        (with_space("units", 0, "params", value="60"), "unit params must be an integer, not '60'"),
        (with_space("units", value=[UNIT_5 | {"id": i, "params": 2**62} for i in (0, 1)]),
         f"unit parameter counts sum to {2**63}, past an int64"),
    ],
    ids=["no-steps-per-cycle", "empty-sampler", "oracle-without-mu-inf", "oracle-without-kappa",
         "unit-without-params", "backbone-without-hidden-dims", "schema-without-templates", "dump-without-backbone",
         "dumped-lora-on-norm", "unit-on-layer-99", "unit-hidden-dim-7", "zero-params", "negative-params",
         "fractional-params", "bool-params", "string-params", "params-past-int64"],
)
def test_missing_key_or_misplaced_unit_exits_2_with_one_pinned_line(tmp_path, capsys, doc, line):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "field, value, line",
    [
        (("allocator", "p_max"), True, "p_max must be a number, not True"),
        (("allocator", "p_max"), 1.5, "p_max must lie in (0, 1]"),
        (("allocator", "mu_eff"), HUGE, "mu_eff must be a number within a float's range"),
        (("smoothing", "beta"), "0.5", "beta must be a number, not '0.5'"),
        (("smoothing", "lambda_s"), NAN, "lambda_s must lie in [0, inf)"),
        (("oracle", "kappa"), [200.0] * 5 + [INF], "kappa entry must lie in (0, inf)"),
        (("steps_per_cycle",), HUGE, "steps_per_cycle must be at most 9007199254740992"),
        (("refinetune_steps",), 2**53 + 1, "refinetune_steps must be at most 9007199254740992"),
    ],
    ids=["bool-p-max", "p-max-above-1", "huge-integer-mu-eff", "string-beta", "nan-lambda-s", "infinite-kappa",
         "huge-steps-per-cycle", "refinetune-steps-above-2-53"],
)
def test_bad_value_error_names_the_field_and_its_rule(tmp_path, capsys, field, value, line):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(set_path(SMALL | {"sampler": {"batch_size": 3}}, field, value)))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("fields", [{"mu_inf": 5}, {"groups": [5], "gammas": [0.5]}], ids=["mu-inf", "group"])
def test_number_for_an_oracle_list_exits_2_with_one_pinned_line(tmp_path, capsys, fields):
    # Iterating a number raises TypeError, which `RunConfig.from_json` reports
    # as a malformed config.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_with_oracle(**fields)))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: malformed run config: 'int' object is not iterable\n"


def test_dumped_unit_params_are_its_budget_count_and_its_cost_over_the_backbones(tmp_path, capsys):
    doc = with_space("units", 0, "params", value=61)
    budget = RunConfig.from_json(doc).budget
    assert (budget.counts.tolist(), budget.costs.tolist()) == ([61], [61 / 200_000])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_run_replay_and_baseline_print_their_summary_lines(tmp_path, capsys, config_path):
    out, trace, common = tmp_path / "out", tmp_path / "trace.jsonl", ["--config", str(config_path)]
    assert main(["run", *common, "--out", str(out), "--record-trace", str(trace)]) == 0
    assert main(["replay", *common, "--out", str(tmp_path / "replayed"), "--trace", str(trace)]) == 0
    assert main(["baseline", *common, "--out", str(tmp_path / "base"), "--samples", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "final value 0.5182  budget 0.001600  t_c 2",
        f"wrote report.json, events.jsonl, diagnostics.csv to {out}",
        f"replayed {trace}: final value 0.5182",
        "random baseline over 3 configurations: median 0.4999",
    ]


def test_space_given_as_a_path_exits_2_with_one_line(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SMALL["space"]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cycles": 2, "steps_per_cycle": 10, "space": str(schema)}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == 'error: space must be a JSON object or "default"\n'


@pytest.mark.parametrize("gates, code", [([True, False], 0), ([True, True], 2)], ids=["one-on-fits", "two-on-over"])
def test_initial_gates_over_the_budget_exit_2_before_any_run(tmp_path, capsys, gates, code):
    units = [UNIT_5 | {"id": i, "gate": gate} for i, gate in enumerate(gates)]
    doc = {"cycles": 2, "steps_per_cycle": 10, "allocator": {"p_max": 0.0005},
           "space": {"backbone": BACKBONE, "units": units}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == code
    line = "error: initial gates hold 120 parameters, over the 100 that p_max 0.0005 allows\n"
    assert capsys.readouterr().err == (line if code else "")


def test_no_command_takes_a_seed_flag(tmp_path, capsys, config_path):
    # A run's seed is the config's run_seed: `--seed -1` exits 2 with one line
    # before any output is written.
    for command in (["run"], ["replay", "--trace", str(tmp_path / "trace.jsonl")], ["baseline"]):
        argv = command + ["--config", str(config_path), "--out", str(tmp_path / "o"), "--quiet", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed -1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "DIR", "--out", "OUT"],
        ["run", "--config", "CONFIG", "--out", "OUT", "--record-trace", "DIR"],
        ["run", "--config", "CONFIG", "--out", "FILE", "--record-trace", "TRACE"],
        ["replay", "--config", "CONFIG", "--out", "FILE", "--trace", "FILE"],
        ["baseline", "--config", "CONFIG", "--out", "FILE"],
        ["report", "--config", "CONFIG", "--events", "EVENTS", "--out", "FILE"],
        ["report", "--config", "CONFIG", "--events", "MISSING", "--out", "OUT"],
        ["report", "--config", "CONFIG", "--events", "DIR", "--out", "OUT"],
        ["report", "--config", "DIR", "--events", "EVENTS", "--out", "OUT"],
        ["report", "--config", "MISSING", "--events", "EVENTS", "--out", "OUT"],
        ["replay", "--config", "CONFIG", "--out", "OUT", "--trace", "MISSING"],
        ["replay", "--config", "CONFIG", "--out", "OUT", "--trace", "DIR"],
    ],
    ids=["config-is-a-directory", "trace-is-a-directory", "run-out-is-a-file", "replay-out-is-a-file",
         "baseline-out-is-a-file", "report-out-is-a-file", "events-missing", "events-is-a-directory",
         "report-config-is-a-directory", "report-config-missing", "replay-trace-missing",
         "replay-trace-is-a-directory"],
)
def test_path_error_exits_2_with_one_line_before_any_run(tmp_path, capsys, monkeypatch, config_path, argv):
    file, events = tmp_path / "file", tmp_path / "events.jsonl"
    file.write_text("")
    events.write_text(json.dumps({"kind": "cycle", "cycle": 0, "audit": {"batch": [0]}, "value": 0.5,
                                  "fsm": {"t_c": 0}, "eval_count": 2}) + "\n")
    paths = {"DIR": tmp_path, "CONFIG": config_path, "OUT": tmp_path / "o", "FILE": file,
             "TRACE": tmp_path / "trace.jsonl", "EVENTS": events, "MISSING": tmp_path / "missing.jsonl"}

    def no_run(*args, **kwargs):
        pytest.fail("a run started before the path error")

    monkeypatch.setattr(cli, "LoopDriver", no_run)
    monkeypatch.setattr(cli, "run_random_baseline", no_run)
    assert main([str(paths.get(arg, arg)) for arg in argv] + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not paths["TRACE"].exists()


# Any value, well-formed or not, for one field of a small valid document.
FUZZ_FIELDS = [
    ("cycles",), ("steps_per_cycle",), ("refinetune_steps",), ("shots",), ("run_seed",),
    ("sampler", "batch_size"),
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
    # Every fuzzed field takes a JSON number, and refinetune_steps also null
    # (its default), so any other JSON value is refused.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number and not (field == ("refinetune_steps",) and value is None):
        assert code == 2, value
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_tau_rank_is_an_unknown_fsm_key_and_exits_2(tmp_path, capsys, config_path):
    # The engine has no rank-change vote, so `tau_rank` is an unknown key, not an ignored one.
    config_path.write_text(json.dumps(json.loads(config_path.read_text()) | {"fsm": {"tau_act": 3, "tau_rank": 3}}))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: unknown fsm key 'tau_rank'\n"


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
    assert [(r["call"], len(r["units"])) for r in records] == [(0, batch), (-1, 0)]


def test_run_deterministic_checksums(tmp_path, config_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
        outs.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert outs[0] == outs[1]


def test_configs_that_differ_in_run_seed_echo_their_own_seed_and_differ_in_value(tmp_path, config_path):
    # Two config files that differ only in run_seed; each report echoes its own file.
    reports = []
    for seed in (2, 77):
        path = tmp_path / f"seed{seed}.json"
        path.write_text(json.dumps(json.loads(config_path.read_text()) | {"run_seed": seed}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / f"s{seed}"), "--quiet"]) == 0
        reports.append(json.loads((tmp_path / f"s{seed}" / "report.json").read_text()))
        assert reports[-1]["config"] == json.loads(json.dumps(cli.RunConfig.from_json(path).to_json()))
    assert reports[0]["config"]["run_seed"] == 2 and reports[1]["config"]["run_seed"] == 77
    assert reports[0]["value_curve"] != reports[1]["value_curve"]


def test_baseline_command(tmp_path, config_path):
    out = tmp_path / "base"
    assert main(["baseline", "--config", str(config_path), "--out", str(out), "--samples", "5", "--quiet"]) == 0
    doc = json.loads((out / "baseline.json").read_text())
    assert len(doc["values"]) == 5
    assert doc["worst"] <= doc["median"] <= doc["best"]


def test_baseline_caps_the_loop_steps_as_run_does(tmp_path, capsys, config_path):
    huge = {"cycles": HUGE, "steps_per_cycle": 1, "refinetune_steps": 0}
    config_path.write_text(json.dumps(json.loads(config_path.read_text()) | huge))
    argv = ["baseline", "--config", str(config_path), "--out", str(tmp_path / "base"), "--samples", "2", "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cycles * steps_per_cycle must be at most 9007199254740992\n"


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
    # Recording changes nothing a run writes; a trace holds no ground truth to take regret from.
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "plain"), "--quiet"]) == 0
    assert (tmp_path / "plain" / "report.json").read_bytes() == (out1 / "report.json").read_bytes()
    assert json.loads((out1 / "report.json").read_text())["regret_curve"] is not None
    assert json.loads((out2 / "report.json").read_text())["regret_curve"] is None


def test_replay_of_a_trace_with_a_string_call_exits_1_naming_the_line(tmp_path, capsys, config_path):
    trace = tmp_path / "trace.jsonl"
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--record-trace", str(trace), "--quiet"])
    lines = trace.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"call": -1,', '"call": "-1",')
    trace.write_text("".join(lines))
    capsys.readouterr()
    assert main(["replay", "--config", str(config_path), "--trace", str(trace),
                 "--out", str(tmp_path / "o2"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {trace}:2: call must be an integer, not '-1'\n"


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


def test_replay_that_leaves_trace_records_unread_exits_1_writing_nothing(tmp_path, capsys, config_path):
    # The trace written twice into one file: the run reads the first copy only.
    trace, out = tmp_path / "trace.jsonl", tmp_path / "o2"
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--record-trace", str(trace), "--quiet"])
    records = len(trace.read_text().splitlines())
    trace.write_text(trace.read_text() * 2)
    capsys.readouterr()
    assert main(["replay", "--config", str(config_path), "--trace", str(trace), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: replay used {records} of {2 * records} trace records\n"
    assert list(out.iterdir()) == []


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
    # Each cycle records its audit, then one value query.
    evals = 8 * (1 + doc["sampler"]["batch_size"])
    assert err == f"error: replay diverges at trace record 17: recorded call {evals}, queried -1\n"


@pytest.fixture(scope="module")
def verify_bounds_rows():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-bounds"])
    return code, out.getvalue().splitlines()[1:]


def test_verify_bounds_quick(verify_bounds_rows, monkeypatch, capsys):
    code, rows = verify_bounds_rows
    assert code == 0 and len(rows) == 7 and all(row.endswith("  PASS") for row in rows)
    # One failing row fails the command.
    monkeypatch.setattr(cli.checks, "drift_bias", lambda *args: cli.checks.drift_bias_verdict(0.9, 0.01, 0.0))
    assert main(["verify-bounds"]) == 1
    assert "0.0900      0.0000  FAIL" in capsys.readouterr().out


def test_verify_bounds_pins_the_allocator_rows(verify_bounds_rows):
    # The allocator check runs inside verify-bounds: 500 instances, n <= 15, seed 0.
    assert verify_bounds_rows[1][-2:] == [
        f"{'min ratio':<38}{0.5:>12.4f}{0.8525:>12.4f}  PASS",
        f"{'frac>=0.95':<38}{0.9:>12.4f}{0.9880:>12.4f}  PASS",
    ]


def test_report_command(tmp_path, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    out2 = tmp_path / "rep"
    argv = ["report", "--config", str(config_path), "--events", str(out / "events.jsonl"), "--out", str(out2)]
    assert main(argv + ["--quiet"]) == 0
    assert (out2 / "diagnostics.csv").read_text() == (out / "diagnostics.csv").read_text()


def test_report_prints_the_final_record_or_where_the_log_ends(tmp_path, capsys, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    final_value = json.loads((out / "report.json").read_text())["final_value"]
    capsys.readouterr()
    report = ["report", "--config", str(config_path)]
    assert main(report + ["--events", str(out / "events.jsonl"), "--out", str(tmp_path / "rep")]) == 0
    assert f"final value {final_value:.4f} " in capsys.readouterr().out

    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join((out / "events.jsonl").read_text().splitlines(keepends=True)[:-1]))
    assert main(report + ["--events", str(cut), "--out", str(tmp_path / "cut")]) == 0
    printed = capsys.readouterr().out
    assert "no final record: log ends after cycle 11 " in printed and "final value" not in printed
    assert "selected units" not in printed
    assert (tmp_path / "cut" / "diagnostics.csv").exists()


def test_report_of_a_log_with_a_non_object_line_exits_1_with_one_line(tmp_path, capsys, config_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--quiet"])
    events = out / "events.jsonl"
    lines = events.read_text().splitlines(keepends=True)
    events.write_text("".join([*lines[:3], "[1]\n", *lines[3:]]))
    capsys.readouterr()
    assert main(["report", "--config", str(config_path), "--events", str(events), "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err == "error: event log record 4 is not a JSON object\n"


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """A 5-cycle `run --record-trace` of the small config: its config path,
    and its trace and event log by the name their reader gives them."""
    tmp = tmp_path_factory.mktemp("recorded")
    config = tmp / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG | {"cycles": 5}))
    trace = tmp / "trace.jsonl"
    assert main(["run", "--config", str(config), "--out", str(tmp / "out"), "--record-trace", str(trace),
                 "--quiet"]) == 0
    return config, {"trace": trace, "event log": tmp / "out" / "events.jsonl"}


@pytest.mark.parametrize("what", ["trace", "event log"])
@pytest.mark.parametrize("case", ["not-utf8", "cut-line", "lone-bracket", "nested-too-deep", "blank-lines"])
def test_replay_and_report_read_their_files_through_one_line_reader(recorded_run, tmp_path, capsys, what, case):
    # `replay` reads the trace and `report` the event log with
    # `read_json_lines`: a file that does not decode, or a line that does not
    # parse, exits 1 with one line that names the file, and the line; blank
    # lines are skipped.
    config, files = recorded_run
    command, flag = {"trace": ("replay", "--trace"), "event log": ("report", "--events")}[what]
    lines = files[what].read_text().splitlines(keepends=True)
    path = tmp_path / "file.jsonl"
    if case == "not-utf8":
        path.write_bytes(b"\xff" + files[what].read_bytes())
    elif case == "blank-lines":
        path.write_text("\n" + "  \n".join(lines) + "\t\n")
    else:
        line_2 = {"cut-line": lines[1][:40], "lone-bracket": "[", "nested-too-deep": "[" * 100_000}[case]
        path.write_text("".join([lines[0], line_2 + "\n", *lines[2:]]))

    def read(file, out):
        return main([command, "--config", str(config), flag, str(file), "--out", str(out), "--quiet"])

    capsys.readouterr()
    if case == "blank-lines":
        assert read(path, tmp_path / "spaced") == read(files[what], tmp_path / "plain") == 0
        written = [{f.name: f.read_bytes() for f in (tmp_path / out).iterdir()} for out in ("spaced", "plain")]
        assert written[0] == written[1] and "diagnostics.csv" in written[0]
        return
    assert read(path, tmp_path / "out") == 1
    assert list((tmp_path / "out").iterdir()) == []
    err = capsys.readouterr().err
    where = f"error: cannot decode {what} {path}: " if case == "not-utf8" else f"error: {path}:2: cannot parse {what}: "
    assert err.startswith(where) and err.count("\n") == 1
    tail = {"lone-bracket": "Expecting value: line 1 column 2 (char 1)",
            "nested-too-deep": "maximum recursion depth exceeded while decoding a JSON array from a unicode string"}
    if case in tail:
        assert err == f"{where}{tail[case]}\n"


def set_field(index, keys, value):
    """An edit of a log's records that sets the field at `keys` of record `index`."""
    def edit(records):
        *outer, last = keys
        rec = records[index]
        for key in outer:
            rec = rec[key]
        rec[last] = value
        return records
    return edit


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda rs: rs * 2, "event log record 7 follows the final record"),
        (lambda rs: [*rs[:2], rs[3], rs[2], *rs[4:]], "event log record 3 is cycle 3, not cycle 2"),
        (lambda rs: rs[1:], "event log record 1 is cycle 1, not cycle 0"),
        (lambda rs: [*rs[:3], rs[-1], *rs[3:-1]], "event log record 5 follows the final record"),
        (lambda rs: rs + rs[-1:], "event log record 7 follows the final record"),
        (lambda rs: rs[-1:] + rs[:-1], "event log record 1 is of kind 'final', not cycle 0"),
        (set_field(4, ["eval_count"], 12.7), "cycle 4: eval_count must be an integer, not 12.7"),
        (set_field(2, ["fsm", "t_c"], "3"), "cycle 2: t_c must be an integer, not '3'"),
        (set_field(1, ["value"], "0.45"), "cycle 1: value must be a number, not '0.45'"),
        (set_field(3, ["allocate", "total_cost"], None), "cycle 3: total_cost must be a number, not None"),
        (set_field(0, ["audit"], []), "cycle 0: list indices must be integers or slices, not str"),
        (set_field(5, ["final_value"], "0.5"), "final record: final_value must be a number, not '0.5'"),
        (set_field(5, ["final_gates"], [True] * 6), "final record: final_gates must be a 0/1 bitstring"),
    ],
    ids=["written-twice", "cycles-reordered", "starts-at-cycle-1", "final-in-the-middle", "two-finals",
         "final-first", "fractional-eval-count", "string-t_c", "string-value", "null-total-cost", "audit-list",
         "string-final-value", "list-for-final-gates"],
)
def test_report_of_a_log_out_of_order_or_with_a_bad_field_exits_1_naming_the_record(recorded_run, tmp_path, capsys,
                                                                                       edit, line):
    # A log is cycles 0, 1, ... in order, then at most one final record,
    # and each count and number is checked as the trace's are.
    config, files = recorded_run
    records = [json.loads(text) for text in files["event log"].read_text().splitlines()]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps(r) + "\n" for r in edit(records)))
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--events", str(events), "--out", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "rep" / "diagnostics.csv").exists()


def test_report_of_a_log_cut_after_any_cycle_reads_as_the_whole_logs_first_cycles(recorded_run, tmp_path, capsys):
    config, files = recorded_run
    lines = files["event log"].read_text().splitlines(keepends=True)
    report = ["report", "--config", str(config), "--out"]
    assert main(report + [str(tmp_path / "whole"), "--events", str(files["event log"]), "--quiet"]) == 0
    whole = (tmp_path / "whole" / "diagnostics.csv").read_text().splitlines()

    def no_regret(rows):
        """The rows without their regret, which is against the best value of the cycles read."""
        return [row.split(",")[:2] + row.split(",")[3:] for row in rows]

    for k in range(1, len(lines)):
        cut = tmp_path / f"cut{k}.jsonl"
        cut.write_text("".join(lines[:k]))
        capsys.readouterr()
        assert main(report + [str(tmp_path / f"cut{k}"), "--events", str(cut)]) == 0
        assert capsys.readouterr().out.startswith(f"cycles {k}  no final record: log ends after cycle {k - 1}  ")
        rows = (tmp_path / f"cut{k}" / "diagnostics.csv").read_text().splitlines()
        assert no_regret(rows) == no_regret(whole[: k + 1])


def readme_json_blocks() -> list[dict]:
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]


def test_every_readme_json_block_is_a_run_config():
    # README's full example as well as its default config file.
    blocks = readme_json_blocks()
    assert len(blocks) == 2
    for doc in blocks:
        RunConfig.from_json(doc)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """README's default config file and the `run` of it: (config path, output directory)."""
    (doc,) = [b for b in readme_json_blocks() if b.get("space") == "default"]
    tmp = tmp_path_factory.mktemp("default")
    config = tmp / "default.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp / "out"), "--quiet"]) == 0
    return config, tmp / "out"


def test_readme_default_config_writes_the_golden_default_log(default_run):
    _, out = default_run
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    digest = hashlib.sha256((out / "events.jsonl").read_bytes()).hexdigest()
    assert digest == golden["paper-default"]["1"]["0"]


def test_report_prints_the_budget_and_one_line_per_selected_unit(default_run, tmp_path, capsys):
    config, out = default_run
    final = json.loads((out / "events.jsonl").read_text().splitlines()[-1])
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--events", str(out / "events.jsonl"), "--out", str(tmp_path)]) == 0
    summary, heading, *units = capsys.readouterr().out.splitlines()
    assert f"  budget {final['budget_used']:.6f} of 0.002  " in summary
    assert heading == f"selected units ({len(final['final_on_ids'])}):"
    assert [int(line.split()[0]) for line in units] == final["final_on_ids"]
    assert all(" layer " in line and " size " in line and " cost " in line for line in units)


def test_report_of_a_log_of_another_space_exits_1_naming_the_cycle(default_run, tmp_path, capsys):
    config, out = default_run
    records = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    records[0]["audit"]["batch"].append(90)
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["report", "--config", str(config), "--events", str(events), "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: cycle 0 audits unit 90, not one of the 74 units\n"


def test_report_of_a_log_over_the_configs_budget_exits_1_naming_the_cycle(default_run, tmp_path, capsys):
    # A run never logs a cycle above its own p_max, so a log with a cycle
    # above the config's was written under another budget: the default
    # shots=1 log first goes above 0.001 at cycle 2 (its largest cost,
    # 0.00192, it logs from cycle 21 on). No diagnostics are written.
    config, out = default_run
    doc = json.loads(config.read_text()) | {"cycles": 5, "allocator": {"p_max": 0.001}}
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    events = str(out / "events.jsonl")
    assert main(["report", "--config", str(other), "--events", events, "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: cycle 2 logs total_cost 0.001024, above the config's p_max 0.001\n"
    assert not (tmp_path / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--config", "BAD"], 2),
    ],
    ids=["config"],
)
def test_file_that_is_not_utf8_exits_with_one_line(tmp_path, capsys, config_path, argv, code):
    # An undecodable config is a config error; for an undecodable log or
    # trace see `test_replay_and_report_read_their_files_through_one_line_reader`.
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}\n")
    paths = {"BAD": bad, "CONFIG": config_path}
    assert main([str(paths.get(arg, arg)) for arg in argv] + ["--out", str(tmp_path / "o"), "--quiet"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2
    assert main(["bench-alloc"]) == 2


CHOICES = "(choose from 'run', 'baseline', 'replay', 'verify-bounds', 'report')"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["run", "--config", "x", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["bench-alloc"], f"argument command: invalid choice: 'bench-alloc' {CHOICES}"),
        (["run"], "the following arguments are required: --config"),
        (["replay", "--config", "x"], "the following arguments are required: --trace"),
        ([], "the following arguments are required: command"),
        (["report", "--events"], "argument --events: expected one argument"),
        (["baseline", "--config", "x", "--samples", "many"], "argument --samples: invalid int value: 'many'"),
    ],
    ids=["unknown-flag", "unknown-subcommand", "missing-config", "missing-trace", "no-subcommand",
         "flag-without-value", "flag-of-wrong-type"],
)
def test_usage_error_exits_2_with_one_line(capsys, argv, line):
    # argparse's own error prints the usage first, then `auditloop: error: ...`.
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]], ids=["help", "run-help", "version"])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_config_surface_is_pinned(monkeypatch):
    # Every key path a run config takes, from the key tables its readers
    # check, for a schema space with the default oracle and for a dumped
    # space with a synthetic one: a new option shows up as an edit here.
    tables = {}

    def recording_check_keys(where, doc, known, required=()):
        tables.setdefault(where, set()).update(known)
        return check_keys(where, doc, known, required)

    for module in ("errors", "driver", "space"):
        monkeypatch.setattr(f"auditloop.{module}.check_keys", recording_check_keys)
    RunConfig.from_json({"cycles": 1, "steps_per_cycle": 1, "space": SMALL["space"], "oracle": {"kind": "default"}})
    RunConfig.from_json(json.loads(json.dumps(default_run_config().to_json())))
    places = {"run config": "", "space template": "space.templates[].", "space unit": "space.units[].",
              "default oracle": "oracle(default).", "oracle": "oracle(synthetic)."}
    paths = sorted(places.get(where, where.replace(" ", ".") + ".") + key for where, keys in tables.items()
                   for key in keys)
    assert paths == [
        "allocator", "allocator.mu_eff", "allocator.p_max",
        "cycles",
        "fsm", "fsm.tau_act",
        "oracle", "oracle(default).kind", "oracle(default).seed",
        "oracle(synthetic).base_score", "oracle(synthetic).gammas",
        "oracle(synthetic).groups", "oracle(synthetic).kappa", "oracle(synthetic).kind", "oracle(synthetic).mu_inf",
        "oracle(synthetic).seed", "oracle(synthetic).sigma_val", "oracle(synthetic).warm_floor",
        "refinetune_steps", "run_seed",
        "sampler", "sampler.batch_size",
        "shots",
        "smoothing", "smoothing.beta", "smoothing.lambda_s",
        "space", "space.backbone", "space.backbone.hidden_dims", "space.backbone.layers", "space.backbone.param_count",
        "space.templates", "space.templates[].family", "space.templates[].size", "space.templates[].slot",
        "space.templates[].topology",
        "space.units", "space.units[].family", "space.units[].gate", "space.units[].hidden_dim", "space.units[].id",
        "space.units[].layer", "space.units[].params", "space.units[].size", "space.units[].slot",
        "space.units[].topology",
        "steps_per_cycle",
    ]


def test_cli_surface_is_pinned():
    # Each subcommand with its flags: a new option shows up as an edit here.
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def flags(p):
        return sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))

    assert flags(parser) == ["--version"]
    assert {name: flags(p) for name, p in sub.choices.items()} == {
        "run": ["--config", "--out", "--quiet", "--record-trace"],
        "baseline": ["--config", "--out", "--quiet", "--samples"],
        "replay": ["--config", "--out", "--quiet", "--trace"],
        "verify-bounds": ["--quiet"],
        "report": ["--config", "--events", "--out", "--quiet"],
    }

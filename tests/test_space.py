import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import (
    AdapterUnit,
    AllocatorParams,
    AuditSpace,
    Budget,
    BackboneDesc,
    Family,
    FsmParams,
    OracleSpec,
    RunConfig,
    SamplerParams,
    Slot,
    SmoothingParams,
    Template,
    Topology,
    default_backbone,
    default_oracle_spec,
    default_run_config,
    default_space,
    default_templates,
    raw_param_count,
)
from auditloop.errors import EmptySpace, IncompatibleTemplate, InvalidParams
from auditloop.space import _BACKBONE_KEYS


def test_default_schema_unit_count():
    # 2 layers x (attention 12 + feedforward 24 + norm 1) = 74
    units = AuditSpace.build(default_backbone(), default_templates()).units
    assert len(units) == 74
    assert [u.id for u in units] == list(range(74))


def test_single_template_single_layer():
    backbone = BackboneDesc(1, (32,), 10_000)
    units = AuditSpace.build(backbone, [Template(Family.AFFINE_LN, Topology.NONE, 0, Slot.NORM)]).units
    assert len(units) == 1
    assert units[0].params == 64


def test_lora_on_norm_slot_rejected():
    backbone = BackboneDesc(1, (32,), 10_000)
    with pytest.raises(IncompatibleTemplate):
        AuditSpace.build(backbone, [Template(Family.LORA, Topology.SA, 8, Slot.NORM)])


def test_affine_ln_off_norm_rejected():
    backbone = BackboneDesc(1, (32,), 10_000)
    with pytest.raises(IncompatibleTemplate):
        AuditSpace.build(backbone, [Template(Family.AFFINE_LN, Topology.NONE, 0, Slot.ATTENTION)])


def test_empty_schema_rejected():
    with pytest.raises(EmptySpace):
        AuditSpace.build(default_backbone(), [])


def test_kind_invariants():
    with pytest.raises(InvalidParams):
        Template(Family.AFFINE_LN, Topology.SA, 0, Slot.NORM)
    with pytest.raises(InvalidParams):
        Template(Family.LORA, Topology.NONE, 8, Slot.ATTENTION)
    with pytest.raises(InvalidParams):
        Template(Family.LORA, Topology.SA, 0, Slot.ATTENTION)


@pytest.mark.parametrize(
    "kind,hidden,expected",
    [
        (Template(Family.LORA, Topology.SA, 8, Slot.ATTENTION), 768, 12288),
        (Template(Family.ADAPTFORMER, Topology.SAPA, 4, Slot.FEEDFORWARD), 768, 12288),
        (Template(Family.AFFINE_LN, Topology.NONE, 0, Slot.NORM), 48, 96),
        (Template(Family.LORA, Topology.PA, 2, Slot.ATTENTION), 48, 192),
    ],
)
def test_raw_param_count(kind, hidden, expected):
    assert raw_param_count(kind, hidden) == expected


def test_raw_param_count_monotone_in_size_and_dim():
    for topo in (Topology.SA, Topology.PA, Topology.SAPA):
        counts = [raw_param_count(Template(Family.LORA, topo, r, Slot.ATTENTION), 64) for r in (2, 4, 8, 16)]
        assert counts == sorted(counts) and len(set(counts)) == 4
    dims = [raw_param_count(Template(Family.LORA, Topology.SA, 4, Slot.ATTENTION), d) for d in (16, 48, 96)]
    assert dims == sorted(dims) and len(set(dims)) == 3


def test_costs_positive_and_budget_binding():
    costs = default_run_config().budget.costs
    assert np.all(costs > 0.0)
    assert np.all(costs < 1.0)
    # the full space costs far more than any realistic budget
    assert costs.sum() > 10 * 0.002


def test_id_order_lexicographic():
    space = default_space()
    keys = [
        (u.layer, u.slot.value != "Attention", u.slot.value == "Norm", u.family.value)
        for u in space.units
    ]
    # layer-major ordering; attention before feedforward before norm
    layers = [u.layer for u in space.units]
    assert layers == sorted(layers)
    first_layer = [u for u in space.units if u.layer == 0]
    slots = [u.slot for u in first_layer]
    assert slots == sorted(slots, key=lambda s: ["Attention", "FeedForward", "Norm"].index(s.value))


# -- container / serialization ----------------------------------------------

def test_json_roundtrip(tmp_path):
    space = default_space()
    doc = {
        "backbone": {"layers": 2, "hidden_dims": [48, 96], "param_count": 1_500_000},
        "templates": [
            {"family": u.family.value, "topology": u.topology.value,
             "size": u.size, "slot": u.slot.value}
            for u in space.units
            if u.layer == 0
        ],
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    loaded = AuditSpace.from_json(json.loads(path.read_text()))
    assert loaded.n_units == space.n_units
    assert loaded.counts == space.counts
    dump = loaded.to_json()
    assert len(dump["units"]) == 74
    assert dump["units"][0]["id"] == 0


@pytest.mark.parametrize("ids", [[5], [1, 0], [0, 0]], ids=["gap", "out-of-order", "repeat"])
def test_unit_ids_must_run_in_order(ids):
    units = [replace(default_space().units[0], id=i) for i in ids]
    with pytest.raises(InvalidParams, match="unit ids"):
        AuditSpace(default_backbone(), units)


@pytest.mark.parametrize("name", ["id", "layer", "hidden_dim", "params"])
def test_a_unit_refuses_numpy_integers_that_its_dump_could_not_write(name):
    # A numpy integer would pass every check and only fail in `json.dumps`
    # of the space's dump, so it fails where the unit is built.
    unit = default_space().units[0]
    value = np.int64(getattr(unit, name))
    with pytest.raises(InvalidParams) as exc:
        replace(unit, **{name: value})
    assert str(exc.value) == f"unit {name} must be an integer, not {value!r}"
    json.dumps(AuditSpace(default_backbone(), [unit]).to_json())


def test_malformed_schema_rejected():
    with pytest.raises(InvalidParams):
        AuditSpace.from_json({"backbone": {"layers": 1}, "templates": []})



@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(8, 128), min_size=1, max_size=3),
    templates=st.lists(st.sampled_from(default_templates()), min_size=1, max_size=8, unique=True),
    picks=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_generated_space_and_run_config_round_trip_through_json(dims, templates, picks):
    backbone = BackboneDesc(len(dims), tuple(dims), 1_500_000)
    built = AuditSpace.build(backbone, templates)
    budget = Budget(built.counts, backbone.backbone_param_count, default_run_config().allocator.p_max)
    gates = np.zeros(built.n_units, dtype=bool)
    for i in picks:
        gates[i % built.n_units] = True
        if not budget.fits(gates):
            gates[i % built.n_units] = False
    space = AuditSpace(backbone, [replace(u, gate=bool(g)) for u, g in zip(built.units, gates)])

    # Each built unit holds its raw count, and a dump carries it unchanged.
    raw = tuple(raw_param_count(u, u.hidden_dim) for u in built.units)
    assert tuple(u.params for u in built.units) == raw
    loaded = AuditSpace.from_json(space.to_json())
    assert loaded.units == space.units
    assert loaded.counts == space.counts == raw

    cfg = replace(default_run_config(), space=space, oracle_spec=default_oracle_spec(space, seed=len(picks)))
    doc = json.loads(json.dumps(cfg.to_json()))
    reloaded = RunConfig.from_json(doc)
    assert json.loads(json.dumps(reloaded.to_json())) == doc
    assert reloaded.budget.counts.tolist() == cfg.budget.counts.tolist() == list(raw)
    assert reloaded.budget.capacity == cfg.budget.capacity
    assert reloaded.budget.costs.tobytes() == cfg.budget.costs.tobytes()


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_each_writer_writes_the_keys_its_reader_accepts():
    doc = default_run_config().to_json()
    assert set(doc) == field_names(RunConfig) - {"oracle_spec"} | {"oracle"}
    for name, cls in [("oracle", OracleSpec), ("sampler", SamplerParams), ("smoothing", SmoothingParams),
                      ("allocator", AllocatorParams), ("fsm", FsmParams)]:
        assert set(doc[name]) == field_names(cls), name
    assert set(doc["space"]) == {"backbone", "units"}
    assert set(_BACKBONE_KEYS.values()) == field_names(BackboneDesc)
    assert set(doc["space"]["backbone"]) == set(_BACKBONE_KEYS)
    assert all(set(unit) == field_names(AdapterUnit) for unit in doc["space"]["units"])

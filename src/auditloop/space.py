"""Audit-space construction: unit enumeration and parameter counts.

The audit space is the fixed library of candidate adapter units (family x
topology x size x insertion site) that the selection loop gates on and off.
Units are plain frozen dataclasses, and the space is immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import EmptySpace, IncompatibleTemplate, InvalidParams, check_count, check_flag, check_keys, read_doc


class Family(Enum):
    LORA = "LoRA"
    ADAPTFORMER = "AdaptFormer"
    AFFINE_LN = "AffineLN"


class Topology(Enum):
    SA = "SA"
    PA = "PA"
    SAPA = "SAPA"
    NONE = "None"


class Slot(Enum):
    ATTENTION = "Attention"
    FEEDFORWARD = "FeedForward"
    NORM = "Norm"


# Unit ids order slots, families and topologies as their enums declare them.
_RANK = {member: i for enum in (Slot, Family, Topology) for i, member in enumerate(enum)}

DEFAULT_LORA_RANKS = (2, 4, 8, 16)
DEFAULT_ADAPTFORMER_BOTTLENECKS = (4, 8, 16, 32)


@dataclass(frozen=True)
class Template:
    """One adapter variant at one insertion slot: `family/topology/size` at `slot`.

    The one home of the variant rule, for schema rows and units alike: AffineLN
    takes topology None, size 0 and the Norm slot; LoRA and AdaptFormer take an
    SA/PA/SAPA topology, a positive size and any other slot. Enum values may
    be given as their strings.
    """

    family: Family
    topology: Topology
    size: int
    slot: Slot

    def __post_init__(self) -> None:
        for name, enum in (("family", Family), ("topology", Topology), ("slot", Slot)):
            if not isinstance(value := getattr(self, name), enum):
                object.__setattr__(self, name, enum(value))
        check_count("size", self.size, 0)
        if self.family is Family.AFFINE_LN:
            if self.topology is not Topology.NONE or self.size != 0:
                raise InvalidParams("AffineLN kinds use topology None and size 0")
        else:
            if self.topology is Topology.NONE:
                raise InvalidParams(f"{self.family.value} requires an SA/PA/SAPA topology")
            if self.size < 1:
                raise InvalidParams("projection size must be a positive integer")
        if (self.family is Family.AFFINE_LN) != (self.slot is Slot.NORM):
            raise IncompatibleTemplate(f"{self.family.value} cannot attach to the {self.slot.value} slot")


@dataclass(frozen=True)
class AdapterUnit(Template):
    """One gateable candidate in the audit space: a template on one backbone layer.

    `params` is the unit's trainable-parameter count. The run's `Budget`
    reads it over the backbone parameter count, so budgets read as parameter
    percentages.
    """

    id: int
    layer: int
    hidden_dim: int
    params: int
    gate: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, minimum in (("id", 0), ("layer", 0), ("hidden_dim", 1), ("params", 1)):
            check_count(f"unit {name}", getattr(self, name), minimum)
        check_flag("unit gate", self.gate)


@dataclass(frozen=True)
class BackboneDesc:
    """Shape summary of the frozen backbone the space attaches to."""

    num_layers: int
    hidden_dims: tuple[int, ...]
    backbone_param_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        check_count("layers", self.num_layers, 1)
        if len(self.hidden_dims) != self.num_layers:
            raise InvalidParams("hidden_dims length must equal num_layers")
        for d in self.hidden_dims:
            check_count("hidden dim", d, 1)
        check_count("param_count", self.backbone_param_count, 1)


# A space document's backbone key for each `BackboneDesc` field.
_BACKBONE_KEYS = {"layers": "num_layers", "hidden_dims": "hidden_dims", "param_count": "backbone_param_count"}


def raw_param_count(template: Template, hidden_dim: int) -> int:
    """Trainable-parameter count of one unit before budget normalization.

    SA and PA carry one down/up projection pair (2*D*size). SAPA carries an
    independent pair per branch (4*D*size). AffineLN is a scale and shift
    vector (2*D).
    """
    if template.family is Family.AFFINE_LN:
        return 2 * hidden_dim
    per_pair = 2 * hidden_dim * template.size
    return 2 * per_pair if template.topology is Topology.SAPA else per_pair


def default_templates() -> list[Template]:
    """Attention: LoRA ranks x SA/PA/SAPA. Feed-forward: LoRA plus AdaptFormer
    bottlenecks, same topologies. Norm: AffineLN. 37 templates total."""
    out: list[Template] = []
    for topo in (Topology.SA, Topology.PA, Topology.SAPA):
        for r in DEFAULT_LORA_RANKS:
            out.append(Template(Family.LORA, topo, r, Slot.ATTENTION))
    for topo in (Topology.SA, Topology.PA, Topology.SAPA):
        for r in DEFAULT_LORA_RANKS:
            out.append(Template(Family.LORA, topo, r, Slot.FEEDFORWARD))
        for d in DEFAULT_ADAPTFORMER_BOTTLENECKS:
            out.append(Template(Family.ADAPTFORMER, topo, d, Slot.FEEDFORWARD))
    out.append(Template(Family.AFFINE_LN, Topology.NONE, 0, Slot.NORM))
    return out


class AuditSpace:
    """Immutable container over the unit list with derived lookups."""

    def __init__(self, backbone: BackboneDesc, units: Sequence[AdapterUnit]):
        self.backbone = backbone
        self.units: tuple[AdapterUnit, ...] = tuple(units)
        if not self.units:
            raise EmptySpace("audit space has no units")
        if [u.id for u in self.units] != list(range(len(self.units))):
            raise InvalidParams("unit ids must run 0..N-1 in list order")
        # Built and dumped units alike sit on a backbone layer, at its width.
        for u in self.units:
            check_count("unit layer", u.layer, 0, backbone.num_layers - 1)
            if u.hidden_dim != backbone.hidden_dims[u.layer]:
                raise InvalidParams(f"unit {u.id} hidden_dim must be {backbone.hidden_dims[u.layer]}, layer {u.layer}'s")
        self.counts = tuple(u.params for u in self.units)

    @property
    def n_units(self) -> int:
        return len(self.units)

    def initial_gates(self) -> np.ndarray:
        return np.array([u.gate for u in self.units], dtype=bool)

    @classmethod
    def build(cls, backbone: BackboneDesc, templates: Sequence[Template]) -> "AuditSpace":
        """Enumerate one unit per (layer x template), id-ordered lexicographically.

        Ids run 0..N-1 sorted by (layer, slot, family, topology, size) and are
        stable for a run. Every gate starts inactive.
        """
        # A stable sort: equal templates keep their schema order.
        ordered = sorted(templates, key=lambda t: (_RANK[t.slot], _RANK[t.family], _RANK[t.topology], t.size))
        units: list[AdapterUnit] = []
        for layer, d in enumerate(backbone.hidden_dims):
            for tpl in ordered:
                units.append(
                    AdapterUnit(
                        **vars(tpl),
                        id=len(units),
                        layer=layer,
                        hidden_dim=d,
                        params=raw_param_count(tpl, d),
                    )
                )
        return cls(backbone, units)

    @classmethod
    def from_json(cls, doc: dict) -> "AuditSpace":
        """Load a schema document {"backbone": ..., "templates": [...]} or a
        previously dumped space {"backbone": ..., "units": [...]}.

        Backbone keys: `_BACKBONE_KEYS`. Template keys: family, topology,
        size, slot. Unit keys: `AdapterUnit`'s fields, `gate` optional.
        Every object rejects a key it does not know and names one it needs
        and lacks; a dumped space takes no templates.
        """
        try:
            dumped = "units" in doc
            keys = ("backbone", "units") if dumped else ("backbone", "templates")
            check_keys("space", doc, keys, required=keys)
            bb = check_keys("space backbone", doc["backbone"], _BACKBONE_KEYS, required=_BACKBONE_KEYS)
            backbone = BackboneDesc(**{name: bb[key] for key, name in _BACKBONE_KEYS.items()})
            if dumped:
                return cls(backbone, [read_doc(AdapterUnit, "space unit", u) for u in doc["units"]])
            templates = [read_doc(Template, "space template", t) for t in doc["templates"]]
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"malformed space schema: {exc}") from exc
        return cls.build(backbone, templates)

    def to_json(self) -> dict:
        """Dump the generated space for reproducibility: the backbone under
        `_BACKBONE_KEYS` and each unit as its fields, enums by value."""
        return {
            "backbone": {key: getattr(self.backbone, name) for key, name in _BACKBONE_KEYS.items()},
            "units": [{k: v.value if isinstance(v, Enum) else v for k, v in vars(u).items()} for u in self.units],
        }


def default_backbone() -> BackboneDesc:
    """Desk-scale stand-in backbone: 2 stages, 1.5M parameters."""
    return BackboneDesc(
        num_layers=2,
        hidden_dims=(48, 96),
        backbone_param_count=1_500_000,
    )


def default_space() -> AuditSpace:
    """74-unit space: the default schema over the default backbone."""
    return AuditSpace.build(default_backbone(), default_templates())

"""Audit-space construction: unit enumeration and parameter costs.

The audit space is the fixed library of candidate adapter units (family x
topology x size x insertion site) that the selection loop gates on and off.
Units are plain frozen dataclasses; the space is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (EmptySpace, IncompatibleTemplate, InvalidParams, check_count, check_flag, check_keys,
                     check_number, read_doc)


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
class AdapterKind:
    """Family, topology and projection size of one adapter variant."""

    family: Family
    topology: Topology
    size: int

    def __post_init__(self) -> None:
        check_count("size", self.size, 0)
        if self.family is Family.AFFINE_LN:
            if self.topology is not Topology.NONE or self.size != 0:
                raise InvalidParams("AffineLN kinds use topology None and size 0")
        else:
            if self.topology is Topology.NONE:
                raise InvalidParams(f"{self.family.value} requires an SA/PA/SAPA topology")
            if self.size < 1:
                raise InvalidParams("projection size must be a positive integer")


@dataclass(frozen=True)
class Template:
    """One row of a space schema: attach `family/topology/size` at every `slot`."""

    family: Family
    topology: Topology
    size: int
    slot: Slot

    def __post_init__(self) -> None:
        for name, enum in (("family", Family), ("topology", Topology), ("slot", Slot)):
            object.__setattr__(self, name, enum(getattr(self, name)))
        self.kind  # AdapterKind checks family, topology and size
        if (self.family is Family.AFFINE_LN) != (self.slot is Slot.NORM):
            raise IncompatibleTemplate(f"{self.family.value} cannot attach to the {self.slot.value} slot")

    @property
    def kind(self) -> AdapterKind:
        return AdapterKind(self.family, self.topology, self.size)


@dataclass(frozen=True)
class AdapterUnit:
    """One gateable candidate in the audit space.

    `cost` is the unit's trainable-parameter count expressed as a fraction of
    the backbone parameter count, so budgets read as parameter percentages.
    """

    id: int
    kind: AdapterKind
    layer: int
    slot: Slot
    hidden_dim: int
    cost: float
    gate: bool = False


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


def raw_param_count(kind: AdapterKind, hidden_dim: int, *, sapa_shared_weights: bool = False) -> int:
    """Trainable-parameter count of one unit before budget normalization.

    SA and PA carry one down/up projection pair (2*D*size). SAPA carries an
    independent pair per branch (4*D*size) unless `sapa_shared_weights`
    collapses the two branches onto one pair. AffineLN is a scale and shift
    vector (2*D).
    """
    if hidden_dim < 1:
        raise InvalidParams("hidden_dim must be positive")
    if kind.family is Family.AFFINE_LN:
        return 2 * hidden_dim
    per_pair = 2 * hidden_dim * kind.size
    if kind.topology is Topology.SAPA and not sapa_shared_weights:
        return 2 * per_pair
    return per_pair


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
        self.costs = np.array([u.cost for u in self.units], dtype=float)
        if [u.id for u in self.units] != list(range(len(self.units))):
            raise InvalidParams("unit ids must run 0..N-1 in list order")
        if not np.all(np.isfinite(self.costs) & (self.costs > 0.0)):
            raise InvalidParams("every unit must have a positive finite cost")

    @property
    def n_units(self) -> int:
        return len(self.units)

    def initial_gates(self) -> np.ndarray:
        return np.array([u.gate for u in self.units], dtype=bool)

    @classmethod
    def build(
        cls,
        backbone: BackboneDesc,
        templates: Sequence[Template],
        *,
        sapa_shared_weights: bool = False,
    ) -> "AuditSpace":
        """Enumerate one unit per (layer x template), id-ordered lexicographically.

        Ids run 0..N-1 sorted by (layer, slot, family, topology, size) and are
        stable for a run. Every gate starts inactive.
        """
        kinds = [t.kind for t in templates]
        if not templates:
            raise EmptySpace("schema contains no templates")

        keyed = []
        for layer in range(backbone.num_layers):
            d = backbone.hidden_dims[layer]
            for tpl, kind in zip(templates, kinds):
                key = (
                    layer,
                    _RANK[tpl.slot],
                    _RANK[tpl.family],
                    _RANK[tpl.topology],
                    tpl.size,
                )
                keyed.append((key, layer, tpl, kind, d))
        # Sort on the key alone: equal keys must not fall through to Template.
        keyed.sort(key=lambda item: item[0])

        units: list[AdapterUnit] = []
        for uid, (_, layer, tpl, kind, d) in enumerate(keyed):
            raw = raw_param_count(kind, d, sapa_shared_weights=sapa_shared_weights)
            units.append(
                AdapterUnit(
                    id=uid,
                    kind=kind,
                    layer=layer,
                    slot=tpl.slot,
                    hidden_dim=d,
                    cost=raw / backbone.backbone_param_count,
                )
            )
        return cls(backbone, units)

    @classmethod
    def from_json(cls, doc: dict) -> "AuditSpace":
        """Load a schema document {"backbone": ..., "templates": [...]} or a
        previously dumped space {"backbone": ..., "units": [...]}.

        Backbone keys: layers, hidden_dims, param_count. Template keys:
        family, topology, size, slot. Optional schema flag: sapa_shared_weights.
        Every object rejects a key it does not know; a dumped space takes no templates.
        """
        try:
            dumped = "units" in doc
            check_keys("space", doc, ("backbone", "units") if dumped else ("backbone", "templates", "sapa_shared_weights"))
            bb = check_keys("space backbone", doc["backbone"], ("layers", "hidden_dims", "param_count"))
            backbone = BackboneDesc(
                num_layers=bb["layers"],
                hidden_dims=tuple(bb["hidden_dims"]),
                backbone_param_count=bb["param_count"],
            )
            if dumped:
                for u in doc["units"]:
                    check_keys("space unit", u, ("id", "family", "topology", "size", "layer", "slot", "hidden_dim",
                                                 "cost", "gate"))
                    for key, minimum in (("id", 0), ("layer", 0), ("hidden_dim", 1)):
                        check_count(f"unit {key}", u[key], minimum)
                    check_flag("unit gate", u.get("gate", False))
                units = [
                    AdapterUnit(
                        id=u["id"],
                        kind=AdapterKind(Family(u["family"]), Topology(u["topology"]), u["size"]),
                        layer=u["layer"],
                        slot=Slot(u["slot"]),
                        hidden_dim=u["hidden_dim"],
                        cost=check_number("unit cost", u["cost"]),
                        gate=u.get("gate", False),
                    )
                    for u in doc["units"]
                ]
                return cls(backbone, units)
            templates = [read_doc(Template, "space template", t) for t in doc["templates"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"malformed space schema: {exc}") from exc
        shared = doc.get("sapa_shared_weights", False)
        check_flag("sapa_shared_weights", shared)
        return cls.build(backbone, templates, sapa_shared_weights=shared)

    def to_json(self) -> dict:
        """Dump the generated space (id -> unit descriptor) for reproducibility."""
        return {
            "backbone": {
                "layers": self.backbone.num_layers,
                "hidden_dims": list(self.backbone.hidden_dims),
                "param_count": self.backbone.backbone_param_count,
            },
            "units": [
                {
                    "id": u.id,
                    "family": u.kind.family.value,
                    "topology": u.kind.topology.value,
                    "size": u.kind.size,
                    "layer": u.layer,
                    "slot": u.slot.value,
                    "hidden_dim": u.hidden_dim,
                    "cost": u.cost,
                    "gate": u.gate,
                }
                for u in self.units
            ],
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

"""JSON (de)serialization of designs, run results and specs.

Optimization runs are cheap but not free; a deployment flow wants to
pin the chosen accelerator configuration in version control and reload
it for HLS generation, simulation, or scheduling without re-searching.
Serve and fleet results, scenarios and SLOs are pinned the same way, as
evidence next to the design they exercised.  The format is plain JSON;
top-level design, result and scenario records carry a schema version
for forward evolution.

Designs, networks, layers, CLPs and budgets are written by hand: CLPs
reference layers by name and designs add derived summary fields.  Every
other record is a frozen dataclass and goes through one codec,
:func:`to_record` / :func:`from_record`, driven by the dataclass fields
and their type hints.  Its format rules live here and nowhere else:

* A record holds its fields in declaration order.  The fields listed in
  ``_OMIT_DEFAULT`` were added after schema 1 and are written only when
  they differ from their default, so a run that does not use them
  writes exactly the record an older writer wrote.
* A field typed with a class that has a ``kind`` class attribute (fault
  specs, surge shapes) is a tagged union: ``"kind"`` is written first
  and picks the subclass on decode.
* Decoding is strict.  Scalars are coerced by annotation, an absent
  field takes its default (``None`` for an ``Optional`` field without
  one), and a missing required field, an unknown key or an unknown
  ``kind`` raises :class:`ValueError` naming the record type.  Only the
  records in ``_IGNORE_UNKNOWN`` skip unknown keys.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Any, Callable, Dict, List, Optional

from .clp import CLPConfig
from .datatypes import DataType
from .design import MultiCLPDesign
from .layer import ConvLayer
from .network import Network

__all__ = [
    "to_record",
    "from_record",
    "layer_to_dict",
    "layer_from_dict",
    "network_to_dict",
    "network_from_dict",
    "clp_to_dict",
    "clp_from_dict",
    "budget_to_dict",
    "budget_from_dict",
    "design_to_dict",
    "design_from_dict",
    "dump_design",
    "load_design",
    "serve_result_to_dict",
    "serve_result_from_dict",
    "dump_serve_result",
    "load_serve_result",
    "fleet_result_to_dict",
    "fleet_result_from_dict",
    "dump_fleet_result",
    "load_fleet_result",
    "timeseries_to_dict",
    "timeseries_from_dict",
    "scenario_spec_to_dict",
    "scenario_spec_from_dict",
    "slo_spec_to_dict",
    "slo_spec_from_dict",
    "SCHEMA_VERSION",
    "SERVE_SCHEMA_VERSION",
    "FLEET_SCHEMA_VERSION",
    "SCENARIO_SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

SERVE_SCHEMA_VERSION = 1

FLEET_SCHEMA_VERSION = 1

SCENARIO_SCHEMA_VERSION = 1


def layer_to_dict(layer: ConvLayer) -> Dict[str, Any]:
    return {
        "name": layer.name,
        "n": layer.n,
        "m": layer.m,
        "r": layer.r,
        "c": layer.c,
        "k": layer.k,
        "s": layer.s,
    }


def layer_from_dict(data: Dict[str, Any]) -> ConvLayer:
    try:
        return ConvLayer(
            name=data["name"],
            n=int(data["n"]),
            m=int(data["m"]),
            r=int(data["r"]),
            c=int(data["c"]),
            k=int(data["k"]),
            s=int(data["s"]),
        )
    except KeyError as missing:
        raise ValueError(f"layer record missing field {missing}") from None


def network_to_dict(network: Network) -> Dict[str, Any]:
    return {
        "name": network.name,
        "layers": [layer_to_dict(layer) for layer in network],
    }


def network_from_dict(data: Dict[str, Any]) -> Network:
    return Network(
        data["name"], [layer_from_dict(entry) for entry in data["layers"]]
    )


def clp_to_dict(clp: CLPConfig) -> Dict[str, Any]:
    """A JSON-ready CLP record; layers are referenced by name."""
    return {
        "tn": clp.tn,
        "tm": clp.tm,
        "layers": list(clp.layer_names),
        "tile_plans": [list(plan) for plan in clp.tile_plans],
    }


def clp_from_dict(
    record: Dict[str, Any], network: Network, dtype: DataType
) -> CLPConfig:
    """Rebuild a CLP from its record, resolving layer names in ``network``."""
    names = record["layers"]
    try:
        layers = [network.layer_by_name(name) for name in names]
    except KeyError as unknown:
        raise ValueError(unknown.args[0]) from None
    return CLPConfig(
        tn=int(record["tn"]),
        tm=int(record["tm"]),
        layers=layers,
        dtype=dtype,
        tile_plans=[tuple(plan) for plan in record["tile_plans"]],
    )


def budget_to_dict(budget: "ResourceBudget") -> Dict[str, Any]:
    return {
        "dsp": budget.dsp,
        "bram18k": budget.bram18k,
        "bandwidth_gbps": budget.bandwidth_gbps,
        "frequency_mhz": budget.frequency_mhz,
    }


def budget_from_dict(data: Dict[str, Any]) -> "ResourceBudget":
    from ..fpga.parts import ResourceBudget

    return ResourceBudget(
        dsp=int(data["dsp"]),
        bram18k=int(data["bram18k"]),
        bandwidth_gbps=(
            None if data.get("bandwidth_gbps") is None
            else float(data["bandwidth_gbps"])
        ),
        frequency_mhz=float(data.get("frequency_mhz", 100.0)),
    )


def design_to_dict(design: MultiCLPDesign) -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a design."""
    return {
        "schema": SCHEMA_VERSION,
        "dtype": design.dtype.label,
        "network": network_to_dict(design.network),
        "clps": [clp_to_dict(clp) for clp in design.clps],
        # Redundant summary fields for human diffing; ignored on load.
        "summary": {
            "epoch_cycles": design.epoch_cycles,
            "dsp": design.dsp,
            "bram": design.bram,
            "utilization": design.arithmetic_utilization,
        },
    }


def design_from_dict(data: Dict[str, Any]) -> MultiCLPDesign:
    """Rebuild a design; any malformed record raises :class:`ValueError`."""
    if not isinstance(data, dict):
        raise ValueError(
            f"design record must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported design schema {schema!r}; expected {SCHEMA_VERSION}"
        )
    try:
        network = network_from_dict(data["network"])
        dtype = DataType.from_name(data["dtype"])
        clps: List[CLPConfig] = [
            clp_from_dict(record, network, dtype) for record in data["clps"]
        ]
    except KeyError as missing:
        raise ValueError(f"design record missing field {missing}") from None
    return MultiCLPDesign(network=network, clps=clps, dtype=dtype)


# ------------------------------------------------------- dataclass records
#: Fields written only when they differ from their default, by record
#: type name.  Each was added after its record's schema 1, so a run that
#: does not use it writes exactly the record an older writer wrote.
_OMIT_DEFAULT: Dict[str, tuple] = {
    "TenantStats": (
        "rejected", "expired", "retries", "hedges", "late", "priority",
        "timed_out", "failed_over",
    ),
    "ServeResult": ("timeseries", "overload"),
    "FleetResult": ("timeseries", "overload", "detector"),
    "ResilienceReport": ("mean_time_to_detect_cycles",),
    "SLOSpec": ("deadline_ms", "min_goodput_rps"),
    "OverloadSpec": ("admission", "retry", "brownout", "deadline_ms"),
    "ScenarioSpec": ("surge", "overload", "detector"),
}

#: Record types whose decoder skips unknown keys rather than rejecting
#: them, so a detector spec from a newer writer still loads.
_IGNORE_UNKNOWN = ("DetectorSpec",)

#: Scalar annotations and how a decoded JSON value is coerced to them.
_SCALARS = {int: int, float: float, str: str, bool: bool}


def to_record(value: Any) -> Dict[str, Any]:
    """JSON-ready record of a dataclass instance (see the module rules)."""
    return _encoder(type(value))(value)


def from_record(cls: type, data: Any) -> Any:
    """Rebuild an instance of dataclass or tagged base ``cls`` from ``data``."""
    return _decoder(cls)(data)


def _is_record(hint: Any) -> bool:
    return isinstance(hint, type) and (
        dataclasses.is_dataclass(hint) or _is_tagged(hint)
    )


def _is_tagged(cls: type) -> bool:
    """True for a class whose ``kind`` is a class attribute, not a field."""
    return isinstance(getattr(cls, "kind", None), str) and (
        "kind" not in getattr(cls, "__dataclass_fields__", ())
    )


def _field_hints(cls: type) -> Dict[str, Any]:
    """Resolved field annotations, including names that result records
    import only under ``TYPE_CHECKING`` (imported here, on first use)."""
    from ..fleet.detector import DetectorSpec
    from ..obs.telemetry import TimeSeries
    from ..serve.overload import OverloadReport

    return typing.get_type_hints(cls, localns={
        "DetectorSpec": DetectorSpec,
        "OverloadReport": OverloadReport,
        "TimeSeries": TimeSeries,
    })


def _optional_inner(hint: Any) -> Any:
    """``X`` for ``Optional[X]``, else ``None``."""
    if typing.get_origin(hint) is typing.Union:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return None


def _converter(
    hint: Any, leaf: Callable[[Any], Optional[Callable[[Any], Any]]]
) -> Optional[Callable[[Any], Any]]:
    """Converter for values of type ``hint``; ``None`` keeps them as is.

    ``Optional``, tuples, lists and dicts are unwrapped here; ``leaf``
    gives the converter for anything else.
    """
    inner = _optional_inner(hint)
    if inner is not None:
        convert = _converter(inner, leaf)
        if convert is None:
            return None
        return lambda value: None if value is None else convert(value)
    origin = typing.get_origin(hint)
    if origin in (tuple, list):
        convert = _converter(typing.get_args(hint)[0], leaf)
        if convert is None:
            return origin
        return lambda values: origin(map(convert, values))
    if origin is dict:
        convert = _converter(typing.get_args(hint)[1], leaf)
        if convert is None:
            return dict
        return lambda mapping: {
            key: convert(value) for key, value in mapping.items()
        }
    return leaf(hint)


@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Dict[str, Any]]:
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} is not a dataclass record")
    hints = _field_hints(cls)
    omit = _OMIT_DEFAULT.get(cls.__name__, ())
    leaf = lambda hint: to_record if _is_record(hint) else None  # noqa: E731
    plan = [
        (f.name, _converter(hints[f.name], leaf), f.name in omit, f.default)
        for f in dataclasses.fields(cls)
    ]
    kind = cls.kind if _is_tagged(cls) else None

    def encode(value: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {} if kind is None else {"kind": kind}
        for name, convert, omittable, default in plan:
            item = getattr(value, name)
            if omittable and item == default:
                continue
            record[name] = item if convert is None else convert(item)
        return record

    return encode


def _decode_leaf(hint: Any) -> Optional[Callable[[Any], Any]]:
    if hint in _SCALARS:
        return _SCALARS[hint]
    return _decoder(hint) if _is_record(hint) else None


def _not_an_object(name: str, data: Any) -> ValueError:
    return ValueError(
        f"{name} record must be a JSON object, got {type(data).__name__}"
    )


@functools.lru_cache(maxsize=None)
def _decoder(cls: type) -> Callable[[Any], Any]:
    if not dataclasses.is_dataclass(cls):
        if _is_tagged(cls):
            return _tagged_decoder(cls)
        raise TypeError(f"{cls.__name__} is not a dataclass record")
    hints = _field_hints(cls)
    fields = dataclasses.fields(cls)
    decoders = {
        f.name: _converter(hints[f.name], _decode_leaf) or (lambda v: v)
        for f in fields
    }
    no_default = [
        f.name for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    required = [n for n in no_default if _optional_inner(hints[n]) is None]
    required_keys = frozenset(required)
    implied_none = [n for n in no_default if n not in required_keys]
    skip = {"kind"} if _is_tagged(cls) else set()
    ignore_unknown = cls.__name__ in _IGNORE_UNKNOWN
    type_name = cls.__name__

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _not_an_object(type_name, data)
        kwargs: Dict[str, Any] = {}
        try:
            for key, value in data.items():
                convert = decoders.get(key)
                if convert is not None:
                    kwargs[key] = convert(value)
                elif not (ignore_unknown or key in skip):
                    raise ValueError(
                        f"{type_name} record has unknown field {key!r}"
                    )
        except TypeError as exc:
            raise ValueError(
                f"{type_name} record field {key!r}: {exc}"
            ) from None
        if not kwargs.keys() >= required_keys:
            missing = next(name for name in required if name not in kwargs)
            raise ValueError(f"{type_name} record missing field {missing!r}")
        for name in implied_none:
            kwargs.setdefault(name, None)
        return cls(**kwargs)

    return decode


def _tagged_decoder(base: type) -> Callable[[Any], Any]:
    """Decode a record into the subclass of ``base`` its ``kind`` names."""

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _not_an_object(base.__name__, data)
        kinds: Dict[str, type] = {}
        pending = [base]
        while pending:
            for sub in pending.pop().__subclasses__():
                if "kind" in vars(sub) and dataclasses.is_dataclass(sub):
                    kinds.setdefault(sub.kind, sub)
                pending.append(sub)
        kind = data.get("kind")
        if kind not in kinds:
            raise ValueError(
                f"unknown {base.__name__} kind {kind!r}; "
                f"known: {', '.join(kinds)}"
            )
        return _decoder(kinds[kind])(data)

    return decode


def _unversioned(
    data: Any, version: int, what: str, *, optional: bool = False
) -> Dict[str, Any]:
    """``data`` less its ``schema`` key, after checking the version
    (``optional``: a record without the key is accepted)."""
    if not isinstance(data, dict):
        raise _not_an_object(what, data)
    schema = data.get("schema", version if optional else None)
    if schema != version:
        raise ValueError(
            f"unsupported {what} schema {schema!r}; expected {version}"
        )
    return {key: value for key, value in data.items() if key != "schema"}


# ---------------------------------------------------- result/spec records
def serve_result_to_dict(result: "ServeResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a traffic simulation.

    Load-test results are evidence: pinning them next to the design they
    exercised lets a deployment diff serving behaviour across optimizer
    or model changes the same way it diffs designs.
    """
    return {**to_record(result), "schema": SERVE_SCHEMA_VERSION}


def serve_result_from_dict(data: Dict[str, Any]) -> "ServeResult":
    from ..serve.metrics import ServeResult

    return from_record(
        ServeResult, _unversioned(data, SERVE_SCHEMA_VERSION, "serve-result")
    )


def fleet_result_to_dict(result: "FleetResult") -> Dict[str, Any]:
    """A self-contained, JSON-ready record of a fleet simulation.

    Same rationale as serve results: a capacity decision ("4 boards of
    this design meet the SLO") is evidence worth pinning next to the
    design and traffic assumptions it was derived from.
    """
    return {**to_record(result), "schema": FLEET_SCHEMA_VERSION}


def fleet_result_from_dict(data: Dict[str, Any]) -> "FleetResult":
    from ..fleet.metrics import FleetResult

    return from_record(
        FleetResult, _unversioned(data, FLEET_SCHEMA_VERSION, "fleet-result")
    )


def timeseries_to_dict(timeseries: "TimeSeries") -> Dict[str, Any]:
    """JSON-ready record of run telemetry (results embed the same shape)."""
    return to_record(timeseries)


def timeseries_from_dict(
    data: Optional[Dict[str, Any]],
) -> Optional["TimeSeries"]:
    """Rebuild telemetry from a result record; ``None`` passes through."""
    from ..obs.telemetry import TimeSeries

    return None if data is None else from_record(TimeSeries, data)


def scenario_spec_to_dict(spec: "ScenarioSpec") -> Dict[str, Any]:
    """JSON-ready record of a scenario spec (faults, surge, policy)."""
    return {**to_record(spec), "schema": SCENARIO_SCHEMA_VERSION}


def scenario_spec_from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
    """Rebuild a scenario spec written by :func:`scenario_spec_to_dict`."""
    from ..scenario.library import ScenarioSpec

    return from_record(ScenarioSpec, _unversioned(
        data, SCENARIO_SCHEMA_VERSION, "scenario", optional=True
    ))


def slo_spec_to_dict(slo: "SLOSpec") -> Dict[str, Any]:
    """JSON-ready record of an SLO contract."""
    return to_record(slo)


def slo_spec_from_dict(data: Dict[str, Any]) -> "SLOSpec":
    """Rebuild an SLO spec; absent clauses keep their defaults."""
    from ..serve.slo import SLOSpec

    return from_record(SLOSpec, data)


def dump_fleet_result(result: "FleetResult", path: str) -> None:
    """Write a fleet-simulation result to a JSON file."""
    with open(path, "w") as handle:
        json.dump(fleet_result_to_dict(result), handle, indent=2)
        handle.write("\n")


def load_fleet_result(path: str) -> "FleetResult":
    """Load a result written by :func:`dump_fleet_result`."""
    with open(path) as handle:
        return fleet_result_from_dict(json.load(handle))


def dump_serve_result(result: "ServeResult", path: str) -> None:
    """Write a traffic-simulation result to a JSON file."""
    with open(path, "w") as handle:
        json.dump(serve_result_to_dict(result), handle, indent=2)
        handle.write("\n")


def load_serve_result(path: str) -> "ServeResult":
    """Load a result written by :func:`dump_serve_result`."""
    with open(path) as handle:
        return serve_result_from_dict(json.load(handle))


def dump_design(design: MultiCLPDesign, path: str) -> None:
    """Write a design to a JSON file."""
    with open(path, "w") as handle:
        json.dump(design_to_dict(design), handle, indent=2)
        handle.write("\n")


def load_design(path: str) -> MultiCLPDesign:
    """Load a design from a JSON file written by :func:`dump_design`."""
    with open(path) as handle:
        return design_from_dict(json.load(handle))

"""Tests for design/network JSON serialization."""

import json
import os

import pytest

from repro.core.clp import CLPConfig
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.design import MultiCLPDesign
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.core.serialize import (
    SCHEMA_VERSION,
    design_from_dict,
    design_to_dict,
    dump_design,
    dump_fleet_result,
    fleet_result_from_dict,
    layer_from_dict,
    layer_to_dict,
    load_design,
    load_fleet_result,
    network_from_dict,
    network_to_dict,
    serve_result_from_dict,
    slo_spec_from_dict,
    slo_spec_to_dict,
)
from repro.networks import alexnet
from repro.scenario.faults import RackFailure, fault_from_dict, fault_to_dict
from repro.scenario.library import (
    DiurnalShape,
    ScenarioSpec,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.serve.overload import (
    OverloadSpec,
    RetryPolicy,
    overload_spec_from_dict,
    overload_spec_to_dict,
)
from repro.serve.slo import SLOSpec


@pytest.fixture
def design():
    layers = [
        ConvLayer("a", n=16, m=32, r=13, c=13, k=3),
        ConvLayer("b", n=32, m=64, r=13, c=13, k=3),
    ]
    net = Network("toy", layers)
    clps = [
        CLPConfig(4, 16, [layers[0]], FLOAT32, [(13, 13)]),
        CLPConfig(8, 16, [layers[1]], FLOAT32, [(7, 13)]),
    ]
    return MultiCLPDesign(net, clps, FLOAT32)


class TestLayerRoundTrip:
    def test_round_trip(self):
        layer = ConvLayer("x", n=3, m=48, r=55, c=55, k=11, s=4)
        assert layer_from_dict(layer_to_dict(layer)) == layer

    def test_missing_field(self):
        with pytest.raises(ValueError):
            layer_from_dict({"name": "x", "n": 1})


class TestNetworkRoundTrip:
    def test_round_trip(self):
        net = alexnet()
        restored = network_from_dict(network_to_dict(net))
        assert restored.name == net.name
        assert restored.layers == net.layers

    def test_json_serializable(self):
        json.dumps(network_to_dict(alexnet()))


class TestDesignRoundTrip:
    def test_round_trip_preserves_everything(self, design):
        restored = design_from_dict(design_to_dict(design))
        assert restored.dtype is design.dtype
        assert restored.epoch_cycles == design.epoch_cycles
        assert restored.dsp == design.dsp
        assert restored.bram == design.bram
        assert [c.tile_plans for c in restored.clps] == [
            c.tile_plans for c in design.clps
        ]

    def test_summary_fields_present(self, design):
        record = design_to_dict(design)
        assert record["schema"] == SCHEMA_VERSION
        assert record["summary"]["epoch_cycles"] == design.epoch_cycles

    def test_wrong_schema_rejected(self, design):
        record = design_to_dict(design)
        record["schema"] = 99
        with pytest.raises(ValueError):
            design_from_dict(record)

    def test_fixed16_round_trip(self):
        layer = ConvLayer("a", n=8, m=8, r=8, c=8, k=3)
        net = Network("n", [layer])
        design = MultiCLPDesign(
            net, [CLPConfig(2, 4, [layer], FIXED16)], FIXED16
        )
        restored = design_from_dict(design_to_dict(design))
        assert restored.dtype is FIXED16

    def test_file_round_trip(self, design, tmp_path):
        path = tmp_path / "design.json"
        dump_design(design, str(path))
        restored = load_design(str(path))
        assert restored.epoch_cycles == design.epoch_cycles
        # The file should be human-readable JSON.
        parsed = json.loads(path.read_text())
        assert parsed["network"]["name"] == "toy"

    def test_optimized_design_round_trip(self):
        from repro.analysis.tables import design_for

        design = design_for("alexnet", "485t", "float32", single=False)
        restored = design_from_dict(design_to_dict(design))
        assert restored.epoch_cycles == design.epoch_cycles
        assert restored.arithmetic_utilization == pytest.approx(
            design.arithmetic_utilization
        )


def _drop_clps(record):
    del record["clps"]
    return record


def _unknown_layer(record):
    record["clps"][0]["layers"][0] = "conv9"
    return record


class TestMalformedDesign:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_drop_clps, "design record missing field 'clps'"),
            (_unknown_layer, "network 'toy' has no layer 'conv9'"),
            (lambda record: [record],
             "design record must be a JSON object, got list"),
        ],
        ids=["no-clps", "unknown-layer", "top-level-list"],
    )
    def test_raises_value_error(self, design, mutate, message):
        record = mutate(design_to_dict(design))
        with pytest.raises(ValueError) as excinfo:
            design_from_dict(record)
        assert str(excinfo.value) == message


# ------------------------------------------------------- dataclass records
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SAMPLES = ["sample_fleet_run.json", "sample_overload_run.json"]


@pytest.mark.parametrize("filename", SAMPLES)
def test_sample_run_redumps_byte_for_byte(filename, tmp_path):
    source = os.path.join(DATA_DIR, filename)
    out = tmp_path / filename
    dump_fleet_result(load_fleet_result(source), str(out))
    with open(source, "rb") as handle:
        assert out.read_bytes() == handle.read()


def _fleet_record():
    with open(os.path.join(DATA_DIR, "sample_fleet_run.json")) as handle:
        return json.load(handle)


def _serve_record():
    fleet = _fleet_record()
    return {
        "design_label": "toy",
        "num_clps": 1,
        "epoch_cycles": 10.0,
        "pipeline_depths": [1],
        "frequency_mhz": 100.0,
        "horizon_cycles": 1000.0,
        "elapsed_cycles": 1000.0,
        "seed": 0,
        "queue_depth": 4,
        "policy": "drop-tail",
        "drained": True,
        "tenants": fleet["tenants"][:1],
        "clp_busy_fraction": [0.5],
        "schema": 1,
    }


def _scenario_record():
    return scenario_to_dict(ScenarioSpec(
        name="drill", faults=(RackFailure(),), surge=DiurnalShape()
    ))


#: (loader, valid record factory, a required field or None).
DECODERS = {
    "serve": (serve_result_from_dict, _serve_record, "design_label"),
    "fleet": (fleet_result_from_dict, _fleet_record, "balancer"),
    "scenario": (scenario_from_dict, _scenario_record, "name"),
    "fault": (fault_from_dict, lambda: fault_to_dict(RackFailure()), None),
    "overload": (
        overload_spec_from_dict,
        lambda: overload_spec_to_dict(
            OverloadSpec(queue_policy="edf", retry=RetryPolicy())
        ),
        None,
    ),
    "slo": (
        slo_spec_from_dict,
        lambda: slo_spec_to_dict(SLOSpec(p99_ms=10.0)),
        None,
    ),
}


class TestDecodeContract:
    @pytest.mark.parametrize("name", sorted(DECODERS))
    def test_valid_record_loads(self, name):
        load, record, _ = DECODERS[name]
        load(record())

    @pytest.mark.parametrize("name", sorted(DECODERS))
    def test_unknown_key_raises(self, name):
        load, make, _ = DECODERS[name]
        record = make()
        record["bogus"] = 1
        with pytest.raises(ValueError, match="unknown field 'bogus'"):
            load(record)

    @pytest.mark.parametrize("name", ["serve", "fleet"])
    def test_unknown_nested_key_raises(self, name):
        load, make, _ = DECODERS[name]
        record = make()
        record["tenants"][0]["latency"]["bogus"] = 1
        with pytest.raises(
            ValueError, match="LatencySummary record has unknown field 'bogus'"
        ):
            load(record)

    @pytest.mark.parametrize(
        "name", [n for n in sorted(DECODERS) if DECODERS[n][2]]
    )
    def test_missing_required_field_raises(self, name):
        load, make, field = DECODERS[name]
        record = make()
        del record[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            load(record)

    @pytest.mark.parametrize("name", ["serve", "fleet"])
    def test_missing_nested_field_raises(self, name):
        load, make, _ = DECODERS[name]
        record = make()
        del record["tenants"][0]["arrivals"]
        with pytest.raises(
            ValueError, match="TenantStats record missing field 'arrivals'"
        ):
            load(record)

    @pytest.mark.parametrize(
        "name, path",
        [
            ("fault", ()),
            ("scenario", ("faults", 0)),
            ("scenario", ("surge",)),
        ],
        ids=["fault", "scenario-fault", "scenario-surge"],
    )
    def test_unknown_kind_raises(self, name, path):
        load, make, _ = DECODERS[name]
        record = make()
        target = record
        for step in path:
            target = target[step]
        target["kind"] = "meteor"
        with pytest.raises(ValueError, match="kind 'meteor'"):
            load(record)

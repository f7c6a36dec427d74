"""Regression pins: freshly optimized designs vs the paper's tables.

Two nets, different mesh sizes:

* a *band* against `repro.analysis.paper_data` (the numbers published
  in the paper) — the reproduction must keep matching Table 1 within
  the tolerance it achieves today;
* an *exact pin* of the optimizer's current output (epoch cycles are
  integers, so equality is meaningful) — any refactor of opt/ or core/
  that shifts a result, even while staying inside the paper band, must
  show up as a diff in this file rather than drift silently;
* a *full-design pin*: the SHA-256 of each design's tile plans, per-CLP
  BRAM and bandwidth, so a memory-optimizer change that moves tiles or
  BRAM without moving the epoch cannot pass unseen either.

If an intentional model change moves these numbers, update the pins in
the same commit and say why.
"""

import hashlib
import json

import pytest

from repro.analysis import paper_data
from repro.analysis.tables import design_for

#: Tolerance of the paper-band check: today's worst deviation across the
#: pinned scenarios is ~0.022 (multi-CLP utilization, where tie-breaking
#: differs from the authors' solver); 0.035 leaves headroom without
#: letting a real regression through.
PAPER_TOLERANCE = 0.035

#: (network, part, dtype, single) -> exact epoch cycles reproduced today.
EPOCH_PINS = {
    ("alexnet", "485t", "float32", True): 2_005_892,
    ("alexnet", "485t", "float32", False): 1_530_900,
    ("alexnet", "690t", "float32", True): 1_768_724,
    ("alexnet", "690t", "float32", False): 1_168_128,
    ("squeezenet", "485t", "fixed16", True): 347_965,
    ("squeezenet", "485t", "fixed16", False): 181_888,
    ("googlenet", "690t", "float32", True): 3_517_416,
    ("googlenet", "690t", "float32", False): 2_800_840,
}

#: SHA-256 of :func:`_design_fingerprint` for every EPOCH_PINS scenario.
DESIGN_PINS = {
    ("alexnet", "485t", "float32", True):
        "b403187be697c974ebc746fdea22ce2db9943b691265b498dbd79db61cf0cc65",
    ("alexnet", "485t", "float32", False):
        "31dc362f566a84a6214d89a572441a6e5e2828ab77dca37c473e664cf2c9e627",
    ("alexnet", "690t", "float32", True):
        "bc2e57d088dbd50f13ec53861f6752a079ae1e28d1dce7fd999634c2d191a03a",
    ("alexnet", "690t", "float32", False):
        "b0669eb95885b29cdce33a2148acd1c7322a8e4354f6760f049f9079a51739a9",
    ("squeezenet", "485t", "fixed16", True):
        "e4eecb2210f23438f39c9b72cfe0356049ff59bb1bd99eb2ab6f740200911cbc",
    ("squeezenet", "485t", "fixed16", False):
        "7ce787587f1349f07d101a99cb6899be88351e7df3412593ea9156e8cc20127f",
    ("googlenet", "690t", "float32", True):
        "56e5461b49ee99aa5dfe4ec2c1119e2eb3aa8a970521c2c2f76841de8aac80f1",
    ("googlenet", "690t", "float32", False):
        "23a885501c157059252c61da01b4bbe1d673d175a0dbbd46a5e09d82459a4f61",
}

SCENARIOS = sorted(EPOCH_PINS)


def _design_fingerprint(design) -> str:
    """SHA-256 of the design's CLPs (grid, layers, tile plans, BRAM) and
    its 2%-slack bandwidth, as canonical JSON."""
    record = {
        "clps": [
            {
                "tn": clp.tn,
                "tm": clp.tm,
                "layers": list(clp.layer_names),
                "tile_plans": [list(plan) for plan in clp.tile_plans],
                "bram": clp.bram,
            }
            for clp in design.clps
        ],
        "bandwidth": design.required_bandwidth_bytes_per_cycle(),
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenario_id(scenario):
    network, part, dtype, single = scenario
    return f"{network}-{part}-{dtype}-{'single' if single else 'multi'}"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_utilization_stays_in_paper_band(scenario):
    network, part, dtype, single = scenario
    design = design_for(network, part, dtype, single)
    paper_single, paper_multi = paper_data.TABLE1_UTILIZATION[
        (part, dtype, network)
    ]
    expected = paper_single if single else paper_multi
    assert design.arithmetic_utilization == pytest.approx(
        expected, abs=PAPER_TOLERANCE
    ), f"{_scenario_id(scenario)} drifted from the published Table 1 value"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_epoch_cycles_pinned_exactly(scenario):
    network, part, dtype, single = scenario
    design = design_for(network, part, dtype, single)
    assert design.epoch_cycles == EPOCH_PINS[scenario], (
        f"{_scenario_id(scenario)}: optimizer output moved; if this is an "
        "intentional model change, update EPOCH_PINS in the same commit"
    )


def test_pins_cover_the_same_scenarios():
    assert sorted(DESIGN_PINS) == SCENARIOS


@pytest.mark.parametrize("scenario", SCENARIOS, ids=_scenario_id)
def test_full_design_pinned_exactly(scenario):
    network, part, dtype, single = scenario
    design = design_for(network, part, dtype, single)
    assert _design_fingerprint(design) == DESIGN_PINS[scenario], (
        f"{_scenario_id(scenario)}: tile plans, BRAM or bandwidth moved; if "
        "this is an intentional model change, update DESIGN_PINS in the "
        "same commit"
    )


def test_multi_always_beats_single():
    """The paper's headline claim, re-derived from fresh optimizer runs."""
    for (network, part, dtype, single), _ in EPOCH_PINS.items():
        if single:
            continue
        multi = design_for(network, part, dtype, False)
        single_design = design_for(network, part, dtype, True)
        assert multi.epoch_cycles < single_design.epoch_cycles
        assert (
            multi.arithmetic_utilization > single_design.arithmetic_utilization
        )

"""End-to-end optimizer tests pinned to the paper's evaluation numbers."""

import pytest

from repro.core.datatypes import FIXED16, FLOAT32
from repro.fpga import budget_for
from repro.networks import alexnet, googlenet, squeezenet, vggnet_e
from repro.opt import (
    OptimizationError,
    minimum_possible_cycles,
    optimize_multi_clp,
    optimize_single_clp,
)


class TestSingleCLPMatchesZhang:
    """Section 6: 'our Single-CLP design ... is equivalent to [32]'."""

    def test_alexnet_485t_float(self):
        design = optimize_single_clp(alexnet(), budget_for("485t"), FLOAT32)
        clp = design.clps[0]
        assert (clp.tn, clp.tm) == (7, 64)
        assert design.epoch_cycles == 2005892  # Table 2(a): 2,006k
        assert design.arithmetic_utilization == pytest.approx(0.741, abs=0.002)

    def test_alexnet_690t_float(self):
        design = optimize_single_clp(alexnet(), budget_for("690t"), FLOAT32)
        clp = design.clps[0]
        assert (clp.tn, clp.tm) == (9, 64)
        assert round(design.epoch_cycles / 1000) == 1769  # Table 2(b)
        assert design.arithmetic_utilization == pytest.approx(0.654, abs=0.002)

    def test_squeezenet_690t_float_utilization(self):
        # Section 3.2 quotes 76.4% for the float 690T Single-CLP.
        design = optimize_single_clp(squeezenet(), budget_for("690t"), FLOAT32)
        assert design.arithmetic_utilization == pytest.approx(0.764, abs=0.01)


class TestMultiCLPMatchesPaper:
    def test_alexnet_690t_float_epoch(self):
        design = optimize_multi_clp(alexnet(), budget_for("690t"), FLOAT32)
        # Table 2(d): epoch of 1,168k cycles; ours must match or beat it.
        assert design.epoch_cycles <= 1168 * 1000 + 500
        assert design.arithmetic_utilization >= 0.98

    def test_alexnet_485t_float_epoch(self):
        design = optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)
        # Table 2(c): epoch of 1,558k cycles; ours must match or beat it.
        assert design.epoch_cycles <= 1558 * 1000 + 500
        assert design.num_clps > 1

    def test_multi_clp_never_slower_than_single(self):
        budget = budget_for("485t")
        single = optimize_single_clp(alexnet(), budget, FLOAT32)
        multi = optimize_multi_clp(alexnet(), budget, FLOAT32)
        assert multi.epoch_cycles <= single.epoch_cycles

    def test_squeezenet_fixed_speedup_band(self):
        # Table 5: 690T fixed-point Multi-CLP is ~2.33x over Single-CLP.
        budget = budget_for("690t", frequency_mhz=170.0)
        single = optimize_single_clp(
            squeezenet(), budget, FIXED16, ordering="compute-to-data"
        )
        multi = optimize_multi_clp(
            squeezenet(), budget, FIXED16, ordering="compute-to-data"
        )
        speedup = single.epoch_cycles / multi.epoch_cycles
        assert 2.0 <= speedup <= 2.8

    def test_vggnet_float_near_parity(self):
        # Table 1: VGGNet-E float improves only ~1.01x.
        budget = budget_for("485t")
        single = optimize_single_clp(vggnet_e(), budget, FLOAT32)
        multi = optimize_multi_clp(vggnet_e(), budget, FLOAT32)
        speedup = single.epoch_cycles / multi.epoch_cycles
        assert 1.0 <= speedup <= 1.1


class TestDesignValidity:
    @pytest.mark.parametrize(
        "network_factory,dtype",
        [
            (alexnet, FLOAT32),
            (alexnet, FIXED16),
            (squeezenet, FIXED16),
            (googlenet, FLOAT32),
        ],
    )
    def test_budgets_respected(self, network_factory, dtype):
        budget = budget_for("485t")
        design = optimize_multi_clp(network_factory(), budget, dtype)
        assert design.dsp <= budget.dsp
        assert design.bram <= budget.bram18k
        assert design.fits(budget)

    def test_all_layers_covered_once(self):
        design = optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)
        assignment = design.assignment()
        assert sorted(assignment) == sorted(l.name for l in alexnet())

    def test_report_contents(self):
        design, report = optimize_single_clp(
            alexnet(), budget_for("485t"), FLOAT32, return_report=True
        )
        assert report.epoch_cycles == design.epoch_cycles
        assert report.iterations >= 1
        assert 0 < report.target <= 1
        assert report.minimum_cycles <= design.epoch_cycles


class TestBandwidthConstrainedOptimization:
    def test_bandwidth_cap_yields_feasible_design(self):
        budget = budget_for("485t", bandwidth_gbps=2.0)
        design = optimize_multi_clp(alexnet(), budget, FLOAT32)
        need = design.required_bandwidth_gbps(budget.frequency_mhz)
        assert need <= 2.0 + 1e-6

    @pytest.mark.slow
    def test_tight_bandwidth_slows_design(self):
        loose = optimize_multi_clp(
            alexnet(), budget_for("485t"), FLOAT32
        )
        tight = optimize_multi_clp(
            alexnet(), budget_for("485t", bandwidth_gbps=0.5), FLOAT32
        )
        assert tight.epoch_cycles >= loose.epoch_cycles


class TestMinimumPossibleCycles:
    def test_alexnet_float_485t(self):
        # 665.8 MMACs over 448 units -> ~1.486M cycles.
        ideal = minimum_possible_cycles(alexnet(), 2240, FLOAT32)
        assert ideal == pytest.approx(1.486e6, rel=0.01)

    def test_ideal_bounds_achieved_designs(self):
        budget = budget_for("690t")
        ideal = minimum_possible_cycles(alexnet(), budget.dsp, FLOAT32)
        design = optimize_multi_clp(alexnet(), budget, FLOAT32)
        assert design.epoch_cycles >= ideal

    def test_tiny_budget_raises(self):
        with pytest.raises(OptimizationError):
            minimum_possible_cycles(alexnet(), 3, FLOAT32)


class TestArgumentValidation:
    def test_bad_step(self):
        with pytest.raises(ValueError):
            optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32, step=0)

    @pytest.mark.parametrize("step", [1.0, -0.1, float("nan")])
    def test_step_outside_unit_interval(self, step):
        with pytest.raises(ValueError, match="step"):
            optimize_multi_clp(
                alexnet(), budget_for("485t"), FLOAT32, step=step
            )

    @pytest.mark.parametrize("slack", [float("nan"), -0.5, float("inf")])
    def test_bad_slack(self, slack):
        # Each used to fail late: nan ground through every relaxation
        # step, -0.5 and inf raised internal errors deep in the model.
        with pytest.raises(ValueError, match="slack must be finite"):
            optimize_multi_clp(
                alexnet(), budget_for("485t"), FLOAT32, slack=slack
            )

    def test_zero_slack_allowed(self):
        design = optimize_single_clp(
            alexnet(), budget_for("485t"), FLOAT32, slack=0.0
        )
        assert design.epoch_cycles == 2005892

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            optimize_multi_clp(
                alexnet(), budget_for("485t"), FLOAT32, ordering="bogus"
            )

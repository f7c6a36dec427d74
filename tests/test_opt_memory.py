"""Tests for OptimizeMemory: tile planning and BRAM allocation."""

import pytest

from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer, input_extent
from repro.opt.compute import CLPCandidate, PartitionCandidate
from repro.opt.memory import (
    clp_pareto,
    optimize_memory,
    system_tradeoff_curve,
    tile_candidates,
)


def make_candidate(tn, tm, layers):
    cycles = sum(
        layer.r * layer.c * -(-layer.n // tn) * -(-layer.m // tm)
        * layer.k * layer.k
        for layer in layers
    )
    return CLPCandidate(
        tn=tn, tm=tm, layers=tuple(layers), cycles=cycles, dsp=tn * tm * 5
    )


@pytest.fixture
def conv2_layer():
    return ConvLayer("conv2a", n=48, m=128, r=27, c=27, k=5)


class TestTileCandidates:
    def test_contains_full_map_tile(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        assert any(tr == 27 and tc == 27 for tr, tc, _ in options)

    def test_all_tiles_within_layer(self, conv2_layer):
        for tr, tc, _ in tile_candidates(conv2_layer, 7, 64):
            assert 1 <= tr <= 27
            assert 1 <= tc <= 27

    def test_no_dominated_options(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        seen = []
        for tr, tc, transfer in options:
            in_w = input_extent(tr, 1, 5) * input_extent(tc, 1, 5)
            out_w = tr * tc
            for p_in, p_out, p_words in seen:
                assert not (
                    p_in <= in_w
                    and p_out <= out_w
                    and p_words <= transfer.total_words
                ), "dominated option retained"
            seen.append((in_w, out_w, transfer.total_words))

    def test_full_tile_minimizes_transfer(self, conv2_layer):
        options = tile_candidates(conv2_layer, 7, 64)
        best = min(options, key=lambda o: o[2].total_words)
        # The whole-map tile removes all weight re-fetching.
        assert (best[0], best[1]) == (27, 27)

    def test_memoized(self, conv2_layer):
        assert tile_candidates(conv2_layer, 7, 64) is tile_candidates(
            conv2_layer, 7, 64
        )


class TestClpPareto:
    def test_curve_is_pareto(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        for earlier, later in zip(curve, curve[1:]):
            assert later.bram > earlier.bram
            assert (
                later.bandwidth_bytes_per_cycle
                < earlier.bandwidth_bytes_per_cycle
            )

    def test_more_bram_never_needs_more_bandwidth(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        bandwidths = [p.bandwidth_bytes_per_cycle for p in curve]
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_tile_plans_match_layer_count(self, conv2_layer):
        other = ConvLayer("conv3a", n=256, m=192, r=13, c=13, k=3)
        candidate = make_candidate(7, 64, [conv2_layer, other])
        curve = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.02)
        assert curve
        for point in curve:
            assert len(point.tile_plans) == 2

    def test_looser_cycle_budget_lowers_bandwidth(self, conv2_layer):
        candidate = make_candidate(7, 64, [conv2_layer])
        tight = clp_pareto(candidate, FLOAT32, candidate.cycles * 1.001)
        loose = clp_pareto(candidate, FLOAT32, candidate.cycles * 2.0)
        assert (
            loose[0].bandwidth_bytes_per_cycle
            <= tight[0].bandwidth_bytes_per_cycle
        )


class TestOptimizeMemory:
    def _partition(self, conv2_layer):
        other = ConvLayer("conv3a", n=256, m=192, r=13, c=13, k=3)
        return PartitionCandidate(
            clps=(
                make_candidate(7, 64, [conv2_layer]),
                make_candidate(4, 48, [other]),
            )
        )

    def test_solution_fits_budget(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target
        )
        assert solution is not None
        assert solution.total_bram <= 1648
        assert len(solution.plans) == 2

    @pytest.mark.parametrize("slack", [float("nan"), -0.5, float("inf")])
    def test_rejects_bad_slack(self, conv2_layer, slack):
        partition = self._partition(conv2_layer)
        with pytest.raises(ValueError, match="slack must be finite"):
            optimize_memory(
                partition, FLOAT32, bram_budget=1648,
                cycle_target=partition.epoch_cycles, slack=slack,
            )

    def test_infeasible_bram_returns_none(self, conv2_layer):
        partition = self._partition(conv2_layer)
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1,
            cycle_target=partition.epoch_cycles,
        )
        assert solution is None

    def test_bandwidth_budget_respected(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        unconstrained = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target
        )
        bw = unconstrained.total_bandwidth_bytes_per_cycle
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648, cycle_target=target,
            bandwidth_budget_bytes_per_cycle=bw * 1.5,
        )
        assert solution is not None
        assert solution.total_bandwidth_bytes_per_cycle <= bw * 1.5

    def test_impossible_bandwidth_returns_none(self, conv2_layer):
        partition = self._partition(conv2_layer)
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=1648,
            cycle_target=partition.epoch_cycles,
            bandwidth_budget_bytes_per_cycle=1e-9,
        )
        assert solution is None

    def test_larger_bram_budget_never_increases_bandwidth(self, conv2_layer):
        partition = self._partition(conv2_layer)
        target = partition.epoch_cycles
        small = optimize_memory(
            partition, FLOAT32, bram_budget=700, cycle_target=target
        )
        large = optimize_memory(
            partition, FLOAT32, bram_budget=2000, cycle_target=target
        )
        assert small is not None and large is not None
        assert (
            large.total_bandwidth_bytes_per_cycle
            <= small.total_bandwidth_bytes_per_cycle
        )

    def test_fixed16_uses_less_bram_than_float(self, conv2_layer):
        def solve(dtype):
            cand = make_candidate(8, 64, [conv2_layer])
            partition = PartitionCandidate(clps=(cand,))
            return optimize_memory(
                partition, dtype, bram_budget=4000,
                cycle_target=partition.epoch_cycles,
            )

        fixed = solve(FIXED16)
        flt = solve(FLOAT32)
        assert fixed.total_bram < flt.total_bram


class TestSystemTradeoffCurve:
    def test_curve_shape(self, conv2_layer):
        partition = PartitionCandidate(
            clps=(make_candidate(7, 64, [conv2_layer]),)
        )
        curve = system_tradeoff_curve(
            partition, FLOAT32, partition.epoch_cycles
        )
        assert len(curve) >= 2
        brams = [b for b, _ in curve]
        bws = [w for _, w in curve]
        assert brams == sorted(brams)
        assert bws == sorted(bws, reverse=True)

    @pytest.mark.parametrize("slack", [float("nan"), -0.5, float("inf")])
    def test_rejects_bad_slack(self, conv2_layer, slack):
        partition = PartitionCandidate(
            clps=(make_candidate(7, 64, [conv2_layer]),)
        )
        with pytest.raises(ValueError, match="slack must be finite"):
            system_tradeoff_curve(
                partition, FLOAT32, partition.epoch_cycles, slack=slack
            )

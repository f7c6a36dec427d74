"""Tests for OptimizeCompute (SegmentSearch)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import layer_cycles
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer
from repro.networks import alexnet
from repro.opt.compute import SegmentSearch
from repro.opt.heuristics import order_by_nm_distance


@pytest.fixture(scope="module")
def alexnet_search():
    ordered = order_by_nm_distance(list(alexnet()))
    return SegmentSearch(ordered, FLOAT32, dsp_budget=2240)


class TestFrontiers:
    def test_full_budget_single_segment_matches_zhang(self, alexnet_search):
        # The whole-network single segment with the full 485T budget must
        # reach the Zhang FPGA'15 optimum of ~2,006k cycles.
        count = len(alexnet_search.layers)
        assert alexnet_search.min_segment_cycles(0, count) == 2005892

    def test_min_dsp_monotone_in_target(self, alexnet_search):
        count = len(alexnet_search.layers)
        tight = alexnet_search.min_dsp_for(0, count, 2005892)
        loose = alexnet_search.min_dsp_for(0, count, 4000000)
        assert tight is not None and loose is not None
        assert loose <= tight

    def test_unreachable_target_returns_none(self, alexnet_search):
        count = len(alexnet_search.layers)
        assert alexnet_search.min_dsp_for(0, count, 100) is None

    def test_single_layer_segment(self, alexnet_search):
        layer = alexnet_search.layers[0]
        best = alexnet_search.min_segment_cycles(0, 1)
        # Must equal the exhaustive minimum over affordable grids.
        exhaustive = min(
            layer_cycles(layer, tn, tm)
            for tn in range(1, 65)
            for tm in range(1, min(512, 448 // tn) + 1)
        )
        assert best == exhaustive


class TestBestGrid:
    def test_finds_zhang_grid(self, alexnet_search):
        count = len(alexnet_search.layers)
        tn, tm, cycles, dsp = alexnet_search.best_grid(0, count, 2240)
        assert (tn, tm) == (7, 64)
        assert cycles == 2005892
        assert dsp == 2240

    def test_respects_cap(self, alexnet_search):
        tn, tm, _, dsp = alexnet_search.best_grid(0, 2, 500)
        assert dsp <= 500
        assert tn * tm * 5 == dsp

    def test_rejects_empty_cap(self, alexnet_search):
        with pytest.raises(ValueError):
            alexnet_search.best_grid(0, 1, 0)


class TestCandidates:
    def test_single_clp_candidate_at_relaxed_target(self, alexnet_search):
        candidates = alexnet_search.candidates(2005892, max_clps=1)
        assert len(candidates) == 1
        cand = candidates[0]
        assert cand.num_clps == 1
        assert cand.epoch_cycles <= 2005892

    def test_tight_target_returns_empty(self, alexnet_search):
        assert alexnet_search.candidates(1000, max_clps=6) == []

    def test_multi_clp_meets_target_single_cannot(self, alexnet_search):
        # AlexNet Multi-CLP reaches ~1.53M cycles on the 485T; a single
        # CLP cannot (its optimum is 2.0M).
        target = 1_560_000
        candidates = alexnet_search.candidates(target, max_clps=6)
        assert candidates, "multi-CLP should reach 1.56M cycles"
        assert all(c.num_clps >= 2 for c in candidates)
        for cand in candidates:
            assert cand.epoch_cycles <= target
            assert cand.total_dsp <= 2240

    def test_candidates_partition_all_layers(self, alexnet_search):
        candidates = alexnet_search.candidates(2_200_000, max_clps=4)
        expected = sorted(l.name for l in alexnet_search.layers)
        for cand in candidates:
            covered = sorted(
                l.name for clp in cand.clps for l in clp.layers
            )
            assert covered == expected

    def test_segments_are_contiguous_in_order(self, alexnet_search):
        candidates = alexnet_search.candidates(1_600_000, max_clps=6)
        order = [l.name for l in alexnet_search.layers]
        for cand in candidates:
            cursor = 0
            for clp in cand.clps:
                names = [l.name for l in clp.layers]
                assert names == order[cursor:cursor + len(names)]
                cursor += len(names)

    def test_rejects_bad_max_clps(self, alexnet_search):
        with pytest.raises(ValueError):
            alexnet_search.candidates(2_000_000, max_clps=0)

    def test_clp_cycle_counts_are_consistent(self, alexnet_search):
        for cand in alexnet_search.candidates(1_600_000, max_clps=6):
            for clp in cand.clps:
                expected = sum(
                    layer_cycles(layer, clp.tn, clp.tm) for layer in clp.layers
                )
                assert clp.cycles == expected


class TestFixedPoint:
    def test_fixed_budget_uses_one_dsp_per_unit(self):
        layers = [ConvLayer("l", n=64, m=64, r=28, c=28, k=3)]
        search = SegmentSearch(layers, FIXED16, dsp_budget=4096)
        tn, tm, _, dsp = search.best_grid(0, 1, 4096)
        assert dsp == tn * tm
        assert tn * tm <= 4096

    def test_tiny_budget_rejected_only_when_no_unit_fits(self):
        layers = [ConvLayer("l", n=4, m=4, r=4, c=4, k=1)]
        with pytest.raises(ValueError):
            SegmentSearch(layers, FLOAT32, dsp_budget=4)  # < 5 per unit
        search = SegmentSearch(layers, FLOAT32, dsp_budget=5)
        assert search.grid_count == 1


# ------------------------------------------------- brute-force differentials
# A pure-Python oracle for the array formulation: the segment DSP lookup
# by exhaustive scan over every enumerated grid, and the partition DP as
# the strict-< scan the min-plus recurrence replaced.


def _brute_segment_dsp(search, i, j, target):
    """Fewest DSP slices of any grid running layers[i:j] within target."""
    best = math.inf
    for tn, tm, dsp in zip(search._tn.tolist(), search._tm.tolist(),
                           search._dsp.tolist()):
        cycles = sum(layer_cycles(layer, tn, tm) for layer in search.layers[i:j])
        if cycles <= target:
            best = min(best, dsp)
    return best


def _brute_candidates(search, target, max_clps):
    count = len(search.layers)
    seg = [[_brute_segment_dsp(search, i, j, target) if i < j else math.inf
            for j in range(count + 1)] for i in range(count + 1)]
    dp = [[math.inf] * (count + 1) for _ in range(max_clps + 1)]
    parent = [[-1] * (count + 1) for _ in range(max_clps + 1)]
    dp[0][0] = 0.0
    for k in range(1, max_clps + 1):
        for j in range(1, count + 1):
            for i in range(k - 1, j):
                total = dp[k - 1][i] + seg[i][j]
                if total < dp[k][j]:
                    dp[k][j] = total
                    parent[k][j] = i
    results = [
        search._assemble(parent, k, count, target)
        for k in range(1, max_clps + 1)
        if dp[k][count] <= search.dsp_budget
    ]
    results.sort(key=lambda cand: (cand.total_dsp, cand.num_clps))
    return seg, results


# Few distinct shapes, so layers repeat and split points tie on DSP.
_layer_shapes = st.tuples(
    st.integers(1, 48),  # n
    st.integers(1, 48),  # m
    st.integers(1, 8),  # r
    st.integers(1, 8),  # c
    st.sampled_from([1, 3]),  # k
)


@st.composite
def _searches_and_targets(draw):
    base = draw(st.lists(_layer_shapes, min_size=1, max_size=3))
    shapes = draw(st.lists(st.sampled_from(base), min_size=1, max_size=5))
    layers = [ConvLayer(f"l{idx}", *shape) for idx, shape in enumerate(shapes)]
    dtype = draw(st.sampled_from([FLOAT32, FIXED16]))
    search = SegmentSearch(layers, dtype, dsp_budget=draw(st.integers(5, 120)))
    # Exact frontier values (ties with the <= test), their neighbours,
    # and targets no grid reaches.
    values = np.unique(search._frontier).tolist()
    exact = draw(st.sampled_from(values))
    target = draw(st.sampled_from([
        float(exact), exact - 0.5, exact + 0.5, 1.0, float(values[0] - 1),
        float(values[-1]) * 2,
    ]))
    return search, target, draw(st.integers(1, 4))


class TestArrayFormulationMatchesLoops:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_searches_and_targets())
    def test_candidates_match_brute_force(self, case):
        search, target, max_clps = case
        seg, expected = _brute_candidates(search, target, max_clps)
        assert search._segment_dsp_matrix(target).tolist() == seg
        assert search.candidates(target, max_clps) == expected

    def test_unreachable_target_everywhere(self, alexnet_search):
        matrix = alexnet_search._segment_dsp_matrix(1.0)
        assert np.isinf(matrix).all()
        assert alexnet_search.candidates(1.0, max_clps=6) == []

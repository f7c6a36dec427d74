"""Tests for OptimizeMemory's internal machinery."""

from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import LayerTransfer, layer_transfer
from repro.core.cost_model import bram_count, buffer_spec
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.layer import ConvLayer, input_extent
from repro.opt.compute import CLPCandidate, PartitionCandidate
from repro.opt.memory import (
    MAX_CAPS,
    MAX_CURVE_POINTS,
    _clp_curve_structure,
    _CurvePoint,
    _merge_curves,
    _sample,
    _tile_sizes,
    TilePoint,
    optimize_memory,
    tile_candidates,
)


class TestTileSizes:
    def test_contains_full_extent(self):
        assert 55 in _tile_sizes(55)

    def test_contains_one(self):
        assert 1 in _tile_sizes(55)

    def test_all_are_step_changing(self):
        # Every value must be ceil(55/i) for some i.
        from math import ceil

        valid = {ceil(55 / i) for i in range(1, 56)}
        assert set(_tile_sizes(55)) <= valid

    def test_sorted_unique(self):
        sizes = _tile_sizes(224)
        assert sizes == sorted(set(sizes))

    def test_sqrt_scale(self):
        # O(sqrt(extent)) values, not O(extent).
        assert len(_tile_sizes(224)) < 40

    def test_extent_one(self):
        assert _tile_sizes(1) == [1]


class TestSample:
    def test_short_list_unchanged(self):
        assert _sample([1, 2, 3], 10) == [1, 2, 3]

    def test_long_list_capped(self):
        values = list(range(1000))
        picked = _sample(values, MAX_CAPS)
        assert len(picked) <= MAX_CAPS
        assert picked[0] == 0
        assert picked[-1] == 999

    def test_preserves_order(self):
        picked = _sample(list(range(100)), 7)
        assert picked == sorted(picked)


class TestMergeCurves:
    def _point(self, bram, bw):
        return TilePoint(bram=bram, bandwidth_bytes_per_cycle=bw, tile_plans=())

    def test_single_curve_passthrough(self):
        curve = [self._point(10, 5.0), self._point(20, 2.0)]
        merged = _merge_curves([curve])
        assert [(b, w) for b, w, _ in merged] == [(10, 5.0), (20, 2.0)]

    def test_two_curves_sum(self):
        a = [self._point(10, 4.0)]
        b = [self._point(5, 1.0)]
        merged = _merge_curves([a, b])
        assert merged == [(15, 5.0, (0, 0))]

    def test_dominated_combinations_pruned(self):
        a = [self._point(10, 4.0), self._point(20, 3.0)]
        b = [self._point(10, 4.0), self._point(20, 1.0)]
        merged = _merge_curves([a, b])
        brams = [b_ for b_, _, _ in merged]
        bws = [w for _, w, _ in merged]
        assert brams == sorted(brams)
        assert bws == sorted(bws, reverse=True)

    def test_size_cap(self):
        big = [self._point(i, 1000.0 - i) for i in range(400)]
        merged = _merge_curves([big, big])
        assert len(merged) <= MAX_CURVE_POINTS + 1

    def test_choice_indices_reference_curves(self):
        a = [self._point(10, 4.0), self._point(20, 3.0)]
        b = [self._point(5, 2.0)]
        for bram, bw, choice in _merge_curves([a, b]):
            assert len(choice) == 2
            assert 0 <= choice[0] < len(a)
            assert choice[1] == 0


class TestOptimizeMemoryChoices:
    def _partition(self):
        layer = ConvLayer("l", n=48, m=128, r=27, c=27, k=5)
        cycles = 27 * 27 * 7 * 2 * 25
        return PartitionCandidate(
            clps=(
                CLPCandidate(
                    tn=7, tm=64, layers=(layer,), cycles=cycles, dsp=2240
                ),
            )
        )

    def test_unconstrained_picks_min_bandwidth(self):
        partition = self._partition()
        generous = optimize_memory(
            partition, FLOAT32, bram_budget=10**6,
            cycle_target=partition.epoch_cycles,
        )
        tight = optimize_memory(
            partition, FLOAT32, bram_budget=600,
            cycle_target=partition.epoch_cycles,
        )
        assert (
            generous.total_bandwidth_bytes_per_cycle
            <= tight.total_bandwidth_bytes_per_cycle
        )

    def test_bandwidth_budget_picks_min_bram(self):
        partition = self._partition()
        unconstrained = optimize_memory(
            partition, FLOAT32, bram_budget=10**6,
            cycle_target=partition.epoch_cycles,
        )
        loose_bw = unconstrained.total_bandwidth_bytes_per_cycle * 4
        budgeted = optimize_memory(
            partition, FLOAT32, bram_budget=10**6,
            cycle_target=partition.epoch_cycles,
            bandwidth_budget_bytes_per_cycle=loose_bw,
        )
        assert budgeted.total_bram <= unconstrained.total_bram

    def test_tile_plans_are_valid(self):
        partition = self._partition()
        solution = optimize_memory(
            partition, FLOAT32, bram_budget=10**6,
            cycle_target=partition.epoch_cycles,
        )
        layer = partition.clps[0].layers[0]
        for tr, tc in solution.plans[0].point.tile_plans:
            assert 1 <= tr <= layer.r
            assert 1 <= tc <= layer.c


# ------------------------------------------------- brute-force differentials
# The scalar loops below are the reference algorithms the array versions
# in repro.opt.memory replaced; they must agree exactly, ties included.


def _reference_tile_candidates(
    layer: ConvLayer, tn: int, tm: int
) -> Tuple[Tuple[int, int, LayerTransfer], ...]:
    raw = [
        (tr, tc, layer_transfer(layer, tn, tm, tr, tc))
        for tr in _tile_sizes(layer.r)
        for tc in _tile_sizes(layer.c)
    ]
    raw.sort(key=lambda opt: opt[2].total_words)
    kept = []
    kept_banks: List[Tuple[int, int]] = []
    for tr, tc, transfer in raw:
        in_words = input_extent(tr, layer.s, layer.k) * input_extent(
            tc, layer.s, layer.k
        )
        out_words = tr * tc
        if any(k_in <= in_words and k_out <= out_words
               for k_in, k_out in kept_banks):
            continue
        kept.append((tr, tc, transfer))
        kept_banks.append((in_words, out_words))
    return tuple(kept)


def _reference_curve_structure(candidate, dtype):
    per_layer = [
        tile_candidates(layer, candidate.tn, candidate.tm)
        for layer in candidate.layers
    ]
    in_caps = _sample(sorted({
        input_extent(tr, layer.s, layer.k) * input_extent(tc, layer.s, layer.k)
        for layer, options in zip(candidate.layers, per_layer)
        for tr, tc, _ in options
    }), MAX_CAPS)
    out_caps = _sample(
        sorted({tr * tc for options in per_layer for tr, tc, _ in options}),
        MAX_CAPS,
    )
    points = []
    for in_cap in in_caps:
        for out_cap in out_caps:
            plans, transfers = [], []
            for layer, options in zip(candidate.layers, per_layer):
                best: Optional[Tuple[int, int, LayerTransfer]] = None
                for tr, tc, transfer in options:
                    in_words = input_extent(tr, layer.s, layer.k) * (
                        input_extent(tc, layer.s, layer.k)
                    )
                    if in_words > in_cap or tr * tc > out_cap:
                        continue
                    if best is None or transfer.total_words < best[2].total_words:
                        best = (tr, tc, transfer)
                if best is None:
                    break
                plans.append((best[0], best[1]))
                transfers.append(best[2])
            else:
                spec = buffer_spec(candidate.layers, plans)
                points.append(_CurvePoint(
                    bram=bram_count(candidate.tn, candidate.tm, spec, dtype),
                    total_words=sum(t.total_words for t in transfers),
                    tile_plans=tuple(plans),
                    transfers=tuple(transfers),
                ))
    points.sort(key=lambda p: (p.bram, p.total_words))
    pruned = []
    best_words = None
    for point in points:
        if best_words is None or point.total_words < best_words:
            pruned.append(point)
            best_words = point.total_words
    return tuple(pruned[:MAX_CURVE_POINTS])


# Few distinct shapes, so layers often repeat and plans tie.
_layer_shapes = st.tuples(
    st.integers(1, 40),  # n
    st.integers(1, 40),  # m
    st.integers(1, 24),  # r
    st.integers(1, 24),  # c
    st.sampled_from([1, 3, 5]),  # k
    st.integers(1, 3),  # s
)

DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _layers(shapes):
    return tuple(
        ConvLayer(f"l{idx}", n, m, r, c, k, s)
        for idx, (n, m, r, c, k, s) in enumerate(shapes)
    )


class TestArrayFormulationMatchesLoops:
    @DIFFERENTIAL
    @given(
        shape=_layer_shapes,
        tn=st.integers(1, 16),
        tm=st.integers(1, 64),
    )
    def test_tile_candidates(self, shape, tn, tm):
        (layer,) = _layers([shape])
        assert tile_candidates(layer, tn, tm) == _reference_tile_candidates(
            layer, tn, tm
        )

    @DIFFERENTIAL
    @given(
        shapes=st.lists(_layer_shapes, min_size=1, max_size=4).flatmap(
            lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=6)
        ),
        tn=st.integers(1, 16),
        tm=st.integers(1, 64),
        dtype=st.sampled_from([FLOAT32, FIXED16]),
    )
    def test_clp_curve_structure(self, shapes, tn, tm, dtype):
        candidate = CLPCandidate(
            tn=tn, tm=tm, layers=_layers(shapes), cycles=1, dsp=1
        )
        assert _clp_curve_structure(candidate, dtype) == (
            _reference_curve_structure(candidate, dtype)
        )

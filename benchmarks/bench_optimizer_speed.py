"""Optimizer performance microbenchmarks.

The paper's C++ optimizer "can complete an optimization of a Multi-CLP
accelerator for the GoogLeNet network in several minutes" (Section 4.3).
Our Python implementation must stay laptop-interactive: GoogLeNet within
tens of seconds, AlexNet within seconds.  These are true repeated-timing
benchmarks: every round starts with the optimizer's process-global
caches (curve structures and tile candidates) emptied, so no round
reuses an earlier round's work.
"""

from repro.core.datatypes import FIXED16, FLOAT32
from repro.fpga.parts import budget_for
from repro.networks import alexnet, googlenet
from repro.opt import memory, optimize_multi_clp, optimize_single_clp
from repro.opt.compute import SegmentSearch
from repro.opt.heuristics import order_by_nm_distance


def clear_optimizer_caches():
    """Start a round as a fresh interpreter would: nothing memoized."""
    memory._STRUCTURE_CACHE.clear()
    memory.tile_candidates.cache_clear()


def test_segment_search_build(benchmark):
    layers = order_by_nm_distance(list(googlenet()))

    def build():
        return SegmentSearch(layers, FIXED16, dsp_budget=2880)

    search = benchmark.pedantic(build, rounds=3, iterations=1)
    assert search.grid_count > 1000


def test_segment_search_query(benchmark):
    layers = order_by_nm_distance(list(alexnet()))
    search = SegmentSearch(layers, FLOAT32, dsp_budget=2240)

    def query():
        return search.candidates(2_200_000, max_clps=6)

    candidates = benchmark(query)
    assert candidates


def test_alexnet_single_clp_end_to_end(benchmark):
    network = alexnet()
    budget = budget_for("485t")

    def run():
        return optimize_single_clp(network, budget, FLOAT32)

    design = benchmark.pedantic(
        run, setup=clear_optimizer_caches, rounds=3, iterations=1
    )
    assert design.epoch_cycles == 2005892


def test_googlenet_multi_clp_end_to_end(benchmark):
    network = googlenet()
    budget = budget_for("690t")

    def run():
        return optimize_multi_clp(network, budget, FIXED16)

    design = benchmark.pedantic(
        run, setup=clear_optimizer_caches, rounds=1, iterations=1
    )
    assert design.num_clps >= 2

"""Tests for the design-space exploration engine (repro.dse)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.dse import (
    DesignPoint,
    ResultStore,
    SweepResult,
    SweepRunner,
    SweepSpec,
    best_per_group,
    frontier_table,
    pareto_frontier,
    point_key,
    run_sweep,
    summary_table,
)

# Small budgets keep each optimizer call fast; alexnet float32 at these
# sizes solves in well under a second.
SMALL_BUDGETS = ((200, 160), (500, 400))


@pytest.fixture(scope="module")
def small_outcome():
    spec = SweepSpec(
        networks=("alexnet",),
        budgets=SMALL_BUDGETS,
        modes=("single", "multi"),
    )
    return run_sweep(spec, workers=1)


# ================================================================== DesignPoint
class TestDesignPoint:
    def test_build_from_part_resolves_budget(self):
        point = DesignPoint.build("alexnet", part="485t")
        assert point.part == "485t"
        assert (point.dsp, point.bram18k) == (2240, 1648)  # 80% of the 485T

    def test_build_synthetic(self):
        point = DesignPoint.build("alexnet", dsp=1000, bram18k=800)
        assert point.part is None
        assert point.budget_label == "1000dsp/800bram"

    def test_build_rejects_ambiguous_budget(self):
        with pytest.raises(ValueError):
            DesignPoint.build("alexnet", part="485t", dsp=1000, bram18k=800)
        with pytest.raises(ValueError):
            DesignPoint.build("alexnet", dsp=1000)

    def test_validates_eagerly(self):
        with pytest.raises(ValueError):
            DesignPoint(network="alexnet", dsp=0, bram18k=16)
        with pytest.raises(ValueError):
            DesignPoint(network="alexnet", dsp=16, bram18k=16, dtype="float99")

    @pytest.mark.parametrize("slack", [float("nan"), -0.5, float("inf")])
    def test_rejects_bad_slack(self, slack):
        with pytest.raises(ValueError, match="slack"):
            DesignPoint(network="alexnet", dsp=16, bram18k=16, slack=slack)

    @pytest.mark.parametrize("step", [0.0, 1.0, -0.5, float("nan")])
    def test_rejects_step_outside_unit_interval(self, step):
        with pytest.raises(ValueError, match="step"):
            DesignPoint(network="alexnet", dsp=16, bram18k=16, step=step)

    def test_dict_round_trip(self):
        point = DesignPoint.build(
            "squeezenet", part="690t", dtype="fixed16",
            bandwidth_gbps=12.5, frequency_mhz=170.0, single=True,
        )
        assert DesignPoint.from_dict(point.to_dict()) == point

    def test_key_depends_on_inputs(self):
        base = DesignPoint.build("alexnet", dsp=1000, bram18k=800)
        assert base.key() == DesignPoint.build("alexnet", dsp=1000, bram18k=800).key()
        assert base.key() != DesignPoint.build("alexnet", dsp=1001, bram18k=800).key()
        assert base.key() != DesignPoint.build(
            "alexnet", dsp=1000, bram18k=800, single=True
        ).key()

    def test_key_canonicalizes_numeric_types(self):
        """int-typed numerics must hash like their float round-trip."""
        as_int = DesignPoint.build("alexnet", dsp=1000, bram18k=800,
                                   frequency_mhz=170, bandwidth_gbps=10)
        as_float = DesignPoint.build("alexnet", dsp=1000, bram18k=800,
                                     frequency_mhz=170.0, bandwidth_gbps=10.0)
        assert as_int.key() == as_float.key()
        assert DesignPoint.from_dict(as_int.to_dict()).key() == as_int.key()

    def test_int_frequency_point_runs(self):
        """Regression: an int-typed axis used to desync the store key."""
        point = DesignPoint.build("alexnet", dsp=200, bram18k=160,
                                  frequency_mhz=170)
        outcome = run_sweep([point], workers=1)
        assert outcome.results[0].ok

    def test_single_canonicalizes_max_clps(self):
        """Same single-CLP scenario -> same key, whatever cap it came with."""
        capped = DesignPoint.build("alexnet", dsp=500, bram18k=400,
                                   single=True, max_clps=6)
        assert capped.max_clps == 1
        assert capped.key() == DesignPoint.build(
            "alexnet", dsp=500, bram18k=400, single=True, max_clps=1
        ).key()

    def test_rejects_unknown_ordering(self):
        with pytest.raises(ValueError):
            DesignPoint.build("alexnet", dsp=200, bram18k=160,
                              ordering="compute-to-datas")

    def test_key_stable_across_processes(self):
        """The store key must not depend on PYTHONHASHSEED or process."""
        point = DesignPoint.build(
            "alexnet", part="485t", dtype="fixed16", bandwidth_gbps=10.0
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "from repro.dse import DesignPoint; "
            "print(DesignPoint.build('alexnet', part='485t', dtype='fixed16', "
            "bandwidth_gbps=10.0).key())"
        )
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert output == point.key()
        assert output == point_key(point.to_dict())


# ==================================================================== SweepSpec
class TestSweepSpec:
    def test_expansion_is_full_cross_product(self):
        spec = SweepSpec(
            networks=("alexnet", "squeezenet"),
            parts=("485t", "690t"),
            dtypes=("float32", "fixed16"),
            modes=("multi",),
        )
        points = spec.expand()
        assert len(points) == 8
        assert len({p.key() for p in points}) == 8

    def test_single_mode_collapses_max_clps_axis(self):
        spec = SweepSpec(
            networks=("alexnet",),
            budgets=((500, 400),),
            modes=("single", "multi"),
            max_clps=(2, 4, 6),
        )
        points = spec.expand()
        # 1 single point (cap canonicalized to 1) + 3 multi points.
        assert len(points) == 4
        singles = [p for p in points if p.single]
        assert len(singles) == 1 and singles[0].max_clps == 1

    def test_expansion_deterministic(self):
        spec = SweepSpec(networks=("alexnet",), parts=("485t", "690t"),
                         modes=("single", "multi"))
        assert [p.key() for p in spec.expand()] == [p.key() for p in spec.expand()]

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(networks=())
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",))  # no parts and no budgets
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",), parts=("485t",), modes=("dual",))
        with pytest.raises(ValueError):
            SweepSpec(networks=("nosuchnet",), parts=("485t",))
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",), parts=("485t",),
                      orderings=("compute-to-datas",))
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",), parts=("bogus-part",))
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",), budgets=((500, 0),))
        with pytest.raises(ValueError):
            SweepSpec(networks=("alexnet",), parts=("485t",), max_clps=(0,))
        with pytest.raises(TypeError):
            SweepSpec(networks="alexnet", parts=("485t",))


# ================================================================== ResultStore
class TestResultStore:
    def test_round_trip_byte_for_byte(self, small_outcome, tmp_path):
        """Records survive the store byte-for-byte (canonical JSON)."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_all(small_outcome.results)

        lines = path.read_text().splitlines()
        assert len(lines) == len(small_outcome.results)
        for line, result in zip(lines, small_outcome.results):
            reloaded = SweepResult.from_dict(json.loads(line))
            assert json.dumps(reloaded.to_dict()) == json.dumps(result.to_dict())
            assert line == json.dumps(result.to_dict())

        fresh = ResultStore(path)
        assert len(fresh) == len(small_outcome.results)
        for result in small_outcome.results:
            stored = fresh.get(result.point.key())
            assert stored is not None
            assert stored.to_dict() == result.to_dict()

    def test_memory_store_has_no_file(self, small_outcome):
        store = ResultStore()
        store.put(small_outcome.results[0])
        assert len(store) == 1 and store.path is None

    def test_tolerates_torn_final_line(self, small_outcome, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_all(small_outcome.results)
        with path.open("a") as handle:
            handle.write('{"key": "tr')  # interrupted mid-write
        reloaded = ResultStore(path)
        assert len(reloaded) == len(small_outcome.results)
        assert reloaded.skipped_lines == 1

    def test_skips_and_counts_corrupt_lines(self, small_outcome, tmp_path):
        """A mid-write kill must leave every intact line usable.

        Regression: malformed-but-parseable JSON lines (foreign schema,
        missing fields, wrong field types) used to crash the load and
        take the whole cache with them; now each bad shape is skipped
        and counted, and records *after* the bad line still load.
        """
        path = tmp_path / "store.jsonl"
        good = small_outcome.results
        with path.open("w") as handle:
            handle.write(json.dumps(good[0].to_dict()) + "\n")
            handle.write('{"key": "truncated mid-wri\n')  # torn JSON
            handle.write('{"schema": 999, "ok": true}\n')  # foreign schema
            handle.write('{"not-a": "sweep record"}\n')  # missing fields
            handle.write('{"schema": 1, "ok": true, "point": 42}\n')  # bad type
            handle.write("\n")  # blank lines are not corruption
            for result in good[1:]:
                handle.write(json.dumps(result.to_dict()) + "\n")
        store = ResultStore(path)
        assert len(store) == len(good)
        assert store.skipped_lines == 4
        for result in good:
            assert store.get(result.point.key()) is not None
        assert "4 corrupt line(s) skipped" in store.describe()

    def test_clean_store_reports_no_skips(self, small_outcome, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put_all(small_outcome.results)
        fresh = ResultStore(path)
        assert fresh.skipped_lines == 0
        assert "skipped" not in fresh.describe()

    def test_records_carry_schema_version(self, small_outcome):
        record = small_outcome.results[0].to_dict()
        assert record["schema"] == 1
        record["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            SweepResult.from_dict(record)

    def test_duplicate_keys_last_wins(self, small_outcome, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        first = small_outcome.results[0]
        store.put(first)
        store.put(first)
        assert len(ResultStore(path)) == 1


# ================================================================== SweepRunner
class TestSweepRunner:
    def test_results_in_spec_order(self, small_outcome):
        spec = SweepSpec(networks=("alexnet",), budgets=SMALL_BUDGETS,
                         modes=("single", "multi"))
        expected = [p.key() for p in spec.expand()]
        assert [r.point.key() for r in small_outcome.results] == expected

    def test_rerun_is_all_cache_hits(self, tmp_path):
        spec = SweepSpec(networks=("alexnet",), budgets=(SMALL_BUDGETS[0],),
                         modes=("single", "multi"))
        path = tmp_path / "store.jsonl"
        cold = run_sweep(spec, store=path)
        assert (cold.computed, cold.cached) == (2, 0)
        warm = run_sweep(spec, store=path)
        assert (warm.computed, warm.cached) == (0, 2)
        assert warm.cache_hit_rate == 1.0
        assert [r.to_dict() for r in warm.results] == [
            r.to_dict() for r in cold.results
        ]

    def test_growing_a_sweep_only_computes_new_points(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_sweep(
            SweepSpec(networks=("alexnet",), budgets=(SMALL_BUDGETS[0],)),
            store=path,
        )
        grown = run_sweep(
            SweepSpec(networks=("alexnet",), budgets=SMALL_BUDGETS),
            store=path,
        )
        assert (grown.computed, grown.cached) == (1, 1)

    def test_duplicate_points_not_reported_as_cache_hits(self):
        point = DesignPoint.build("alexnet", dsp=200, bram18k=160)
        outcome = run_sweep([point, point], workers=1)
        # One optimizer solve, no pre-existing cache entries.
        assert (outcome.total, outcome.computed, outcome.cached) == (2, 1, 0)
        assert outcome.results[0].to_dict() == outcome.results[1].to_dict()

    def test_pool_matches_serial(self):
        spec = SweepSpec(networks=("alexnet",), budgets=SMALL_BUDGETS,
                         modes=("single", "multi"))
        serial = run_sweep(spec, workers=1)
        pooled = run_sweep(spec, workers=2)
        assert pooled.workers == 2

        def strip(result):
            record = result.to_dict()
            record.pop("elapsed_s")
            return record

        assert [strip(r) for r in serial.results] == [
            strip(r) for r in pooled.results
        ]

    @pytest.mark.slow
    def test_infeasible_point_is_captured_not_fatal(self):
        points = [
            DesignPoint.build("alexnet", dsp=500, bram18k=2),   # BRAM-starved
            DesignPoint.build("alexnet", dsp=500, bram18k=400),
        ]
        outcome = run_sweep(points, workers=1)
        failed, solved = outcome.results
        assert not failed.ok
        assert failed.error_type == "OptimizationError"
        assert "500 DSP" in failed.error_message
        assert solved.ok
        assert outcome.infeasible == 1
        with pytest.raises(ValueError):
            failed.design(repro.networks.get_network("alexnet"))

    def test_progress_callback_sees_each_computed_point(self):
        spec = SweepSpec(networks=("alexnet",), budgets=(SMALL_BUDGETS[0],),
                         modes=("single", "multi"))
        seen = []
        run_sweep(spec, progress=seen.append)
        assert len(seen) == 2

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_design_reconstruction_matches_direct_optimization(
        self, small_outcome
    ):
        network = repro.networks.get_network("alexnet")
        result = next(r for r in small_outcome.results
                      if r.ok and not r.point.single)
        design = result.design(network)
        direct = repro.optimize_multi_clp(
            network, result.point.budget(), repro.FLOAT32
        )
        assert design.epoch_cycles == direct.epoch_cycles
        assert design.dsp == direct.dsp
        assert design.bram == direct.bram
        assert result.metrics["epoch_cycles"] == direct.epoch_cycles


# ===================================================================== analysis
def _fake_result(network="alexnet", throughput=1.0, dsp=100, **point_kwargs):
    point = DesignPoint.build(network, dsp=dsp, bram18k=max(16, dsp), **point_kwargs)
    return SweepResult(
        point=point,
        ok=True,
        metrics={
            "epoch_cycles": 1000,
            "throughput_images_per_s": throughput,
            "arithmetic_utilization": 0.9,
            "dsp": dsp,
            "bram": max(16, dsp),
            "num_clps": 2,
            "required_bandwidth_gbps": 1.0,
            "gflops": 1.0,
        },
        clps=(),
    )


class TestAnalysis:
    def test_pareto_drops_dominated_points(self):
        cheap_slow = _fake_result(throughput=10.0, dsp=100)
        costly_fast = _fake_result(throughput=30.0, dsp=300)
        dominated = _fake_result(throughput=5.0, dsp=200)  # worse on both
        frontier = pareto_frontier(
            [cheap_slow, dominated, costly_fast],
            maximize=("throughput",), minimize=("dsp",),
        )
        assert frontier == [cheap_slow, costly_fast]

    def test_missing_metric_named_in_error(self):
        result = _fake_result()
        del result.metrics["gflops"]
        with pytest.raises(ValueError, match="gflops"):
            pareto_frontier([result], maximize=("gflops",))

    def test_rejects_unknown_metric_names(self):
        result = _fake_result()
        with pytest.raises(ValueError, match="unknown metric"):
            pareto_frontier([result], maximize=("thruput",))
        with pytest.raises(ValueError, match="unknown metric"):
            best_per_group([result], key="speed")

    def test_pareto_ignores_infeasible(self):
        failed = SweepResult(
            point=DesignPoint.build("alexnet", dsp=100, bram18k=100),
            ok=False, error_type="OptimizationError", error_message="no fit",
        )
        assert pareto_frontier([failed]) == []

    def test_pareto_on_real_sweep_nonempty(self, small_outcome):
        frontier = pareto_frontier(small_outcome.results)
        assert frontier
        assert all(r.ok for r in frontier)

    def test_best_per_group(self):
        a_slow = _fake_result(throughput=10.0, dsp=100)
        a_fast = _fake_result(throughput=20.0, dsp=200)
        b = _fake_result(network="squeezenet", throughput=5.0, dsp=100)
        winners = best_per_group([a_slow, a_fast, b], by=("network",),
                                 key="throughput")
        assert winners[("alexnet",)] is a_fast
        assert winners[("squeezenet",)] is b

    def test_best_per_group_cost_metric_prefers_min(self):
        small = _fake_result(throughput=10.0, dsp=100)
        big = _fake_result(throughput=20.0, dsp=200)
        winners = best_per_group([small, big], by=("network",), key="dsp")
        assert winners[("alexnet",)] is small

    def test_tables_render(self, small_outcome):
        table = summary_table(small_outcome.results)
        assert "alexnet" in table and "img/s" in table
        frontier = frontier_table(small_outcome.results)
        assert "Pareto frontier" in frontier and "ok" in frontier


# ========================================================================== CLI
class TestDseCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    def test_sweep_then_cached_rerun(self, capsys, tmp_path):
        store = str(tmp_path / "cli.jsonl")
        argv = (
            "dse", "sweep", "--networks", "alexnet",
            "--budgets", "200:160", "500:400",
            "--modes", "single", "multi", "--store", store,
        )
        out = self.run(capsys, *argv)
        assert "4 computed, 0 cached" in out
        assert "alexnet" in out
        out = self.run(capsys, *argv)
        assert "0 computed, 4 cached (100% hits)" in out

    def test_frontier_and_status(self, capsys, tmp_path):
        store = str(tmp_path / "cli.jsonl")
        self.run(capsys, "dse", "sweep", "--networks", "alexnet",
                 "--budgets", "500:400", "--store", store, "--quiet")
        out = self.run(capsys, "dse", "frontier", "--store", store)
        assert "Pareto frontier" in out and "alexnet" in out
        out = self.run(capsys, "dse", "status", "--store", store)
        assert "1 points" in out and "1 solved" in out

    def test_frontier_on_missing_store(self, capsys, tmp_path):
        out = self.run(capsys, "dse", "frontier", "--store",
                       str(tmp_path / "nope.jsonl"))
        assert "empty" in out

    def test_bad_budget_syntax(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["dse", "sweep", "--budgets", "500x400",
                  "--store", str(tmp_path / "x.jsonl")])

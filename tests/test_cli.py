"""Tests for the command-line interface."""

import copy
import json

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "dse" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.network == "alexnet"
        assert args.part == "485t"
        assert not args.single


class TestCommands:
    def test_networks_lists_zoo(self, capsys):
        out = run(capsys, "networks")
        for name in ("AlexNet", "VGGNet-E", "SqueezeNet", "GoogLeNet"):
            assert name in out

    def test_networks_single(self, capsys):
        out = run(capsys, "networks", "--network", "alexnet")
        assert "conv1a" in out

    def test_optimize_single(self, capsys):
        out = run(capsys, "optimize", "--single")
        assert "Tn=7" in out and "Tm=64" in out  # Zhang FPGA'15 optimum
        assert "throughput" in out

    def test_optimize_save(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        out = run(capsys, "optimize", "--single", "--save", str(path))
        assert str(path) in out
        record = json.loads(path.read_text())
        assert record["network"]["name"] == "AlexNet"

    def test_table2(self, capsys):
        out = run(capsys, "table2", "--scenario", "485t_single")
        assert "2006k" in out or "2006" in out

    def test_gantt(self, capsys):
        out = run(capsys, "gantt", "--network", "alexnet", "--part", "485t")
        assert "CLP0" in out and "epoch" in out

    def test_gantt_from_file(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        run(capsys, "optimize", "--single", "--save", str(path))
        out = run(capsys, "gantt", "--load", str(path))
        assert "CLP0" in out

    def test_latency(self, capsys):
        out = run(capsys, "latency", "--max-clps", "2")
        assert "frontier" in out.lower()
        assert "CLPs" in out

    def test_hls(self, capsys):
        out = run(capsys, "hls", "--network", "alexnet", "--single")
        assert "#define TN" in out
        assert "DATAFLOW" in out

    def test_joint(self, capsys):
        out = run(capsys, "joint", "alexnet", "squeezenet",
                  "--part", "690t", "--dtype", "fixed16")
        assert "AlexNet" in out and "SqueezeNet" in out


SAMPLE_RUN = __import__("os").path.join(
    __import__("os").path.dirname(__file__), "data", "sample_fleet_run.json"
)


class TestReportCommand:
    def test_report_on_run_json(self, capsys):
        out = run(capsys, "report", SAMPLE_RUN)
        assert out.startswith("# Run report")
        assert "## SLO attainment" in out
        assert "## Time series" in out

    def test_report_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        out = run(capsys, "report", SAMPLE_RUN, "--out", str(path))
        assert str(path) in out
        assert path.read_text().startswith("# Run report")

    def test_report_with_slo(self, capsys):
        out = run(capsys, "report", SAMPLE_RUN, "--p99-ms", "1000",
                  "--max-drop-rate", "1.0")
        assert "(no SLO given" not in out

    def test_report_missing_path_errors(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/run.json"])


class TestServeObsFlags:
    @pytest.fixture(scope="class")
    def design_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("design") / "design.json"
        main(["optimize", "--single", "--save", str(path)])
        return str(path)

    def test_fleet_json_omits_timeseries_by_default(self, capsys, design_file):
        out = run(capsys, "fleet", "simulate", "--load", design_file,
                  "--replicas", "2", "--rate", "100",
                  "--process", "constant", "--json")
        record = json.loads(out)
        assert record["num_replicas"] == 2
        assert "timeseries" not in record

    def test_fleet_json_includes_timeseries_on_request(
        self, capsys, design_file
    ):
        out = run(capsys, "fleet", "simulate", "--load", design_file,
                  "--replicas", "2", "--rate", "100",
                  "--process", "constant", "--json", "--emit-timeseries")
        record = json.loads(out)
        assert record["timeseries"]["series"]

    def test_serve_trace_and_report(self, capsys, design_file, tmp_path):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.md"
        out = run(capsys, "serve", "--load", design_file, "--rate", "100",
                  "--process", "constant", "--emit-timeseries",
                  "--trace-out", str(trace), "--report", str(report))
        assert str(trace) in out and str(report) in out
        assert json.loads(trace.read_text())["traceEvents"]
        assert report.read_text().startswith("# Run report")

    def test_serve_fast_engine_rejects_trace(self, design_file, tmp_path):
        with pytest.raises(SystemExit, match="cannot emit a trace"):
            main(["serve", "--load", design_file, "--engine", "fast",
                  "--trace-out", str(tmp_path / "t.json")])

    def test_autoscale_report_and_trace(self, capsys, design_file, tmp_path):
        trace = tmp_path / "scaling.json"
        report = tmp_path / "autoscale.md"
        out = run(capsys, "fleet", "autoscale", "--load", design_file,
                  "--rates", "50", "400", "--window-ms", "40",
                  "--max-replicas", "3",
                  "--trace-out", str(trace), "--report", str(report))
        assert str(trace) in out and str(report) in out
        assert "traceEvents" in trace.read_text()
        text = report.read_text()
        assert text.startswith("# Autoscale report")
        assert "## Window series" in text


class TestTrafficWindowValidation:
    @pytest.mark.parametrize("command", [["serve"], ["fleet", "simulate"]])
    @pytest.mark.parametrize("duration", ["-10", "0", "nan", "inf"])
    def test_rejects_bad_duration(self, command, duration):
        with pytest.raises(SystemExit, match="--duration-ms must be positive"):
            main(command + ["--network", "alexnet", "--rate", "50",
                            f"--duration-ms={duration}"])

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(SystemExit, match="finite"):
            main(["fleet", "simulate", "--network", "alexnet",
                  "--rate", rate, "--duration-ms", "10"])

    def test_floored_window_is_announced_on_stderr(self, capsys):
        assert main(["fleet", "simulate", "--network", "alexnet",
                     "--rate", "50", "--duration-ms", "10", "--json"]) == 0
        captured = capsys.readouterr()
        assert "--duration-ms 10 is shorter" in captured.err
        # stdout stays one JSON document, and the floored window is used.
        assert json.loads(captured.out)["horizon_cycles"] > 10 * 1e5

    def test_unfloored_window_is_silent(self, capsys):
        assert main(["serve", "--network", "alexnet", "--rate", "50",
                     "--duration-ms", "10", "--drain"]) == 0
        assert capsys.readouterr().err == ""


def _drop_clps(record):
    del record["clps"]
    return record


def _unknown_layer(record):
    record["clps"][0]["layers"][0] = "conv9"
    return record


class TestMalformedInputs:
    """Bad input files end in one error line and exit status 1."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r["tenants"][0]["latency"].update(bogus=1),
             "LatencySummary record has unknown field 'bogus'"),
            (lambda r: r["tenants"][0].pop("arrivals"),
             "TenantStats record missing field 'arrivals'"),
        ],
        ids=["extra-latency-key", "missing-arrivals"],
    )
    def test_report_on_malformed_run(self, tmp_path, mutate, message):
        with open(SAMPLE_RUN) as handle:
            record = json.load(handle)
        mutate(record)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(path)])
        assert excinfo.value.code == f"repro report: error: {message}"

    @pytest.fixture(scope="class")
    def design_record(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("design") / "design.json"
        main(["optimize", "--single", "--save", str(path)])
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_drop_clps, "design record missing field 'clps'"),
            (_unknown_layer, "network 'AlexNet' has no layer 'conv9'"),
            (lambda record: [record],
             "design record must be a JSON object, got list"),
        ],
        ids=["no-clps", "unknown-layer", "top-level-list"],
    )
    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["serve", "--rate", "100"], "repro serve"),
            (["fleet", "simulate", "--rate", "100"], "repro fleet simulate"),
            (["gantt"], "repro gantt"),
        ],
        ids=["serve", "fleet-simulate", "gantt"],
    )
    def test_load_malformed_design(
        self, tmp_path, design_record, argv, prefix, mutate, message
    ):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(mutate(copy.deepcopy(design_record))))
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--load", str(path)])
        assert excinfo.value.code == f"{prefix}: error: {message}"

"""Tests for benchmark reporting utilities."""


from repro.bench import print_figure, print_series, print_table, ratio
from repro.bench.reporting import get_buffer
from repro.bench.scenarios import ScenarioResult


def make_result(**overrides):
    defaults = dict(
        system="OsirisBFT",
        n=8,
        f=1,
        throughput=1234.0,
        records=100,
        tasks_completed=10,
        makespan=5.0,
        mean_latency=0.25,
        p99_latency=0.9,
        op_bandwidth=1.5e9,
        executor_utilization=0.8,
        peak_throughput=2000.0,
    )
    defaults.update(overrides)
    return ScenarioResult(**defaults)


class TestBuffer:
    def test_emitted_lines_are_buffered(self):
        start = len(get_buffer())
        print_table("T1", ["a"], [["x"]])
        assert len(get_buffer()) > start
        assert any("T1" in line for line in get_buffer()[start:])

    def test_print_figure_renders_rows(self, capsys):
        print_figure("F1", [make_result()])
        out = capsys.readouterr().out
        assert "F1" in out
        assert "OsirisBFT" in out
        assert "rec/s" in out

    def test_print_series_downsamples(self, capsys):
        series = [(float(i), float(i)) for i in range(200)]
        print_series("S1", series, unit="x", max_rows=10)
        out = capsys.readouterr().out
        assert out.count("t=") <= 25

    def test_ratio(self):
        assert ratio(10, 2) == 5
        assert ratio(1, 0) == float("inf")


class TestScenarioRow:
    def test_row_contains_key_metrics(self):
        row = make_result().row()
        assert "n=8" in row and "f=1" in row
        assert "1234" in row
        assert "GB/s" in row

    def test_unmeasured_bandwidth_is_absent_not_zero(self):
        """A live result has no modelled NIC: its OP bandwidth is None,
        survives a JSON round-trip as None, and prints as n/a."""
        import json

        res = make_result(op_bandwidth=None)
        back = ScenarioResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert back.op_bandwidth is None
        row = back.row()
        assert "opbw=        n/a" in row
        assert "0.00 GB/s" not in row
        assert make_result().row().count("1.50 GB/s") == 1

"""The serve-bench summary compares like with like: tasks/s on both legs."""

from repro.bench.scenarios import ScenarioResult
from repro.serve.bench import ServeBenchReport


class _CrossVal:
    ok = True

    def summary(self) -> str:
        return "crossval: identical"


def _result(**overrides) -> ScenarioResult:
    fields = dict(
        system="OsirisBFT", n=4, f=1, throughput=900.0, records=480,
        tasks_completed=16, makespan=4.0, mean_latency=0.3,
        p99_latency=0.8, op_bandwidth=None, executor_utilization=0.5,
        peak_throughput=1000.0, goodput=120.0,
    )
    fields.update(overrides)
    return ScenarioResult(**fields)


def test_des_goodput_is_reported_in_tasks_per_second():
    report = ServeBenchReport(
        crossval=_CrossVal(),
        des_result=_result(),
        serve_result=_result(
            client_slo={"completed": 16, "offered": 16, "task_goodput": 3.5}
        ),
    )
    assert report.des_task_goodput == 4.0  # 16 tasks by t=4.0
    lines = report.summary().splitlines()
    client = next(line for line in lines if line.startswith("client SLO"))
    des = next(line for line in lines if line.startswith("DES SLO"))
    assert client.endswith("goodput=3.5 tasks/s")
    assert des.endswith("goodput=4.0 tasks/s")
    assert "rec/s" not in report.summary()


def test_des_goodput_of_an_empty_run_is_zero():
    report = ServeBenchReport(
        crossval=_CrossVal(),
        des_result=_result(tasks_completed=0, makespan=0.0),
        serve_result=_result(),
    )
    assert report.des_task_goodput == 0.0

"""Self-test of how a run turns request and reference times into metrics.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


class Fake(workloads.Workload):
    name = "fake"
    work_metric = ("fake.per_s", "1/s", 1.0)
    round = 3

    def __init__(self, times, refs):
        super().__init__(None, 0, None)
        self.times, self.refs = iter(times), iter(refs)

    def request(self, i):
        return workloads.Outcome(next(self.times), True, 1.0)

    def reference(self):
        return next(self.refs)


def test_each_request_is_divided_by_the_reference_around_it():
    # the host halves its speed after the first request: the second and
    # third take twice as long and so does the reference around them
    wl = Fake([1.0, 2.0, 2.0], [0.1, 0.1, 0.2, 0.2])
    speed = []
    outcomes = run.closed_loop(wl, 0.0, count=3, speed=speed)
    assert speed == [0.1, 0.1, 0.2, 0.2]
    m = run.end_to_end(wl, outcomes, speed, setup_s=1.0, peak_mb=1.0)
    assert m["latency_p50_s"] == 2.0
    # ratios 10, 2/0.15 and 10
    assert m["latency_p50_ref"] == pytest.approx(10.0)

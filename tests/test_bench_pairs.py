"""The no-regression verdict of scripts/bench_pairs.py on fixed samples."""

import pytest

from scripts.bench_pairs import worse

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04]  # median 1.02, interquartile range 0.02


@pytest.mark.parametrize(
    "change,bound,lower,verdict",
    [
        ([1.10, 1.11, 1.12, 1.13, 1.14], 0.05, True, "yes"),  # median 0.10 worse, past 0.051
        ([1.02, 1.03, 1.04, 1.05, 1.06], 0.05, True, "no"),  # 0.02 worse, within the bound
        ([1.01, 1.02, 1.03, 1.04, 1.05], 0.01, True, "unresolved"),  # 0.01 worse, spread 0.02
        ([0.90, 0.91, 0.92, 0.93, 0.94], 0.01, True, "no"),  # every run beats every parent run
        ([1.00, 1.00, 1.01, 1.02, 1.02], 0.01, True, "unresolved"),  # better, but not in every run
        ([0.90, 0.91, 0.92, 0.93, 0.94], 0.05, False, "yes"),  # higher is better: 0.10 worse
        ([1.10, 1.11, 1.12, 1.13, 1.14], 0.01, False, "no"),
    ],
)
def test_worse(change, bound, lower, verdict):
    assert worse(PARENT, change, bound, lower) == verdict


def test_no_spread_resolves():
    assert worse([1.0] * 10, [1.0] * 10, 0.01, False) == "no"
    assert worse([1.0] * 10, [0.98] * 10, 0.01, False) == "yes"

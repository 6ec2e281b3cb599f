"""Tests for the benchmark's own helpers: self time, the percentile rule, the curve check.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer, self_times, tail_percentile  # noqa: E402

REFERENCE = HERE.parent / "runs" / "4a1s" / "NN-4" / "seed0.csv"


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("child", 10, 50, 0),
        ("grandchild", 20, 30, 1),
    ]
    assert self_times(spans) == [60, 30, 10]


def test_self_time_merges_adjacent_and_overlapping_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 20, 0),
        ("b", 20, 30, 0),  # adjacent to a
        ("c", 25, 40, 0),  # overlaps b
        ("d", 90, 120, 0),  # runs past the parent: clipped to 100
    ]
    assert self_times(spans)[0] == 100 - 30 - 10


def test_tracer_records_parents_and_restores_wrapped_attributes():
    class Box:
        @staticmethod
        def outer():
            return Box.inner() + 1

        @staticmethod
        def inner():
            return 1

    original_outer, original_inner = Box.outer, Box.inner
    tracer = Tracer("test-run")
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner", after=lambda a, k, r: r * 10)
    assert Box.outer() == 11
    tracer.uninstall()
    assert (Box.outer, Box.inner) == (original_outer, original_inner)
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_percentile_rule_picks_highest_with_ten_beyond():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990, 1000)
    # one sample fewer leaves only 9 beyond p99, so p90 is reported
    pct, value, n = tail_percentile(values[:999])
    assert (pct, n) == (90.0, 999)
    assert value == 900
    assert tail_percentile(list(range(10_000)))[0] == 99.9
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50.0


def test_curve_prefix_accepts_reference_prefix_and_rejects_perturbed_cr_mean():
    header, rows = checks.read_curve(REFERENCE)
    prefix = [dict(r) for r in rows[:4]]
    assert checks.curve_prefix_failures((header, prefix), (header, rows)) == []

    # losses may drift within the stated tolerance
    drifted = [dict(r) for r in prefix]
    drifted[1]["critic_loss"] = repr(float(drifted[1]["critic_loss"]) * (1 + 1e-14))
    assert checks.curve_prefix_failures((header, drifted), (header, rows)) == []

    perturbed = [dict(r) for r in prefix]
    perturbed[2]["cr_mean"] = repr(math.nextafter(float(perturbed[2]["cr_mean"]), math.inf))
    failures = checks.curve_prefix_failures((header, perturbed), (header, rows))
    assert len(failures) == 1 and "cr_mean" in failures[0]


def test_curve_sanity_flags_out_of_range_and_non_finite_rows():
    header = ["env_steps", "cr_mean", "cr_std", "actor_loss", "critic_loss"]
    good = [{"env_steps": str(s), "cr_mean": "50.0", "cr_std": "3.0", "actor_loss": "-0.1", "critic_loss": "2.0"} for s in (1000, 2000)]
    assert checks.curve_sanity_failures((header, good), 2000, 1000, 200.0) == []
    bad = [dict(r) for r in good]
    bad[0]["cr_mean"] = "250.0"
    bad[1]["actor_loss"] = "nan"
    assert len(checks.curve_sanity_failures((header, bad), 2000, 1000, 200.0)) == 2
    assert checks.curve_sanity_failures((header, good[:1]), 2000, 1000, 200.0) != []

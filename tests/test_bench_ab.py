import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def run(wall_s: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"wall_s": wall_s, "ops_per_s": 100 / wall_s}}


def pairs(n: int = 10) -> dict:
    """``n`` pairs in which the change halves wall_s."""
    return {"base": [run(1.0 + 0.01 * i) for i in range(n)],
            "change": [run(0.5 + 0.01 * i) for i in range(n)]}


def test_summarize_shows_a_clear_gain():
    summary = bench_ab.summarize(pairs(), END_TO_END)
    assert summary["pairs"] == 10
    assert summary["failed_share"] == {"base": 0.0, "change": 0.0}
    for name in ("wall_s", "ops_per_s"):
        assert summary["end_to_end"][name]["change_wins"] == 10
        assert summary["end_to_end"][name]["gain_shown"]
    assert summary["metrics"]["wall_s"]["base"]["median"] == pytest.approx(1.045)
    assert summary["end_to_end"]["wall_s"]["median_change_frac"] == pytest.approx(0.545 / 1.045 - 1)


def test_summarize_needs_ten_pairs():
    summary = bench_ab.summarize(pairs(9), END_TO_END)
    assert not summary["end_to_end"]["wall_s"]["gain_shown"]


def test_summarize_needs_nine_wins_in_ten():
    runs = pairs()
    runs["change"][0] = run(2.0)
    runs["change"][1] = run(2.0)
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["end_to_end"]["wall_s"]["change_wins"] == 8
    assert not summary["end_to_end"]["wall_s"]["gain_shown"]


def test_summarize_shows_no_gain_when_a_change_run_is_wrong():
    runs = pairs()
    runs["change"][3] = run(0.53, correct=False)
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["end_to_end"]["wall_s"]["change_wins"] == 10
    assert not summary["end_to_end"]["wall_s"]["gain_shown"]


def test_summarize_shows_no_gain_when_the_change_fails_more_operations():
    runs = pairs()
    runs["base"][0] = run(1.0, failed=1)
    runs["change"][0] = run(0.5, failed=2)
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["failed_share"] == {"base": 0.001, "change": 0.002}
    assert not summary["end_to_end"]["wall_s"]["gain_shown"]

    runs["change"][0] = run(0.5, failed=1)
    assert bench_ab.summarize(runs, END_TO_END)["end_to_end"]["wall_s"]["gain_shown"]


def test_summarize_raises_on_a_missing_metric():
    runs = pairs()
    del runs["change"][4]["metrics"]["wall_s"]
    with pytest.raises(KeyError):
        bench_ab.summarize(runs, END_TO_END)

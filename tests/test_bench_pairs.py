"""The summary arithmetic of tools/bench_pairs.py on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_median_and_quartiles():
    assert bench_pairs.quartiles([3, 1, 2]) == (1.5, 2, 2.5)
    assert bench_pairs.quartiles(range(1, 11)) == (3.25, 5.5, 7.75)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_clear_gain():
    change = [p - 0.2 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["change_losses"], s["pairs"]) == (10, 0, 10)
    assert s["parent"]["median"] == 1.0
    assert s["change"]["median"] == pytest.approx(0.8)
    assert s["parent_iqr"] == pytest.approx(0.02)
    assert s["gain"]
    # the same numbers for a metric where higher is better are a loss
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert (s["change_wins"], s["gain"]) == (0, False)


def test_nine_of_ten_wins_needed():
    change = [p - 0.2 for p in PARENT]
    change[0] = PARENT[0] + 0.1  # one loss: 9/10 still a gain
    assert bench_pairs.summarize(PARENT, change, "lower")["gain"]
    change[1] = PARENT[1] + 0.1  # two losses: 8/10 is not
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["gain"]) == (8, False)


def test_ties_count_for_neither():
    change = [p - 0.2 for p in PARENT]
    change[0] = PARENT[0]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["change_losses"], s["gain"]) == (9, 0, True)
    change[1] = PARENT[1]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["change_wins"], s["change_losses"], s["gain"]) == (8, 0, False)


def test_gap_must_exceed_parent_iqr():
    # the change wins every pair by a hair: the medians differ by less than
    # the parent's own spread, so no gain
    change = [p - 0.001 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["change_wins"] == 10 and s["parent_iqr"] > 0.001
    assert not s["gain"]


def test_bound():
    # worse by 20% of the parent's median: inside a 25% bound, outside 10%
    change = [p * 1.2 for p in PARENT]
    assert bench_pairs.summarize(PARENT, change, "lower", 0.25)["within_bound"]
    assert not bench_pairs.summarize(PARENT, change, "lower", 0.1)["within_bound"]
    assert bench_pairs.summarize(PARENT, [p * 1.05 for p in PARENT], "lower",
                                 0.1)["within_bound"]
    assert bench_pairs.summarize(PARENT, [p * 0.8 for p in PARENT], "higher",
                                 0.25)["within_bound"]


def test_unresolved_when_parent_spread_exceeds_bound():
    # parent runs spread over +-30% of their median, wider than a 25% bound
    parent = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    mixed = [p * 1.05 for p in parent]  # within the bound, but unresolvable
    s = bench_pairs.summarize(parent, mixed, "lower", 0.25)
    assert s["parent_iqr"] > 0.25 * s["parent"]["median"]
    assert s["within_bound"] and s["unresolved"]
    # every change run better than every parent run resolves it
    s = bench_pairs.summarize(parent, [p * 0.4 for p in parent], "lower", 0.25)
    assert s["within_bound"] and not s["unresolved"]
    s = bench_pairs.summarize(parent, [p * 4 for p in parent], "higher", 0.25)
    assert not s["unresolved"]
    # a narrow parent spread reads as within the bound, resolved
    s = bench_pairs.summarize(PARENT, [p * 1.05 for p in PARENT], "lower", 0.25)
    assert s["within_bound"] and not s["unresolved"]
    # no bound, no such reading
    assert "unresolved" not in bench_pairs.summarize(parent, mixed, "lower")


def test_rejects_unpaired():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "faster")


def test_refuses_dirty_checkout(monkeypatch, capsys):
    # an untracked file would be left out of the measured tree: refuse
    def fake_git(*args):
        assert args[:2] == ("status", "--porcelain")
        assert "--untracked-files=all" in args
        return "?? src/uqsl/new_module.py"
    monkeypatch.setattr(bench_pairs, "_git", fake_git)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD~1", "--tag", "t"])
    assert exc.value.code == 2
    assert "src/uqsl/new_module.py" in capsys.readouterr().err

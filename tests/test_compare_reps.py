"""The verdict rule and the peak-RSS line of ``scripts/compare_reps.py``."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reps.py"
_spec = importlib.util.spec_from_file_location("compare_reps", _SCRIPT)
compare_reps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reps)
verdict = compare_reps.verdict

#: Ten parent reps: median 1.05 s, q1 1.02 s, q3 1.08 s (spread 0.06 s).
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.06, 1.07, 1.08, 1.09, 1.10]


def shifted(by):
    return [wall - by for wall in PARENT]


def test_quartiles_are_the_printed_ones():
    assert compare_reps.quartiles(PARENT) == (1.00, 1.02, 1.05, 1.08)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_spread():
    line = verdict(PARENT, shifted(0.10), won=9)
    assert line.startswith("verdict: gain (")
    assert "won 9 of 10" in line and "gap 0.100 s" in line
    assert "spread 0.060 s" in line


def test_eight_of_ten_pairs_is_no_gain():
    line = verdict(PARENT, shifted(0.10), won=8)
    assert line == "verdict: no gain (change won 8 of 10 pairs, under 9/10)"


def test_a_gap_inside_the_parent_spread_is_no_gain():
    line = verdict(PARENT, shifted(0.05), won=10)
    assert line.startswith("verdict: no gain (median gap 0.050 s not above")


def test_fewer_than_ten_pairs_is_no_gain_however_clear():
    line = verdict(PARENT[:6], shifted(1.0)[:6], won=6)
    assert line.startswith("verdict: no gain (6 pairs, fewer than 10")


def test_a_slower_change_fails_every_part_of_the_rule():
    line = verdict(PARENT, [wall + 0.2 for wall in PARENT], won=0)
    assert "won 0 of 10" in line and "median gap -0.200 s" in line


def test_peak_rss_line_pairs_the_sides():
    line = compare_reps.peak_rss_line(70.4, 50.3)
    assert line == ("  peak RSS (ru_maxrss after the reps): parent 70.4 MB  "
                    "change 50.3 MB  parent / change x1.40")


def test_peak_rss_lines_read_the_warm_up_reply_then_the_last(monkeypatch,
                                                             capsys):
    """The first RSS line is each side's peak after set-up and the warm-up
    rep (its first reply); the second, unchanged, after its last rep."""

    class Side:
        def __init__(self, label, root, args):
            self.label, self.walls, self.won = label, [], 0
            self.replies = iter([40.0, 41.0, 42.0] if label == "parent"
                                else [30.0, 33.0, 35.0])
            self.process = SimpleNamespace(
                stdin=SimpleNamespace(close=lambda: None), wait=lambda: 0)

        def result(self):
            self.last = {"signature": "same", "wall_s": 1.0,
                         "ops_per_s": 1.0,
                         "peak_rss_mb": next(self.replies)}
            return self.last

        def rep(self):
            self.walls.append(self.result()["wall_s"])
            return self.walls[-1]

    monkeypatch.setattr(compare_reps, "Side", Side)
    args = SimpleNamespace(parent=".", change=".", workload="btree_chain",
                           seed=1, reps=2, quick=True)
    assert compare_reps.compare(args) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "peak RSS" in line]
    assert lines == [
        "  peak RSS (ru_maxrss after set-up and the warm-up rep): parent "
        "40.0 MB  change 30.0 MB  parent / change x1.33",
        "  peak RSS (ru_maxrss after the reps): parent 42.0 MB  change "
        "35.0 MB  parent / change x1.20"]

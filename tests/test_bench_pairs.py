"""The summary of tools/bench_pairs.py on fixed pairs of runs."""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import bench_pairs  # noqa: E402


def pairs_of(parent: list[float], change: list[float], name: str = "tasks_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_quartiles_wins_and_gain():
    parent = [23.0, 23.4, 23.1, 23.6, 23.2, 23.3, 23.5, 22.9, 23.2, 23.4]
    change = [25.1, 25.6, 25.4, 23.5, 25.9, 25.2, 25.8, 25.0, 25.5, 25.3]
    (row,) = bench_pairs.summarize(pairs_of(parent, change), {"tasks_per_s": "higher"})
    assert (row.parent.q1, row.parent.median, row.parent.q3) == pytest.approx((23.125, 23.25, 23.4))
    assert (row.change.q1, row.change.median, row.change.q3) == pytest.approx((25.125, 25.35, 25.575))
    assert (row.wins, row.pairs) == (9, 10)  # the fourth pair went to the parent
    assert row.gain_holds


def test_lower_is_better_and_ties_count_for_neither():
    parent = [0.043, 0.044, 0.043, 0.042]
    change = [0.038, 0.044, 0.039, 0.038]
    (row,) = bench_pairs.summarize(pairs_of(parent, change, "task_s_p50"), {"task_s_p50": "lower"})
    assert row.wins == 3
    assert not row.gain_holds  # 3 of 4 is under nine in ten


def test_gain_within_parent_spread_does_not_hold():
    parent = [20.0, 24.0, 22.0, 26.0, 21.0, 25.0, 23.0, 20.5, 24.5, 22.5]
    change = [p + 0.5 for p in parent]
    (row,) = bench_pairs.summarize(pairs_of(parent, change), {"tasks_per_s": "higher"})
    assert row.wins == 10
    assert row.change.median - row.parent.median < row.parent.q3 - row.parent.q1
    assert not row.gain_holds


def test_fewer_than_ten_pairs_claim_nothing():
    (row,) = bench_pairs.summarize(pairs_of([1.0] * 9, [2.0] * 9), {"tasks_per_s": "higher"})
    assert row.wins == 9 and not row.gain_holds
    zero = bench_pairs.summarize(pairs_of([0.0], [0.0], "calls"), {"calls": "lower"})
    assert bench_pairs.format_rows(zero).splitlines()[1].split()[-2:] == ["-", "0/1"]


def test_metric_without_direction_has_no_wins():
    pairs = [({"a": 1.0, "b": 2.0}, {"a": 2.0}), ({"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 1.0})]
    (row,) = bench_pairs.summarize(pairs, {})  # b is missing from one run
    assert row.metric == "a" and row.better is None and row.wins is None
    assert not row.gain_holds
    assert "-" in bench_pairs.format_rows([row]).splitlines()[1]


def test_single_pair_and_seed_ranges():
    (row,) = bench_pairs.summarize(pairs_of([1.0], [2.0]), {"tasks_per_s": "higher"})
    assert row.parent == bench_pairs.Spread(1.0, 1.0, 1.0)
    assert bench_pairs.parse_seeds("701-704") == [701, 702, 703, 704]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]
    with pytest.raises(ValueError):
        bench_pairs.summarize([], {})


def test_seed_lists_join_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("701-705,710") == [701, 702, 703, 704, 705, 710]
    assert bench_pairs.parse_seeds("9,3-4,7-7") == [9, 3, 4, 7]


@pytest.mark.parametrize("text", ["705-701", "701-705,9-8", "", "701,", ",701", "701-", "-5", "7-8-9", "seven"])
def test_reversed_or_empty_seed_ranges_are_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


def test_bad_seed_list_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "exact-checks", "--seeds", "710-701"])
    assert exit_info.value.code == 2
    assert "range '710-701' in '710-701' runs backwards" in capsys.readouterr().err


def test_failed_run_names_its_checkout_seed_exit_code_and_stderr_tail(tmp_path):
    (tmp_path / "bench").mkdir()
    script = "import sys\nfor i in range(30):\n    print('line', i, file=sys.stderr)\nsys.exit(3)\n"
    (tmp_path / "bench" / "run.py").write_text(script)
    with pytest.raises(RuntimeError) as error:
        bench_pairs.run_once(str(tmp_path), "exact-checks", 7, 1.0, 0)
    message = str(error.value)
    assert message.startswith(f"{tmp_path}: bench/run.py exited with 3 at seed 7")
    assert message.endswith("\n".join(f"line {i}" for i in range(10, 30)))
    assert "line 9\n" not in message


def run_output(tasks_per_s: float, quality: dict[str, float]) -> str:
    """The last two lines that ``bench/run.py`` prints, trimmed to what the summary reads."""
    record = {"workload": "paper-grid", "quality": {k: {"value": v, "unit": "ratio"} for k, v in quality.items()}}
    record["setup_samples_s"] = [0.31, 0.28, 0.29]
    result = {"correct": True, "attempted": 40, "failed": 0, "metrics": {"tasks_per_s": {"value": tasks_per_s, "unit": "1/s"}}}
    return "\n".join([json.dumps({"record": record}), json.dumps(result)]) + "\n"


def test_parse_run_reads_metrics_and_quality_means():
    metrics, quality, setups, result = bench_pairs.parse_run(run_output(26.5, {"ideal_acc": 0.7505, "eo_gap": 0.058}))
    assert metrics == {"tasks_per_s": 26.5}
    assert quality == {"ideal_acc": 0.7505, "eo_gap": 0.058}
    assert setups == [0.31, 0.28, 0.29]
    assert result["correct"]
    bare = json.dumps({"record": {"workload": "exact-checks"}}) + "\n" + json.dumps(result)
    assert bench_pairs.parse_run(bare)[1:3] == ({}, None)


def test_equal_quality_means_at_every_seed():
    q = {"ideal_acc": 0.7505, "shift_risk_gap": 0.07178125, "pp_gap": float("nan")}
    lines = bench_pairs.same_quality([901, 902], [(q, dict(q)), (q, dict(q))])
    assert lines == ["seed 901: quality means equal", "seed 902: quality means equal", "quality means equal at every seed"]


def test_first_differing_seed_and_metric_named():
    q = {"eo_gap": 0.05798134493991306, "ideal_acc": 0.7505}
    moved = q | {"eo_gap": 0.05798134493991307}
    lines = bench_pairs.same_quality([7, 8, 9], [(q, q), (q, moved), (moved, q | {"ideal_acc": 0.75})])
    assert lines[:3] == [
        "seed 7: quality means equal",
        "seed 8: quality means differ in eo_gap",
        "seed 9: quality means differ in eo_gap, ideal_acc",
    ]
    assert lines[3] == "quality means first differ at seed 8, eo_gap: parent 0.05798134493991306, change 0.05798134493991307"
    missing = bench_pairs.same_quality([3], [(q, {"ideal_acc": 0.7505})])
    assert missing[-1] == "quality means first differ at seed 3, eo_gap: parent 0.05798134493991306, change None"


def test_runs_without_quality_compare_nothing():
    assert bench_pairs.same_quality([1, 2], [({}, {}), ({}, {})]) == ["no quality means to compare"]


def test_attempted_medians_per_side():
    line = bench_pairs.attempted_line([(27000, 32900), (27400, 33100), (26800, 32500)])
    assert line == "attempted tasks, median: parent 27000, change 32900 (+21.9%)"
    assert bench_pairs.attempted_line([(0, 3)]).endswith("(-)")


def checkout(root, files: dict[str, str]) -> str:
    """A checkout directory at ``root`` whose src/balancelab holds ``files``."""
    package = root / "src" / "balancelab"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).parent.mkdir(parents=True, exist_ok=True)
        (package / name).write_text(text, encoding="utf-8")
    return str(root)


def test_main_prints_attempted_counts_under_the_table(monkeypatch, capsys, tmp_path):
    parent = checkout(tmp_path / "parent", {"a.py": "x = 1\n" * 30})
    change = checkout(tmp_path / "change", {"a.py": "x = 1\n" * 28})
    runs = {parent: ({"tasks_per_s": 900.0}, {}, 27000, [0.3, 0.25, 0.26]), change: ({"tasks_per_s": 1100.0}, {}, 33000, [0.2, 0.15, 0.17])}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: runs[checkout])
    monkeypatch.setattr(bench_pairs, "directions", lambda checkout: {"tasks_per_s": "higher"})
    monkeypatch.setattr(bench_pairs, "bounds", lambda checkout: {"tasks_per_s": 0.15})
    bench_pairs.main(["--parent", parent, "--change", change, "--workload", "exact-checks", "--seeds", "1-2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("metric") and lines[0].endswith("verdict")
    assert lines[1].startswith("tasks_per_s") and lines[1].endswith("2/2  within bound")
    assert lines[2] == "attempted tasks, median: parent 27000, change 33000 (+22.2%)"
    assert lines[3] == "set-up, median in-process / replica: parent 0.3 / 0.255 s, change 0.2 / 0.16 s"
    assert lines[4] == "src/balancelab lines: parent 30, change 28 (-2)"
    assert lines[5:] == ["no quality means to compare"]


def test_setup_medians_per_side_split_in_process_from_replicas():
    samples = [([0.30, 0.26, 0.27], [0.31, 0.15, 0.16]), ([0.28, 0.25, 0.29], [0.33, 0.14, 0.15]), ([0.29, 0.24, 0.28], [0.30, 0.16, 0.14])]
    line = bench_pairs.setup_line(samples)
    assert line == "set-up, median in-process / replica: parent 0.29 / 0.265 s, change 0.31 / 0.15 s"
    assert bench_pairs.setup_line([(None, None)]) == "set-up samples: none recorded"
    assert bench_pairs.setup_line([([0.3, 0.2], [0.3])]) == "set-up samples: none recorded"


def test_source_lines_count_every_package_file_as_wc_does(tmp_path):
    files = {"a.py": "a\nb\n", "b.py": "c\nno final newline", "sub/c.py": "d\n", "notes.txt": "e\nf\n"}
    parent = checkout(tmp_path / "parent", files)
    change = checkout(tmp_path / "change", files | {"a.py": "a\n"})
    assert bench_pairs.source_lines(parent) == 2 + 1 + 1  # .py files only, at any depth
    assert bench_pairs.source_lines(change) == 3
    assert bench_pairs.lines_line(4, 3) == "src/balancelab lines: parent 4, change 3 (-1)"
    assert bench_pairs.lines_line(3, 3).endswith("(+0)")


def test_checkout_without_the_package_fails_before_any_run(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", refuse)
    change = checkout(tmp_path / "change", {"a.py": "x\n"})
    with pytest.raises(FileNotFoundError, match="no src/balancelab directory"):
        bench_pairs.main(["--parent", str(tmp_path), "--change", change, "--workload", "exact-checks", "--seeds", "1"])


def verdict_of(parent: list[float], change: list[float], better: str = "lower", bound: float = 0.25) -> str | None:
    (row,) = bench_pairs.summarize(pairs_of(parent, change, "m"), {"m": better}, {"m": bound})
    return row.verdict


def test_no_regression_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]  # quartile spread 2% of the median
    assert verdict_of(parent, [p * 1.2 for p in parent]) == "within bound"  # 20% worse, bound 25%
    assert verdict_of(parent, [p * 1.3 for p in parent]) == "worse beyond bound"
    assert verdict_of(parent, [p * 0.5 for p in parent]) == "within bound"
    assert verdict_of(parent, [p * 0.8 for p in parent], "higher") == "within bound"
    assert verdict_of(parent, [p * 0.7 for p in parent], "higher") == "worse beyond bound"
    assert verdict_of(parent, [p * 1.2 for p in parent], "lower", 0.15) == "worse beyond bound"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [1.0, 1.4, 0.8, 1.2, 0.9, 1.1]  # quartiles 0.925, 1.05, 1.175: 24% of the median
    assert verdict_of(parent, parent, bound=0.25) == "within bound"
    assert verdict_of(parent, parent, bound=0.2) == "unresolved"
    assert verdict_of(parent, [p * 2 for p in parent], bound=0.2) == "unresolved"  # not resolved either way
    # unless every change run beats every parent run
    assert verdict_of(parent, [0.7, 0.75, 0.6, 0.79, 0.72, 0.7], bound=0.2) == "within bound"
    assert verdict_of(parent, [1.5, 1.6, 1.45, 1.41, 1.7, 1.5], "higher", 0.2) == "within bound"
    assert verdict_of(parent, [0.7, 0.75, 0.6, 0.79, 0.72, 0.85], bound=0.2) == "unresolved"  # 0.85 > 0.8


def test_verdict_only_for_bounded_metrics_with_a_direction(tmp_path):
    pairs = [({"setup_s": 1.0, "calls": 3.0, "odd": 1.0}, {"setup_s": 1.0, "calls": 3.0, "odd": 1.0})]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "calls", "better": "lower"}],
    }))
    assert bench_pairs.bounds(str(tmp_path)) == {"setup_s": 0.25}
    rows = bench_pairs.summarize(pairs, bench_pairs.directions(str(tmp_path)), bench_pairs.bounds(str(tmp_path)))
    assert [r.verdict for r in rows] == ["within bound", None, None]
    lines = bench_pairs.format_rows(rows).splitlines()
    assert lines[1].endswith("0/1  within bound") and lines[2].endswith("0/1") and lines[3].endswith("-")

"""tools/bench_pairs.py on two stub checkouts whose bench/run.py prints fixed
metrics: the pairs alternate which side runs first, the record holds each
side's medians and quartiles and the median change, the claim rule (ten
pairs or more, better in 9/10 of them, medians apart by more than the
parent's IQR) is judged per metric, so is the no-regression rule (worse
past the bound, or unresolved when a side spreads past it unless every
change run beats every parent run), and a far-out run is named, but only
when it is off its side's median by more than the metric's bound."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

STUB = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
with open(here.parent / "order.txt", "a") as log:
    log.write(here.name + " " + " ".join(args) + "\\n")
count = len((here.parent / "order.txt").read_text().splitlines())
op = ({OP} + count * 1e-6) * {SCALE}.get(count, 1)
print("noise")
print(json.dumps({{"correct": {CORRECT}, "attempted": 10, "failed": 0, "metrics": {{
    "setup_s": {{"value": 0.01, "unit": "s"}},
    "op_s.p50": {{"value": op, "unit": "s"}},
    "ops_per_s": {{"value": 1 / op, "unit": "1/s"}},
    "peak_rss_mb": {{"value": 20.0, "unit": "MB"}}}}}}))
"""


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, name: str, op: float, correct: bool = True,
              scale: dict | None = None) -> Path:
    """A stub whose op time grows by 1 us per run so far, times scale[n] in
    the run that is the n-th of both sides."""
    (root / name / "bench").mkdir(parents=True)
    (root / name / "bench" / "run.py").write_text(
        STUB.format(OP=op, CORRECT=correct, SCALE=scale or {}))
    return root / name


@pytest.fixture
def tool(tmp_path, monkeypatch):
    module = _load()
    (tmp_path / "repo").mkdir()
    (tmp_path / "repo" / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "ROOT", tmp_path / "repo")
    return module


def test_pairs_alternate_and_the_record_holds_both_sides(tool, tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 0.002)
    change = _checkout(tmp_path, "change", 0.001)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--seed", "3", "--pairs", "3"]) == 0
    runs = (tmp_path / "order.txt").read_text().splitlines()
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    assert [line.split()[0] for line in runs] == ["parent", "change", "change",
                                                  "parent", "parent", "change"]
    assert all(line.split()[1:] == ["--workload", "census-l1", "--seed", "3",
                                    "--seconds", str(seconds)] for line in runs)
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    assert (record["workload"], record["seed"], record["pairs"]) == ("census-l1", 3, 3)
    assert record["parent"]["commit"] is None  # the stubs are not git work trees
    op = record["parent"]["metrics"]["op_s.p50"]
    assert op["values"] == pytest.approx([0.002001, 0.002004, 0.002005])
    assert op["median"] == pytest.approx(0.002004)
    assert op["iqr"] == pytest.approx(op["q3"] - op["q1"]) and op["iqr"] > 0
    assert record["change"]["metrics"]["op_s.p50"]["median"] == pytest.approx(0.001003)
    assert record["median_change"]["op_s.p50"] == pytest.approx(0.001003 / 0.002004 - 1)
    assert record["median_change"]["setup_s"] == 0
    assert record["outliers"] == []
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["op_s.p50"].startswith("op_s.p50: median 0.002004 -> 0.001003 (-")
    assert lines["op_s.p50"].endswith("change better in 3/3 pairs")
    assert lines["ops_per_s"].endswith("change better in 3/3 pairs")
    assert lines["setup_s"].endswith("(+0.0%), change better in 0/3 pairs")
    assert lines["pair 2/3 (change first)"]
    # three pairs won of three are too few for a claim
    assert record["claim"]["op_s.p50"] == {"wins": 3, "pairs": 3, "parent_iqr": op["iqr"],
                                           "met": False}
    assert lines["claim op_s.p50"].endswith("better in 3/3 pairs: claim rule not met")
    assert lines["claim setup_s"].endswith("better in 0/3 pairs: claim rule not met")


# The n-th run of both sides is pair (n + 1) // 2; the parent runs first in
# odd pairs and second in even ones.  Scaling a change run by 3 makes the
# change lose that pair.
@pytest.mark.parametrize("lost, met", [({2: 3}, True), ({2: 3, 3: 3}, False)])
def test_the_claim_needs_nine_of_ten_pairs(tool, tmp_path, capsys, lost, met):
    parent = _checkout(tmp_path, "parent", 0.002)
    change = _checkout(tmp_path, "change", 0.001, scale=lost)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "10"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    for name in ("op_s.p50", "ops_per_s"):
        assert record["claim"][name]["wins"] == 10 - len(lost)
        assert record["claim"][name]["met"] is met
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["claim op_s.p50"].endswith(f"claim rule {'met' if met else 'not met'}")


def test_the_claim_needs_a_gain_past_the_parent_iqr(tool, tmp_path):
    # both sides read 2 ms in odd pairs and 3 ms in even ones, the change about
    # 1 % less: it wins every pair, by far less than the parent's IQR of 1 ms
    parent = _checkout(tmp_path, "parent", 0.002, scale={n: 1.5 for n in (4, 8, 12, 16, 20)})
    change = _checkout(tmp_path, "change", 0.002, scale={n: 0.99 for n in range(2, 20, 4)}
                       | {n: 1.49 for n in range(3, 20, 4)})
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "10"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    claim = record["claim"]["op_s.p50"]
    assert claim["wins"] == 10 and claim["parent_iqr"] == pytest.approx(0.001, rel=0.01)
    assert claim["met"] is False
    assert record["median_change"]["op_s.p50"] == pytest.approx(-0.008, abs=0.001)


def test_a_change_worse_past_the_bound_is_named(tool, tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 0.001)
    change = _checkout(tmp_path, "change", 0.002)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "3"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    regression = record["regression"]
    assert {name: r["verdict"] for name, r in regression.items()} == {
        "setup_s": "ok", "op_s.p50": "worse", "ops_per_s": "worse", "peak_rss_mb": "ok"}
    # the parent's runs are the 1st, 4th and 5th, the change's the 2nd, 3rd and 6th
    assert regression["op_s.p50"]["worse_by"] == pytest.approx(0.002003 / 0.001004 - 1)
    assert regression["ops_per_s"]["worse_by"] == pytest.approx(1 - 0.001004 / 0.002003)
    assert regression["op_s.p50"]["bound"] == 0.25
    assert regression["setup_s"] == {"worse_by": 0, "bound": 0.25, "parent_spread": 0,
                                     "change_spread": 0,
                                     "change_beats_every_parent_run": False,
                                     "verdict": "ok"}
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["regression op_s.p50"].endswith(", bound 25%: worse")
    assert lines["regression op_s.p50"].startswith(
        "regression op_s.p50: median worse by +99.")


# The parent runs 1st, 4th, 5th, 8th and 9th of the ten: its last three
# runs read 1.6 times the first two, an IQR of 37 % of its median.
@pytest.mark.parametrize("op, verdict", [(0.002, "unresolved"), (0.0015, "ok")])
def test_a_spread_past_the_bound_is_unresolved(tool, tmp_path, capsys, op, verdict):
    parent = _checkout(tmp_path, "parent", 0.002, scale={5: 1.6, 8: 1.6, 9: 1.6})
    change = _checkout(tmp_path, "change", op)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "5"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    for name in ("op_s.p50", "ops_per_s"):
        regression = record["regression"][name]
        # the change's median is better, by more than the bound even
        assert regression["worse_by"] < -0.25
        assert regression["parent_spread"] > 0.25 > regression["change_spread"]
        # at 2 ms, the change's runs are slower than the parent's first two;
        # at 1.5 ms every change run beats every parent run
        assert regression["change_beats_every_parent_run"] is (verdict == "ok")
        assert regression["verdict"] == verdict
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["regression ops_per_s"].endswith(f": {verdict}")


def test_a_far_out_run_is_named(tool, tmp_path, capsys):
    # the parent runs 1st, 4th, 5th, 8th and 9th of the ten, so its third
    # pair reads five times its neighbours
    parent = _checkout(tmp_path, "parent", 0.002, scale={5: 5})
    change = _checkout(tmp_path, "change", 0.001)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "5"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    assert record["parent"]["metrics"]["op_s.p50"]["values"][2] == pytest.approx(0.010025)
    assert [(o["side"], o["metric"], o["pair"]) for o in record["outliers"]] == [
        ("parent", "op_s.p50", 3), ("parent", "ops_per_s", 3)]
    assert record["outliers"][0]["value"] == pytest.approx(0.010025)
    out = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("outlier:")]
    assert len(out) == 2
    assert out[0].startswith("outlier: parent op_s.p50 in pair 3: 0.010025 outside [")


def test_runs_within_the_bound_are_not_named(tool, tmp_path, capsys):
    # the parent's 2nd and 4th pairs (runs 4 and 8) read +5 % and -4 %: far
    # outside the 3 IQR fence of steady runs, well inside the 25 % bound
    parent = _checkout(tmp_path, "parent", 0.002, scale={4: 1.05, 8: 0.96})
    change = _checkout(tmp_path, "change", 0.001)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "5"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    op = record["parent"]["metrics"]["op_s.p50"]
    lo, hi = op["q1"] - 3 * op["iqr"], op["q3"] + 3 * op["iqr"]
    assert not lo <= op["values"][1] <= hi and not lo <= op["values"][3] <= hi
    assert record["outliers"] == []
    assert not any(line.startswith("outlier:") for line in capsys.readouterr().out.splitlines())


def test_a_run_far_below_the_others_is_named(tool, tmp_path):
    # the parent reads 6.0, 7.5, 1.29, 9.0 and 6.6 ms: the third run is off
    # the median by 80 %, past the 25 % bound and the fence
    parent = _checkout(tmp_path, "parent", 0.006,
                       scale={4: 1.25, 5: 0.215, 8: 1.5, 9: 1.1})
    change = _checkout(tmp_path, "change", 0.006)
    assert tool.main([str(parent), str(change), "--workload", "census-l1",
                      "--pairs", "5"]) == 0
    record = json.loads((tmp_path / "repo" / "BENCH_census-l1.json").read_text())
    assert record["parent"]["metrics"]["op_s.p50"]["values"][2] == pytest.approx(0.001291075)
    assert [(o["side"], o["metric"], o["pair"]) for o in record["outliers"]] == [
        ("parent", "op_s.p50", 3), ("parent", "ops_per_s", 3)]


def test_a_wrong_output_stops_the_pairs(tool, tmp_path):
    parent = _checkout(tmp_path, "parent", 0.002)
    change = _checkout(tmp_path, "change", 0.001, correct=False)
    with pytest.raises(SystemExit, match="failed"):
        tool.main([str(parent), str(change), "--workload", "census-l1", "--pairs", "2"])
    assert not (tmp_path / "repo" / "BENCH_census-l1.json").exists()


def test_a_checkout_without_the_bench_is_refused(tool, tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 0.002)
    with pytest.raises(SystemExit):
        tool.main([str(parent), str(tmp_path), "--workload", "census-l1"])
    assert "has no bench/run.py" in capsys.readouterr().err

"""The pair recorder's schedule and summary, on canned runs.

``bench/record.py`` is loaded from its file; no benchmark child is started.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

RECORD = Path(__file__).resolve().parents[1] / "bench" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(workload, pair, side, fps, rss, golden="checked"):
    metrics = {
        "fps": {"value": fps, "unit": "frames/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {
        "workload": workload, "pair": pair, "side": side, "golden": golden,
        "out_grfq_sha256": None, "result": {"metrics": metrics},
    }


BETTER = {"fps": "higher", "peak_rss_mb": "lower"}


def test_pairs_alternate_after_one_golden_pair(record):
    runs = record.schedule({"w": 4, "v": 2})
    assert [(p, o, s) for w, p, o, s in runs if w == "w"] == [
        ("golden", 0, "parent"), ("golden", 1, "change"),
        (0, 0, "parent"), (0, 1, "change"), (1, 0, "change"), (1, 1, "parent"),
        (2, 0, "parent"), (2, 1, "change"), (3, 0, "change"), (3, 1, "parent"),
    ]
    assert [w for w, *_ in runs] == ["w"] * 10 + ["v"] * 6


@pytest.mark.parametrize("count", [0, 3])
def test_an_odd_or_empty_pair_count_is_refused(record, count):
    with pytest.raises(ValueError, match="even"):
        record.schedule({"w": count})


def test_summary_over_numbered_pairs(record):
    runs = [
        canned("w", "golden", "parent", 1.0, 1.0), canned("w", "golden", "change", 99.0, 99.0),
        canned("w", 0, "parent", 100.0, 10.0), canned("w", 0, "change", 110.0, 10.0),
        canned("w", 1, "change", 90.0, 9.0), canned("w", 1, "parent", 120.0, 11.0),
        canned("w", 2, "parent", 140.0, 10.0), canned("w", 2, "change", 150.0, 10.5),
        canned("w", 3, "change", 170.0, 10.0), canned("w", 3, "parent", 160.0, 10.0),
    ]
    fps = record.summarize(runs, BETTER)["w seed 0"]["fps"]
    assert fps["parent_median"] == 130.0 and fps["change_median"] == 130.0
    assert fps["parent_quartiles"] == [115.0, 145.0]
    assert fps["change_quartiles"] == [105.0, 155.0]
    assert fps["change_better_pairs"] == 3 and fps["pairs"] == 4
    assert fps["change_vs_parent"] == 0.0
    rss = record.summarize(runs, BETTER)["w seed 0"]["peak_rss_mb"]
    # lower is better: pair 1 won, pairs 0 and 3 tied, pair 2 lost
    assert rss["change_better_pairs"] == 1 and rss["pairs"] == 4


def test_an_unfinished_pair_is_left_out(record):
    runs = [
        canned("w", 0, "parent", 100.0, 10.0), canned("w", 0, "change", 110.0, 10.0),
        canned("w", 1, "change", 500.0, 10.0),
    ]
    fps = record.summarize(runs, BETTER)["w seed 0"]["fps"]
    assert fps["pairs"] == 1 and fps["change_median"] == 110.0
    assert fps["parent_quartiles"] == [100.0, 100.0]


def test_golden_lists_each_distinct_outcome(record):
    runs = [
        canned("w", "golden", "parent", 1.0, 1.0), canned("w", "golden", "change", 1.0, 1.0),
        canned("w", 0, "change", 1.0, 1.0, golden="mismatch: generated inputs differ"),
    ]
    assert record.golden(runs) == {
        "w": {
            "golden": ["checked", "mismatch: generated inputs differ"], "out_grfq_sha256": [None],
        },
    }


def test_checkouts_of_unequal_path_length_are_refused(record, tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        record.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--label", "x",
                     "--parent-commit", "0", "--pairs", "w=2"])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err


def checkouts_with_spec(tmp_path):
    """Two checkouts of equal path length, each with this repository's BENCHMARK.json."""
    spec = (RECORD.parents[1] / "BENCHMARK.json").read_text()
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(spec)
    return [str(tmp_path / "a"), str(tmp_path / "b"), "--label", "x", "--parent-commit", "0"]


def canned_run_once(checkout, workload, seconds):
    info = {
        "nproc": 2, "python": "3.11.7", "numpy": np.__version__, "golden": "checked",
        "timings_s": {"op": {"median": 0.1}, "reference": {"median": 0.1}},
    }
    return info, canned(workload, 0, "parent", 100.0, 30.0)["result"]


@pytest.mark.parametrize("claim, refusal", [
    ({"workload": "v", "metric": "peak_rss_mb"}, "its workload must be one of --pairs"),
    ({"metric": "peak_rss_mb"}, "its workload must be one of --pairs"),
    ({"workload": "w", "metric": "cli.encode.ms"}, "its metric must be one of"),  # per-layer
    ({"workload": "w", "metric": "rss"}, "its metric must be one of"),
    (["w", "peak_rss_mb"], "its workload must be one of --pairs"),
])
def test_a_claim_no_row_can_match_is_a_usage_error(
    record, tmp_path, capsys, monkeypatch, claim, refusal
):
    def no_run(*args):
        raise AssertionError("a benchmark ran before the claim was checked")

    monkeypatch.setattr(record, "run_once", no_run)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        record.main(
            checkouts_with_spec(tmp_path) + ["--claim", json.dumps(claim), "--pairs", "w=2"]
        )
    assert exit_info.value.code == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()


def test_a_valid_claim_gets_its_verdict_on_canned_runs(record, tmp_path, monkeypatch):
    monkeypatch.setattr(record, "run_once", canned_run_once)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    claim = {"workload": "w", "metric": "peak_rss_mb"}
    argv = checkouts_with_spec(tmp_path) + ["--claim", json.dumps(claim), "--pairs", "w=2"]
    assert record.main(argv) == 0
    rows = json.loads((tmp_path / "BENCH_x.json").read_text())["summary"]["w seed 0"]
    assert rows["peak_rss_mb"]["claim_met"] is False  # two tied pairs
    assert "claim_met" not in rows["fps"]


def pairs_of(parent, change):
    """Canned numbered pairs of fps readings, alternating which side ran first."""
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change)):
        sides = [canned("w", pair, "parent", a, 10.0), canned("w", pair, "change", b, 10.0)]
        runs += sides[::-1] if pair % 2 else sides
    return runs


PARENT_FPS = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
CLAIM = {"workload": "w", "metric": "fps"}


@pytest.mark.parametrize("change, met", [
    ([v + 10.0 for v in PARENT_FPS], True),
    # 9 of 10 pairs won, a tie in the tenth: still met
    ([v + 10.0 for v in PARENT_FPS[:9]] + [PARENT_FPS[9]], True),
    # 8 of 10 pairs won
    ([v + 10.0 for v in PARENT_FPS[:8]] + PARENT_FPS[8:], False),
    # every pair won, by less than the parent's quartile spread (102.25 to 106.75)
    ([v + 1.0 for v in PARENT_FPS], False),
])
def test_claim_met_by_the_pair_rule(record, change, met):
    row = record.summarize(pairs_of(PARENT_FPS, change), BETTER, CLAIM)["w seed 0"]["fps"]
    assert row["claim_met"] is met


def test_claim_met_needs_ten_pairs(record):
    row = record.summarize(
        pairs_of(PARENT_FPS[:8], [v + 10.0 for v in PARENT_FPS[:8]]), BETTER, CLAIM
    )["w seed 0"]["fps"]
    assert row["change_better_pairs"] == row["pairs"] == 8
    assert row["claim_met"] is False


def test_claim_met_for_a_lower_is_better_metric(record):
    runs = pairs_of(PARENT_FPS, PARENT_FPS)
    for run in runs:
        rss = 30.0 if run["side"] == "change" else 31.0 + run["pair"] / 10
        run["result"]["metrics"]["peak_rss_mb"]["value"] = rss
    summary = record.summarize(runs, BETTER, {"workload": "w", "metric": "peak_rss_mb"})
    assert summary["w seed 0"]["peak_rss_mb"]["claim_met"] is True
    assert "claim_met" not in summary["w seed 0"]["fps"]


def test_no_claim_no_verdict(record):
    rows = record.summarize(pairs_of(PARENT_FPS, PARENT_FPS), BETTER)["w seed 0"]
    assert not any("claim_met" in row for row in rows.values())


@pytest.mark.parametrize("threads", [None, "1", "4"])
def test_machine_records_simd_blas_and_the_inherited_thread_count(record, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    info = {"nproc": 2, "python": "3.11.7", "numpy": np.__version__, "timings_s": {}}
    found = record.machine(info)
    assert found["nproc"] == 2 and found["python"] == "3.11.7" and found["numpy"] == np.__version__
    assert found["openblas_num_threads"] == threads
    config = np.show_config(mode="dicts")
    assert found["simd"] == config["SIMD Extensions"]
    assert found["blas"]["name"] == config["Build Dependencies"]["blas"]["name"]
    json.dumps(found)  # the record is JSON

"""The pair recorder's schedule and summary, on canned runs.

``bench/record.py`` is loaded from its file; no benchmark child is started.
"""

import importlib.util
from pathlib import Path

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

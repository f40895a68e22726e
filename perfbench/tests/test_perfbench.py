"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "24"


@pytest.fixture
def workdir():
    run.WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def bench_result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    result, info = bench_result(
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--frames", TINY
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert (ROOT / info["trace_file"]).is_file()
    assert info["output_sha256"] and info["input_sha256"]


def test_seed_changes_inputs_but_not_metric_names(workdir):
    for name in workloads.NAMES:
        hashes = []
        for seed in (1, 2):
            sub = workdir / f"{name}-{seed}"
            sub.mkdir()
            workloads.make_inputs(name, sub, seed, 24)
            hashes.append(workloads.input_hashes(sub))
        assert hashes[0].keys() == hashes[1].keys()
        assert all(hashes[0][f] != hashes[1][f] for f in hashes[0])
    names = []
    for seed in ("1", "2"):
        result, _ = bench_result(
            "--workload", "roundtrip-wide", "--seed", seed, "--seconds", "0", "--trace", "0",
            "--frames", TINY,
        )
        names.append(list(result["metrics"]))
    assert names[0] == names[1]


def test_same_seed_gives_same_inputs(workdir):
    a, b = workdir / "a", workdir / "b"
    a.mkdir(), b.mkdir()
    workloads.make_inputs("roundtrip-projected", a, 9, 24)
    workloads.make_inputs("roundtrip-projected", b, 9, 24)
    assert workloads.input_hashes(a) == workloads.input_hashes(b)


def test_planted_byte_in_decoded_file_fails_the_op(workdir, monkeypatch):
    wl = workloads.make_inputs("roundtrip-wide", workdir, 5, 16)
    launcher = run.Launcher()
    try:
        runner = run.Runner(wl, workdir, golden=None, launcher=launcher)
        assert runner.child_op() is not None and runner.failed == 0

        real_run = launcher.run

        def planting_run(cmd, work, stem):
            reply = real_run(cmd, work, stem)
            if stem == "decode":
                path = work / "decoded.jsonl"
                data = bytearray(path.read_bytes())
                i = next(i for i in range(len(data) - 1, 0, -1) if chr(data[i]).isdigit())
                data[i] = ord("1") if data[i] != ord("1") else ord("2")
                path.write_bytes(bytes(data))
            return reply

        monkeypatch.setattr(launcher, "run", planting_run)
        assert runner.child_op() is None
    finally:
        launcher.close()
    assert runner.failed == 1 and runner.attempted == 2
    assert "decoded frames != --recon-out" in runner.problems[0]


def test_check_rejects_stdout_that_is_not_json(workdir):
    wl = workloads.make_inputs("ablate-holdout", workdir, 5, 24)
    with pytest.raises(workloads.CheckFailed, match="not valid JSON"):
        workloads.check_op(wl, workdir, {"ablate": b"{not json"})


def test_golden_mismatch_fails_the_op(workdir):
    wl = workloads.make_inputs("generate-bigram", workdir, 5, 24)
    launcher = run.Launcher()
    try:
        runner = run.Runner(wl, workdir, golden={"gen.grfq": "0" * 64}, launcher=launcher)
        assert runner.child_op() is None
    finally:
        launcher.close()
    assert "golden hash mismatch" in runner.problems[0]


def test_self_time_excludes_children_and_keeps_unwrapped_work():
    t = tracing.Tracer()
    # parent 0..10 with children 1..3 and 5..9: self time 4; child 5..9 has
    # a grandchild 6..7, so its self time is 3
    t.spans = [
        ("cli.encode", 0.0, 10.0, -1, 1),
        ("quantizer.quantize_sequence", 1.0, 3.0, 0, 1),
        ("bitstream.write_stream", 5.0, 9.0, 0, 1),
        ("bitstream.frame_pack", 6.0, 7.0, 2, 1),
    ]
    assert t.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_tracer_restores_every_patched_name():
    import grfsq.bitstream
    import grfsq.generation

    before = (grfsq.bitstream.frame_pack, grfsq.generation.BigramPredictor.__dict__["fit"])
    with tracing.Tracer().installed():
        assert grfsq.bitstream.frame_pack is not before[0]
    assert (grfsq.bitstream.frame_pack, grfsq.generation.BigramPredictor.__dict__["fit"]) == before


def test_fails_without_the_program_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "roundtrip-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=workdir, script=workdir / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_default_seed_matches_golden_hashes(workload):
    result, info = bench_result("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    assert info["golden"] == "checked"
    assert result["correct"] and result["failed"] == 0

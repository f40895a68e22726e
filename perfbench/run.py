"""Benchmark for the grfsq codec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` each op runs the workload's ``grfsq`` commands in child
processes, one at a time (one closed-loop client), and the last stdout line
carries the end-to-end metrics. With ``--trace 1`` the same ops run
in-process through ``grfsq.cli.main``, alternating untraced and traced ops,
and the last line carries the per-layer metrics. Every op's outputs are
checked; a failed check counts the op as failed. Workloads and the layer to
end-to-end mapping are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
GRFSQ = [sys.executable, "-m", "grfsq"]
SETUP_PROBES = 5  # start-up probes before the first op; one more after each op
REF_NOMINAL_S = 0.3  # see measure_children
CHILD_TIMEOUT_S = 150.0


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _timing(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


class Launcher:
    """Client of perfbench/launcher.py, which starts each child command (see
    there for why it is a separate process)."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env.pop("GRFQ_SEED", None)  # the program sees only the generated files
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], work: Path, stem: str) -> tuple[int, float, float]:
        """Run ``cmd`` in ``work``; returns (exit code, wall s, peak RSS MB).
        stdout and stderr go to ``<stem>.stdout`` / ``<stem>.stderr`` in ``work``."""
        request = {
            "cmd": cmd, "cwd": str(work), "env": self.env, "timeout": CHILD_TIMEOUT_S,
            "stdout": str(work / f"{stem}.stdout"), "stderr": str(work / f"{stem}.stderr"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs ops of one workload and checks their outputs."""

    def __init__(self, wl, work: Path, golden: dict | None, launcher: Launcher | None = None):
        self.wl, self.work, self.golden, self.launcher = wl, work, golden, launcher
        self.attempted = self.failed = 0
        self.first_hashes: dict[str, str] | None = None
        self.checked: dict[tuple, dict] = {}  # output hashes -> quality figures
        self.quality: dict[str, float] = {}  # loss and bits_per_frame of the last good op
        self.problems: list[str] = []
        self.last_stdout_bytes = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
        print(f"op failed: {message}", file=sys.stderr)

    def probe(self) -> float | None:
        """CLI start-up probe: interpreter, ``import grfsq``, argparse."""
        self.attempted += 1
        code, wall, _ = self.launcher.run(GRFSQ + ["--help"], self.work, "probe")
        if code != 0 or b"usage: grfsq" not in (self.work / "probe.stdout").read_bytes():
            self._fail(f"start-up probe exited {code}")
            return None
        return wall

    def reference(self) -> float:
        """Wall time of the fixed reference work (see reference.py). Not an op."""
        code, wall, _ = self.launcher.run([sys.executable, str(HERE / "reference.py")], self.work, "ref")
        if code != 0:
            raise RuntimeError(f"reference work exited {code}")
        return wall

    def _clear_outputs(self) -> None:
        for name in self.wl.outputs:
            (self.work / name).unlink(missing_ok=True)

    def child_op(self) -> dict | None:
        """One op in child processes; returns per-command wall/RSS or None on failure."""
        self.attempted += 1
        self._clear_outputs()
        walls, rss, stdouts = {}, 0.0, {}
        for label, argv in self.wl.commands:
            code, walls[label], peak = self.launcher.run(GRFSQ + argv, self.work, label)
            rss = max(rss, peak)
            if code != 0:
                self._fail(f"{label} exited {code}")
                return None
            stdouts[label] = (self.work / f"{label}.stdout").read_bytes()
        if not self.verify(stdouts):
            return None
        return {"walls": walls, "rss": rss}

    def inprocess_op(self, tracer=None) -> float | None:
        """One op through ``grfsq.cli.main`` in this process; returns wall s."""
        from grfsq import cli

        self.attempted += 1
        self._clear_outputs()
        stdouts = {}
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            start = time.perf_counter()
            for label, argv in self.wl.commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        with tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext():
                            code = cli.main(list(argv))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a traceback is a failed op, not a failed run
                        code = repr(exc)
                if code != 0:
                    self._fail(f"{label} returned {code}")
                    return None
                stdouts[label] = buf.getvalue().encode()
            wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        self.last_stdout_bytes = sum(len(v) for v in stdouts.values())
        return wall if self.verify(stdouts) else None

    def verify(self, stdouts: dict[str, bytes]) -> bool:
        """Self-consistency checks, determinism within the run, and golden
        hashes when the default seed and size are in use. A failure counts
        the op as failed."""
        from workloads import check_op, sha256_file

        missing = [n for n in self.wl.outputs if not (self.work / n).is_file()]
        if missing:
            self._fail(f"missing outputs {missing}")
            return False
        hashes = {name: sha256_file(self.work / name) for name in self.wl.outputs}
        for label, data in stdouts.items():
            hashes[f"{label}.stdout"] = hashlib.sha256(data).hexdigest()
        key = tuple(sorted(hashes.items()))
        try:
            if key not in self.checked:
                self.checked[key] = check_op(self.wl, self.work, stdouts)
        except Exception as exc:  # malformed output may break any check
            self._fail(f"check failed: {exc}")
            return False
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            self._fail("outputs differ between ops of one run")
            return False
        if self.golden is not None:
            bad = sorted(k for k, v in hashes.items() if self.golden.get(k) != v)
            if bad:
                self._fail(f"golden hash mismatch: {bad}")
                return False
        self.quality = self.checked[key]
        return True


def _load_golden(name: str, seed: int, frames: int, inputs: dict[str, str]) -> tuple[dict | None, str]:
    if seed != GOLDEN_SEED:
        return None, "not applicable"
    entry = json.loads(GOLDEN.read_text()).get(name)
    if entry is None or entry["frames"] != frames:
        return None, "not applicable"
    if entry["inputs"] != inputs:
        return {}, "mismatch: generated inputs differ"  # every output then mismatches
    return entry["outputs"], "checked"


def measure_children(runner: Runner, seconds: float, metrics_out: dict, info: dict) -> None:
    ops, probes, refs = [], [], []

    def gauge():
        probes.append(runner.probe())
        refs.append(runner.reference())

    for _ in range(SETUP_PROBES):
        gauge()
    start = time.perf_counter()
    while True:
        ops.append(runner.child_op())
        gauge()
        if time.perf_counter() - start >= seconds:
            break
    ops = [op for op in ops if op is not None]
    probes = [wall for wall in probes if wall is not None]
    op_walls = [sum(op["walls"].values()) for op in ops]
    info["timings_s"] = {
        "op": _timing(op_walls), "setup_probe": _timing(probes), "reference": _timing(refs),
    }
    for label, _ in runner.wl.commands:
        info["timings_s"][label] = _timing([op["walls"][label] for op in ops])
    info["peak_rss_mb"] = _timing([op["rss"] for op in ops])
    if not (ops and probes):
        return
    info["unscaled"] = {
        "fps": runner.wl.frames / statistics.median(op_walls), "setup_s": statistics.median(probes),
    }
    # Timed metrics are scaled to a machine on which the reference work takes
    # REF_NOMINAL_S: its median over the run tracks the machine's speed, which
    # swings by tens of percent between runs, and no program change moves it.
    slowdown = statistics.median(refs) / REF_NOMINAL_S
    metrics_out.update({
        "fps": info["unscaled"]["fps"] * slowdown,
        "peak_rss_mb": statistics.median(op["rss"] for op in ops),
        "setup_s": info["unscaled"]["setup_s"] / slowdown,
        **runner.quality,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    })


def measure_traced(runner: Runner, seconds: float, metrics_out: dict, info: dict) -> list:
    """Alternate untraced and traced in-process ops; returns the spans."""
    import grfsq.cli  # noqa: F401  (import cost stays out of the first op)
    from tracing import Tracer, per_op_metrics

    tracer = Tracer()
    plain, traced, traced_ops = [], [], []
    start = time.perf_counter()
    while True:
        wall = runner.inprocess_op()
        if wall is not None:
            plain.append(wall)
        tracer.op += 1
        with tracer.installed():
            wall = runner.inprocess_op(tracer)
        if wall is not None:
            traced.append(wall)
            traced_ops.append(tracer.op)
        if time.perf_counter() - start >= seconds:
            break
    info["timings_s"] = {"untraced_op": _timing(plain), "traced_op": _timing(traced)}
    if not (traced_ops and plain):
        return tracer.spans
    metrics_out.update(per_op_metrics(tracer, traced_ops))
    base = statistics.median(plain)
    metrics_out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - base) / base
    sizes = {p.name: p.stat().st_size for p in runner.work.iterdir() if p.is_file()}
    args = {a for _, argv in runner.wl.commands for a in argv}
    metrics_out["cli.bytes_in"] = float(sum(sizes[n] for n in info["input_sha256"] if n in args))
    metrics_out["cli.bytes_out"] = float(
        sum(sizes[n] for n in runner.wl.outputs) + runner.last_stdout_bytes
    )
    return tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, help="override the workload size (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "grfsq" / "cli.py").is_file():
        print(f"error: no grfsq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    if args.workload not in workloads.DEFAULT_FRAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    frames = args.frames or workloads.DEFAULT_FRAMES[args.workload]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "frames": frames,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": _git_sha(), "loadavg_start": _loadavg(),
        "wait_ms": "not measured: the program is single-threaded and synchronous, nothing queues",
    }
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    metrics: dict[str, float] = {}
    try:
        t0 = time.perf_counter()
        wl = workloads.make_inputs(args.workload, work, args.seed, frames)
        info["corpus_s"] = time.perf_counter() - t0
        info["input_sha256"] = workloads.input_hashes(work)
        golden, info["golden"] = _load_golden(args.workload, args.seed, frames, info["input_sha256"])
        if args.trace:
            runner = Runner(wl, work, golden)
            spans = measure_traced(runner, args.seconds, metrics, info)
        else:
            launcher = Launcher()
            try:
                runner = Runner(wl, work, golden, launcher)
                measure_children(runner, args.seconds, metrics, info)
            finally:
                launcher.close()
        info["output_sha256"] = runner.first_hashes
        info["problems"] = runner.problems
        info["loadavg_end"] = _loadavg()
        if args.trace:
            TRACE_ROOT.mkdir(exist_ok=True)
            path = TRACE_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            info["trace_file"] = str(path.relative_to(ROOT))
            path.write_text(json.dumps({"info": info, "metrics": metrics, "spans": spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

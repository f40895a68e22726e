"""Each CLI outcome as a real process.

`python -m grfsq` ends through `cli.run`, which flushes stdout and stderr and
then leaves with `os._exit`, skipping interpreter teardown. Every other CLI
test calls `main(argv)` in-process, so these check that a process prints,
writes and exits exactly as `main(argv)` does, that output it cannot
write ends in the I/O exit code, and that a process with no stderr still
exits with each outcome's code.
"""

import contextlib
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grfsq
from grfsq.cli import main
from grfsq.errors import GrfsqError

SRC = Path(grfsq.__file__).resolve().parents[1]
COLUMNS = "80"  # argparse wraps --help to the terminal width

# name: (exit code, argv), run from a directory holding the `inputs` files
OUTCOMES = {
    "encode": (0, ["encode", "frames.jsonl", "out.grfq", "--recon-out", "recon.jsonl"]),
    "decode": (0, ["decode", "s.grfq", "decoded.jsonl"]),
    "ablate": (0, ["ablate", "frames.jsonl", "--schemes", "vq,grfsq", "--vq-k", "4"]),
    "schedule-sim": (
        0, ["schedule-sim", "--speech", "speech.txt", "--controls", "controls.jsonl",
            "--out", "gen.grfq", "--predictor", "bigram", "--train-motion", "s.grfq",
            "--train-speech", "train-speech.txt"],
    ),
    "bad-input": (2, ["encode", "ragged.jsonl", "out.grfq"]),
    "bad-config": (3, ["encode", "frames.jsonl", "out.grfq", "--groups", "5"]),
    "ablate-bad-config": (3, ["ablate", "frames.jsonl", "--schemes", "nope"]),
    "missing-file": (4, ["decode", "missing.grfq", "decoded.jsonl"]),
    "usage-error": (2, ["encode", "frames.jsonl"]),
    "help": (0, ["--help"]),
    # 5000 codebooks: the utilization list alone is past a 64 KiB pipe buffer
    "stdout-past-64KiB": (
        0, ["encode", "wide.jsonl", "wide.grfq", "--groups", "250", "--residuals", "20",
            "--levels", "3"],
    ),
}


def process_env(unbuffered: bool = False) -> dict:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS=COLUMNS)
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as when redirected by default
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_process(cwd, argv, unbuffered=False, **streams) -> subprocess.CompletedProcess:
    streams = streams or {"capture_output": True}
    return subprocess.run(
        [sys.executable, "-m", "grfsq", *argv], cwd=cwd, env=process_env(unbuffered),
        timeout=120, **streams,
    )


def run_in_process(cwd, argv, monkeypatch, no_stderr=False):
    """(exit code, stdout bytes, stderr bytes) of `main(argv)` run from cwd;
    with no_stderr, run with `sys.stderr` None, as in a process whose fd 2
    is closed, and give b"" for stderr."""
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    out, err = io.StringIO(), None if no_stderr else io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), b"" if no_stderr else err.getvalue().encode()


def tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(81)
    for name, shape in (("frames.jsonl", (8, 48)), ("wide.jsonl", (6, 250))):
        rows = rng.uniform(-2, 2, size=shape).tolist()
        (root / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
    (root / "ragged.jsonl").write_text("[0.5, 0.25]\n[0.5]\n")
    (root / "speech.txt").write_text("3\n1\n4\n1\n5\n")
    (root / "train-speech.txt").write_text("".join(f"{t % 3}\n" for t in range(8)))
    record = json.dumps({"h": [0.5, 0.0, -0.5], "g": [0.25, 0.0], "b": [0.0, 1.0]})
    (root / "controls.jsonl").write_text(f"{record}\n" * 5)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["encode", str(root / "frames.jsonl"), str(root / "s.grfq")]) == 0
    return root


@pytest.mark.parametrize("name", OUTCOMES)
def test_process_matches_main(inputs, tmp_path, monkeypatch, name):
    code, argv = OUTCOMES[name]
    here, there = tmp_path / "in-process", tmp_path / "process"
    shutil.copytree(inputs, here)
    shutil.copytree(inputs, there)

    expected = run_in_process(here, argv, monkeypatch)
    proc = run_process(there, argv)
    assert expected[0] == code, expected[2]
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert tree(there) == tree(here)
    if name == "stdout-past-64KiB":
        assert len(proc.stdout) > 64 * 1024


@pytest.mark.parametrize(
    "name", ["usage-error", "bad-input", "bad-config", "ablate-bad-config", "missing-file"]
)
def test_no_stderr(inputs, tmp_path, monkeypatch, name):
    """With fd 2 closed, `sys.stderr` is None: the process writes nothing to
    stdout and still exits with the outcome's code, as `main(argv)` does
    in-process with `sys.stderr` None."""
    code, argv = OUTCOMES[name]
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    proc = run_process(
        tmp_path, argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2)
    )
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert run_in_process(tmp_path, argv, monkeypatch, no_stderr=True) == (code, b"", b"")


def test_each_error_class_declares_the_exit_code_readme_gives_it():
    """Every `GrfsqError` subclass reaches `main`'s one handler with its own
    exit code, so a new class cannot end the CLI in a traceback."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    documented = {}
    for kind, code in (("Data", 2), ("Configuration", 3)):
        sentence = re.search(rf"{kind} errors \(exit `{code}`\): ([^.]*)\.", readme).group(1)
        documented.update((name, code) for name in re.findall(r"`(\w+)`", sentence))
    classes, found = [GrfsqError], {}
    while classes:
        for cls in classes.pop().__subclasses__():
            classes.append(cls)
            found[cls.__name__] = cls.exit_code
    assert found == documented


NO_SPACE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """A stream the process cannot write ends in exit 4, not Python's 120.
    Block-buffered, the write that fails is `run`'s flush."""

    unbuffered = False

    @pytest.mark.parametrize("argv", [["decode", "s.grfq", "decoded.jsonl"], ["--help"]])
    def test_stdout(self, inputs, tmp_path, argv):
        shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
        with open("/dev/full", "wb") as full:
            proc = run_process(
                tmp_path, argv, self.unbuffered, stdout=full, stderr=subprocess.PIPE
            )
        assert proc.returncode == 4
        assert proc.stderr == NO_SPACE  # no "Exception ignored", no traceback

    def test_stderr(self, inputs):
        self.check_stderr(inputs, ["decode", "missing.grfq", "decoded.jsonl"])

    def test_usage_error(self, inputs):
        self.check_stderr(inputs, ["encode", "frames.jsonl"])

    def check_stderr(self, inputs, argv):
        with open("/dev/full", "wb") as full:
            proc = run_process(
                inputs, argv, self.unbuffered, stdout=subprocess.PIPE, stderr=full
            )
        assert proc.returncode == 4
        assert proc.stdout == b""


class TestFailedUnbufferedWrite(TestFailedWrite):
    """The same outcomes with `PYTHONUNBUFFERED=1`, where each write fails
    at once: argparse's help and usage writes too, which argparse itself
    would drop."""

    unbuffered = True

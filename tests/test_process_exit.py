"""Each CLI outcome as a real process.

`python -m grfsq` ends through `cli.run`, which flushes stdout and stderr and
then leaves with `os._exit`, skipping interpreter teardown. Every other CLI
test calls `main(argv)` in-process, so these check that a process prints,
writes and exits exactly as `main(argv)` does, and that output it cannot
write ends in the I/O exit code.
"""

import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grfsq
from grfsq.cli import main

SRC = Path(grfsq.__file__).resolve().parents[1]
COLUMNS = "80"  # argparse wraps --help to the terminal width

# name: (exit code, argv), run from a directory holding the `inputs` files
OUTCOMES = {
    "encode": (0, ["encode", "frames.jsonl", "out.grfq", "--recon-out", "recon.jsonl"]),
    "decode": (0, ["decode", "s.grfq", "decoded.jsonl"]),
    "bad-input": (2, ["encode", "ragged.jsonl", "out.grfq"]),
    "bad-config": (3, ["encode", "frames.jsonl", "out.grfq", "--groups", "5"]),
    "missing-file": (4, ["decode", "missing.grfq", "decoded.jsonl"]),
    "usage-error": (2, ["encode", "frames.jsonl"]),
    "help": (0, ["--help"]),
    # 5000 codebooks: the utilization list alone is past a 64 KiB pipe buffer
    "stdout-past-64KiB": (
        0, ["encode", "wide.jsonl", "wide.grfq", "--groups", "250", "--residuals", "20",
            "--levels", "3"],
    ),
}


def process_env() -> dict:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS=COLUMNS)
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as when redirected by default
    return env


def run_process(cwd, argv, **streams) -> subprocess.CompletedProcess:
    streams = streams or {"capture_output": True}
    return subprocess.run(
        [sys.executable, "-m", "grfsq", *argv], cwd=cwd, env=process_env(), timeout=120,
        **streams,
    )


def run_in_process(cwd, argv, monkeypatch):
    """(exit code, stdout bytes, stderr bytes) of `main(argv)` run from cwd."""
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


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


NO_SPACE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n".encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """A stream the process cannot write ends in exit 4, not Python's 120."""

    @pytest.mark.parametrize("argv", [["decode", "s.grfq", "decoded.jsonl"], ["--help"]])
    def test_stdout(self, inputs, tmp_path, argv):
        shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
        with open("/dev/full", "wb") as full:
            proc = run_process(tmp_path, argv, stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 4
        assert proc.stderr == NO_SPACE  # no "Exception ignored", no traceback

    def test_stderr(self, inputs):
        with open("/dev/full", "wb") as full:
            proc = run_process(
                inputs, ["decode", "missing.grfq", "decoded.jsonl"],
                stdout=subprocess.PIPE, stderr=full,
            )
        assert proc.returncode == 4
        assert proc.stdout == b""

"""What `import grfsq` and each CLI command load.

The package resolves its public names on first access, and the CLI imports
`baselines`, `generation` and `csv` only inside the commands that run them,
so a process compiles no module its command does not use. The k-means
baselines draw from the in-package `_pcg64`, so no command loads numpy.random
(nor the `secrets`, `hashlib` and OpenSSL modules it pulls in). Import sets
are read in a fresh interpreter, since this test process has loaded
everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grfsq

# The names `grfsq/__init__.py` imported eagerly before it became lazy.
EAGER_NAMES = {
    "baselines": (
        "BaselineConfig", "Codebook", "baseline_bitrate", "baseline_encode",
        "baseline_utilization", "codebook_from_bytes", "codebook_to_bytes",
        "fit_codebooks", "kmeans_fit",
    ),
    "bitstream": (
        "MODE_FIXED_WIDTH", "MODE_MIXED_RADIX", "StreamHeader", "frame_bits",
        "frame_block_bytes", "frame_pack", "frame_unpack", "read_stream", "write_stream",
    ),
    "errors": (
        "ConfigMismatch", "CorruptStream", "DegenerateCalibration", "GrfsqError",
        "InvalidCode", "InvalidConfig", "InvalidIndex", "InvalidInput",
        "PredictorContractViolation", "TooLarge",
    ),
    "fsq": (
        "ENUMERATION_CAP", "LevelSpec", "bound", "codes_to_index", "enumerate_codebook",
        "fsq_dequantize", "fsq_quantize", "index_to_codes", "ste_gradient",
    ),
    "generation": (
        "BigramPredictor", "ControlTrack", "EchoPredictor", "GenerationContext",
        "Schedule", "SpeechTokenSeq", "UniformPredictor", "argmax_sample",
        "assemble_context", "build_schedule", "generate", "load_controls",
        "load_speech_tokens", "nll",
    ),
    "quantizer": (
        "DEFAULT_FPS", "DEFAULT_GROUPS", "DEFAULT_LEVELS", "DEFAULT_RESIDUALS",
        "GrfsqConfig", "ReconstructionReport", "UtilizationReport", "bitrate",
        "calibrate_projections", "float_stream_bitrate", "grfsq_dequantize",
        "grfsq_quantize", "quantize_sequence", "utilization",
    ),
}
EAGER_PAIRS = [(module, name) for module, names in EAGER_NAMES.items() for name in names]
# loaded by the first numpy.random Generator; no command needs them
RANDOM_MODULES = {"numpy.random", "secrets", "_hashlib"}

# Each probe runs in a fresh interpreter as `python -c PROBE OUT ARGS...` and
# writes every loaded module's name and the OPENBLAS_NUM_THREADS it ends with
# to OUT. This one imports the package.
IMPORT_PROBE = """
import json, os, sys
import grfsq
with open(sys.argv[1], "w") as fh:
    json.dump({"code": 0, "modules": sorted(sys.modules),
               "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}, fh)
"""
# This one runs the CLI with ARGS... through ENTRY, `-m` for `python -m grfsq`
# or a `[project.scripts]` target, as `python -c CLI_PROBE OUT ENTRY ARGS...`.
# It also records the exit code and, for each write of OPENBLAS_NUM_THREADS
# (every write to os.environ goes through os.putenv), whether numpy was loaded
# by then. The CLI ends its process with `os._exit`, so the probe writes its
# record from a wrapper around it, then exits through the real one.
CLI_PROBE = """
import importlib, json, os, runpy, sys
out, entry, sys.argv = sys.argv[1], sys.argv[2], ["grfsq"] + sys.argv[3:]
real_exit, real_putenv = os._exit, os.putenv
blas_writes = []

def record_and_exit(code):
    with open(out, "w") as fh:
        json.dump({"code": code, "modules": sorted(sys.modules), "blas_writes": blas_writes,
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}, fh)
    real_exit(code)

def watched_putenv(key, value):  # os.environ passes both encoded
    if os.fsdecode(key) == "OPENBLAS_NUM_THREADS":
        blas_writes.append({"value": os.fsdecode(value), "numpy_loaded": "numpy" in sys.modules})
    real_putenv(key, value)

os._exit, os.putenv = record_and_exit, watched_putenv
if entry == "-m":
    runpy.run_module("grfsq", run_name="__main__", alter_sys=True)
else:
    module, name = entry.split(":")
    getattr(importlib.import_module(module), name)()
"""
SRC = Path(grfsq.__file__).resolve().parents[1]
# every scheme on the `inputs` frames, with codebooks small enough for them
ABLATE = (
    "ablate", "frames.jsonl", "--schemes", "vq,gvq,rvq,grvq,grfsq",
    "--vq-k", "2", "--gvq-groups", "2", "--gvq-k", "2", "--rvq-residuals", "2",
    "--rvq-k", "2", "--grvq-groups", "2", "--grvq-residuals", "2", "--grvq-k", "2",
    "--kmeans-iters", "1",
)


def probe(tmp_path, code, *argv, blas_threads=None) -> dict:
    """The record of a fresh interpreter running `code` with ARGV, once it
    has finished with exit code 0. OPENBLAS_NUM_THREADS is `blas_threads`,
    or unset when that is None."""
    out = tmp_path / "record.json"
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    subprocess.run(
        [sys.executable, "-c", code, str(out), *argv],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    record = json.loads(out.read_text())
    assert record["code"] == 0, argv
    return record


def loaded_modules(tmp_path, code, *argv) -> set[str]:
    """The modules a fresh interpreter running `code` with ARGV has loaded."""
    return set(probe(tmp_path, code, *argv)["modules"])


@pytest.fixture
def inputs(tmp_path):
    """Small frames, speech tokens and control records for every command."""
    frames = np.random.default_rng(5).uniform(-2, 2, size=(8, 48))
    (tmp_path / "frames.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in frames.tolist())
    )
    (tmp_path / "speech.txt").write_text("1\n2\n3\n")
    (tmp_path / "controls.jsonl").write_text(
        '{"h": [0, 0, 0], "g": [0, 0], "b": [0, 0]}\n' * 3
    )
    return tmp_path


class TestImportSets:
    def test_import_grfsq_loads_no_submodule(self, tmp_path):
        record = probe(tmp_path, IMPORT_PROBE)
        assert record["blas_threads"] is None  # importing sets no BLAS policy
        modules = set(record["modules"])
        assert "grfsq" in modules
        assert [m for m in modules if m.startswith("grfsq.")] == []
        assert not modules & RANDOM_MODULES

    def test_help_encode_and_decode_load_neither_harness(self, inputs):
        for argv in (
            ["--help"],
            ["encode", "frames.jsonl", "s.grfq", "--recon-out", "recon.jsonl"],
            ["decode", "s.grfq", "decoded.jsonl"],
        ):
            modules = loaded_modules(inputs, CLI_PROBE, "-m", *argv)
            assert "grfsq.cli" in modules and "grfsq._text" in modules, argv
            assert not modules & {"grfsq.generation", "grfsq.baselines", "csv"}, argv
            assert not modules & ({"grfsq._pcg64"} | RANDOM_MODULES), argv

    def test_schedule_sim_loads_no_baselines(self, inputs):
        modules = loaded_modules(
            inputs, CLI_PROBE, "-m", "schedule-sim", "--speech", "speech.txt",
            "--controls", "controls.jsonl", "--out", "sim.grfq",
        )
        assert "grfsq.generation" in modules
        assert not modules & ({"grfsq.baselines", "grfsq._pcg64"} | RANDOM_MODULES)

    def test_ablate_loads_no_generation(self, inputs):
        modules = loaded_modules(inputs, CLI_PROBE, "-m", *ABLATE, "--save-codebooks", "books")
        assert {"grfsq.baselines", "grfsq._pcg64"} <= modules
        assert not modules & ({"grfsq.generation"} | RANDOM_MODULES)


class TestEntryPoints:
    def test_every_entry_point_goes_through_run(self):
        tomllib = pytest.importorskip("tomllib")
        from grfsq import cli

        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"] == {"grfsq": "grfsq.__main__:main"}
        package = SRC / "grfsq"
        body = ast.parse((package / "__main__.py").read_text()).body
        # `python -m grfsq` runs the script's main(), which sets the BLAS
        # policy and then hands over to cli.run
        guards = [node for node in body if isinstance(node, ast.If)]
        assert [ast.unparse(guard) for guard in guards] == [
            "if __name__ == '__main__':\n    main()"
        ]
        main = next(node for node in body if isinstance(node, ast.FunctionDef))
        assert [ast.unparse(node) for node in main.body[1:]] == [  # after the docstring
            "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')",
            "from .cli import run",
            "run()",
        ]
        # cli.py is no entry point of its own: it imports numpy before any policy
        assert not [
            node for node in ast.parse((package / "cli.py").read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert callable(cli.run)

    @pytest.mark.parametrize("entry", ["-m", "grfsq.__main__:main"])
    def test_the_process_holds_blas_to_one_thread_before_numpy_loads(self, inputs, entry):
        record = probe(inputs, CLI_PROBE, entry, *ABLATE)
        assert record["blas_threads"] == "1"
        assert record["blas_writes"] == [{"value": "1", "numpy_loaded": False}]

    @pytest.mark.parametrize("entry", ["-m", "grfsq.__main__:main"])
    def test_a_thread_count_the_caller_set_wins(self, inputs, entry):
        record = probe(inputs, CLI_PROBE, entry, *ABLATE, blas_threads="2")
        assert record["blas_threads"] == "2"
        assert record["blas_writes"] == []


class TestLazyPackage:
    @pytest.mark.parametrize("module, name", EAGER_PAIRS)
    def test_public_name_is_its_modules_object(self, module, name):
        namespace = {}
        exec(f"from grfsq import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"grfsq.{module}"), name)
        assert getattr(grfsq, name) is namespace[name] is grfsq.__getattr__(name)
        assert name in grfsq.__all__
        assert name in dir(grfsq)

    def test_all_names_exactly_the_public_api(self):
        assert sorted(grfsq.__all__) == sorted(name for _, name in EAGER_PAIRS)

    @pytest.mark.parametrize("module", sorted(EAGER_NAMES))
    def test_submodule_attribute(self, module):
        submodule = importlib.import_module(f"grfsq.{module}")
        assert getattr(grfsq, module) is submodule is grfsq.__getattr__(module)
        assert module in dir(grfsq)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            grfsq.no_such_name
        with pytest.raises(ImportError):
            exec("from grfsq import no_such_name", {})


class TestNoUnusedImports:
    """No module under `src/grfsq` imports a name it never reads; the repo has
    no linter, so this keeps a name from outliving the code that used it."""

    @staticmethod
    def bound_names(tree: ast.Module) -> set[str]:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names |= {alias.asname or alias.name for alias in node.names}
        return names

    @pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "grfsq").glob("*.py")))
    def test_every_imported_name_is_used(self, module):
        tree = ast.parse((SRC / "grfsq" / module).read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(self.bound_names(tree) - used) == []

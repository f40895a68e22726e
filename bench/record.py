"""Record alternating parent/change benchmark pairs as one BENCH_<label>.json.

    python3 bench/record.py PARENT_DIR CHANGE_DIR --label pr33 \\
        --parent-commit SHA --change-note "what the change does" \\
        --pairs roundtrip-wide=4 --pairs ablate-holdout=10

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for example
made with `git archive`) whose absolute paths have equal length. Every run
is the checkout's own, unedited `perfbench/run.py --trace 0` on seed 0,
started with the checkout as working directory. Each workload first gets one
short `golden` pair (GOLDEN_SECONDS per side), then its numbered pairs of
runs as long as BENCHMARK.json's `run_seconds`. Pairs alternate which side runs first, and their count must
be even: the first run of a back-to-back pair tends to read faster, and only
an even count cancels that in the medians. The record is written to the
repository root and rewritten after every run, so an interrupted recording
keeps the runs it made.

The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles over the numbered pairs and the number of
pairs the change won (ties count for neither side). With `--claim '{"workload":
"ablate-holdout", "metric": "fps"}'` the claimed row also gets `claim_met`,
the pair rule's verdict (see `claim_met`). `machine` records numpy's SIMD
dispatch and BLAS build, and the OPENBLAS_NUM_THREADS every run inherits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
GOLDEN_SECONDS = 3
SIDES = {"parent": "A", "change": "B"}  # side -> checkout name in the record


def schedule(pairs: dict[str, int]) -> list[tuple[str, int | str, int, str]]:
    """(workload, pair, order in pair, side) of every run, in run order: per
    workload the golden pair, then `pairs[workload]` pairs, pair i starting
    with the parent when i is even and with the change when it is odd."""
    runs = []
    for workload, count in pairs.items():
        if count < 2 or count % 2:
            raise ValueError(f"{workload}: the pair count must be even and positive, got {count}")
        for pair in ["golden", *range(count)]:
            sides = ["parent", "change"]
            if pair != "golden" and pair % 2:
                sides.reverse()
            runs += [(workload, pair, order, side) for order, side in enumerate(sides)]
    return runs


def metric(run: dict, name: str) -> float | None:
    return run["result"]["metrics"].get(name, {}).get("value")


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, by the inclusive method; one value is its own."""
    if len(values) < 2:
        return [values[0], values[0]]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return [low, high]


def golden(runs: list[dict]) -> dict:
    """Per workload, the distinct golden-check results and seed-0 stream
    hashes over every run of both sides."""
    out = {}
    for run in runs:
        seen = out.setdefault(run["workload"], {"golden": [], "out_grfq_sha256": []})
        for key in seen:
            if run[key] not in seen[key]:
                seen[key].append(run[key])
    return out


def claim_met(row: dict, direction: str) -> bool:
    """The pair rule for a claimed gain: at least 10 pairs, the change won at
    least 9 in 10 of them (ties count for neither side), and its median is
    better than the parent's by more than the parent's quartile spread."""
    low, high = row["parent_quartiles"]
    gap = row["change_median"] - row["parent_median"]
    gap = gap if direction == "higher" else -gap
    pairs = row["pairs"]
    return pairs >= 10 and 10 * row["change_better_pairs"] >= 9 * pairs and gap > high - low


def summarize(runs: list[dict], better: dict[str, str], claim: dict | None = None) -> dict:
    """Per workload and metric in `better` (name -> "higher" or "lower"):
    each side's median and inclusive quartiles over the numbered pairs, the
    pairs both sides measured, and how many of them the change won; the row
    of `claim`'s workload and metric also gets `claim_met`."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload and run["pair"] != "golden":
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        rows = {}
        for name, direction in better.items():
            both = [
                (metric(p["parent"], name), metric(p["change"], name))
                for p in pairs.values() if len(p) == 2
            ]
            both = [(a, b) for a, b in both if a is not None and b is not None]
            if not both:
                continue
            parent, change = [a for a, _ in both], [b for _, b in both]
            sign = 1 if direction == "higher" else -1
            row = {}
            for side, values in (("parent", parent), ("change", change)):
                row[f"{side}_median"] = statistics.median(values)
                row[f"{side}_quartiles"] = quartiles(values)
            row["change_better_pairs"] = sum(sign * (b - a) > 0 for a, b in both)
            row["pairs"] = len(both)
            median = row["parent_median"]
            row["change_vs_parent"] = row["change_median"] / median - 1 if median else None
            if claim and (claim.get("workload"), claim.get("metric")) == (workload, name):
                row["claim_met"] = claim_met(row, direction)
            rows[name] = row
        summary[f"{workload} seed {SEED}"] = rows
    return summary


def machine(info: dict) -> dict:
    """nproc, Python and numpy as a run's `info` gives them; numpy's SIMD
    dispatch and the BLAS numpy reports, read in this interpreter, which
    starts every run; and the OPENBLAS_NUM_THREADS each run inherits (None
    when unset)."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        **{key: info[key] for key in ("nproc", "python", "numpy")},
        "simd": config["SIMD Extensions"],  # the baseline and the dispatch targets found
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_once(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """The {"info": ...} record and the metrics line of one benchmark run."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def run_entry(workload, pair, order, side, seconds, info: dict, result: dict) -> dict:
    timings = info["timings_s"]
    return {
        "workload": workload, "seed": SEED, "seconds": seconds, "pair": pair,
        "order_in_pair": order, "side": side, "checkout": SIDES[side],
        "golden": info["golden"],
        "out_grfq_sha256": (info.get("output_sha256") or {}).get("out.grfq"),
        "op_median_s": timings["op"]["median"],
        "reference_median_s": timings["reference"]["median"],
        "timings_s": timings,  # unscaled, as the run measured them
        "unscaled": info.get("unscaled"),
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-note", default="", help="what the change does")
    parser.add_argument("--claim", type=json.loads, help="the gain claimed, as JSON")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        parser.error(f"checkout paths differ in length: {args.parent}, {args.change}")
    try:
        pairs = {w: int(n) for w, n in (item.split("=", 1) for item in args.pairs)}
        order = schedule(pairs)
    except ValueError as exc:
        parser.error(f"--pairs: {exc}")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label, "change": args.change_note, "claim": args.claim,
        "command": "python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0",
        "machine": None, "parent_commit": args.parent_commit,
        "checkouts_note": (
            f"checkouts A (parent) and B (change) at absolute paths of "
            f"{len(str(checkouts['parent']))} characters; pairs alternate which side runs "
            f"first; pair 'golden' is one {GOLDEN_SECONDS} s run per side"
        ),
        "golden": {}, "summary": {}, "runs": [],
    }
    for workload, pair, position, side in order:
        seconds = GOLDEN_SECONDS if pair == "golden" else spec["run_seconds"]
        info, result = run_once(checkouts[side], workload, seconds)
        if record["machine"] is None:
            record["machine"] = machine(info)
        record["runs"].append(run_entry(workload, pair, position, side, seconds, info, result))
        record["golden"] = golden(record["runs"])
        record["summary"] = summarize(record["runs"], better, args.claim)
        out.write_text(json.dumps(record, indent=1) + "\n")
        fps = metric(record["runs"][-1], "fps")
        print(f"{workload} pair {pair} {side}: {info['golden']}, fps {fps}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

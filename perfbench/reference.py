"""Fixed reference work that gauges the machine's speed during a run.

run.py starts it as a child process after every op, just like the program:
a fresh interpreter imports numpy, then runs a Python loop of small numpy
calls, big-integer arithmetic and JSON round trips. It never imports grfsq,
so no change to the program can move its time. The machine this benchmark
runs on changes speed by tens of percent from one minute to the next, and
this work slows down with the ops; run.py scales timed metrics by it.
"""

import json

import numpy as np


def work() -> float:
    rng = np.random.default_rng(12345)
    rows = rng.uniform(-3.0, 3.0, (600, 4))
    half = np.full(4, 2.0)
    total = 0.0
    for row in rows:
        z = np.tanh(row)
        codes = np.clip(np.round(z * half + half), 0, 4)
        total += float(((codes - half) / half - z).sum())
    value = 0
    for digit in range(10000):
        value = value * 625 + digit % 625
    total += value.bit_length()
    text = "\n".join(json.dumps([float(v) for v in r]) for r in rows)
    total += sum(len(json.loads(line)) for line in text.splitlines())
    return total


if __name__ == "__main__":
    print(work())

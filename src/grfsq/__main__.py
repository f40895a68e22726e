"""The process entry point: `python -m grfsq` and the `grfsq` script."""

import os


def main() -> None:
    """Hold OpenBLAS to one thread unless the caller set
    `OPENBLAS_NUM_THREADS`, then run the CLI through `cli.run`, which ends
    the process.

    OpenBLAS reads the variable once, when numpy loads it, so it is set
    before `cli` imports numpy. `ablate` fits two codebooks at a time on two
    threads; a BLAS worker thread that spins after each product would hold
    the second core they need."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import run

    run()


if __name__ == "__main__":
    main()

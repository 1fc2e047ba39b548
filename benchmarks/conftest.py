"""Benchmark-harness helpers: result persistence."""

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_and_print(name: str, text: str) -> None:
    """Write the regenerated table to benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")

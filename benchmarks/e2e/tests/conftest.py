"""Path set-up for the benchmark's own tests.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``; the
tier-1 collection (``testpaths = ["tests"]``) never sees this directory.
"""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def metrics_sidecar():
    """Shadows ``benchmarks/conftest.py``'s fixture of the same name, which
    would turn observability on around every test here."""
    yield

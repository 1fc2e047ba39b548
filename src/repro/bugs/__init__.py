"""Reproductions of the six ArckFS bugs (paper Table 1).

Each module exposes ``demonstrate(config) -> BugOutcome``: run the paper's
triggering scenario under the given :class:`~repro.core.config.ArckConfig`
and report whether the bug *manifested* (crash, corruption, verification
failure of a legitimate operation, or a reachable inconsistent crash state).
Under :data:`~repro.core.config.ARCKFS` every bug manifests; under
:data:`~repro.core.config.ARCKFS_PLUS` none does — that correspondence is
asserted by ``tests/integration/test_bugs_*`` and printed as Table 1 by
``python -m repro reproduce table1`` and ``examples/bughunt.py``.
"""

from repro.bugs.harness import BugOutcome, make_fs, race, run_all

__all__ = ["BugOutcome", "make_fs", "race", "run_all"]

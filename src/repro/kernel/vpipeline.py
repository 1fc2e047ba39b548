"""Sharded, pipelined deferred-verification engine (ownership transfer).

``Verifier.verify`` decomposes into **enumerate → check-pages →
check-dentries → commit**.  The enumerate step (chain walks over the core
state) and the commit step (the controller applying the
:class:`~repro.kernel.verifier.StagedUpdate` under its lock) are inherently
serial; the per-page and per-dentry checks are independent of each other,
which is where all the Table 4 bytes go — a 256 KiB shared file is 65 page
checks per transfer against a fixed cost of one record read.

:class:`PipelinedVerifier` shards those middle stages across N worker
threads by stride (round-robin, mirroring ``repro.fsck``'s shard
structure), joining before commit.  This is safe without extra locking
because the controller's re-entrant lock is held by the *orchestrating*
thread for the whole verification: no mutator can run, so the workers'
reads of the shadow table, pending set, page-owner map and allocator
bitmap see a frozen kernel state.  Each dentry shard stages into its own
partial :class:`StagedUpdate`, merged after the join, so workers never
share a mutable result either.

The per-item checks are *inherited* from the serial
:class:`~repro.kernel.verifier.Verifier` — the subclass only overrides how
the batches are scheduled.  Accept/reject behaviour is therefore identical
by construction (a property test checks it regardless); the one visible
difference is that when several shards find *different* corruptions, which
shard's ``VerifyFailure`` propagates first is scheduling-dependent.

As everywhere in this repository, wall-clock speedup on GIL-bound Python
threads is meaningless; the speedup claim is carried by (a) the calibrated
cost model (``CostModel.verify_pipeline_time``) and (b) the functional
critical-path counters below — ``total_units`` checked versus
``critical_units``, the largest shard per batch, which is what the slowest
worker executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import obs
from repro.concurrency.parallel import run_parallel, stride_shards
from repro.kernel.verifier import PageJob, StagedUpdate, Verifier


@dataclass
class PipelineStats:
    """Deterministic work accounting for the pipelined verifier."""

    verifications: int = 0
    #: individual page checks / dentry checks / absent-child checks issued.
    page_checks: int = 0
    dentry_checks: int = 0
    absent_checks: int = 0
    #: shard jobs actually dispatched to worker threads.
    shard_jobs: int = 0
    #: total checkable units vs the per-batch maximum shard size summed —
    #: ``total_units / critical_units`` is the functional speedup (the
    #: slowest shard bounds each batch, exactly the fsck convention).
    total_units: int = 0
    critical_units: int = 0

    @property
    def functional_speedup(self) -> float:
        if not self.critical_units:
            return 1.0
        return self.total_units / self.critical_units


class PipelinedVerifier(Verifier):
    """A :class:`Verifier` whose per-item check batches run on N workers.

    ``workers=1`` degenerates to the serial path (no threads are spawned)
    while still recording :class:`PipelineStats`, so a single configuration
    knob — ``ArckConfig.verify_workers`` — selects the degree.
    """

    def __init__(self, controller, workers: int = 1):
        super().__init__(controller)
        self.workers = max(1, int(workers))
        self.pstats = PipelineStats()

    # ------------------------------------------------------------------ #

    def verify(self, ino: int, app_id: Optional[str], *,
               trusted: bool = False) -> StagedUpdate:
        self.pstats.verifications += 1
        with obs.span("verify.pipeline", category="kernel", ino=ino,
                      workers=self.workers):
            staged = super().verify(ino, app_id, trusted=trusted)
            pipe = self._pipe()
            if pipe is not None:
                from repro.perf.costmodel import COST

                entries = (len(staged.created) + len(staged.reparented)
                           + len(staged.deleted) + len(staged.detached))
                commit_ns = (COST.verify_commit_fixed
                             + entries * COST.verify_commit_per_entry)
                pipe.charge_serial("commit", commit_ns)
                obs.charge(commit_ns, "commit")
            return staged

    # ------------------------------------------------------------------ #
    # Sharded batch stages
    # ------------------------------------------------------------------ #

    def _pipe(self):
        """The pipeline profile collecting this verifier's simulated-time
        stage charges (None unless profiling is on)."""
        return obs.pipeline_profile(f"verify.w{self.workers}")

    def _charge_shards(self, pipe, stage: str, shards, per_unit: float) -> None:
        """Charge each stride shard's modeled cost to its worker slot.

        Worker totals additionally carry ``op_cpu`` dispatch overhead per
        shard job, so critical-path attribution is measured against an
        honest busy time rather than trivially summing to 100 %.
        """
        from repro.perf.costmodel import COST

        crit = 0.0
        for i, shard in enumerate(shards):
            ns = len(shard) * per_unit
            pipe.charge(i, stage, ns)
            pipe.add_worker_total(i, ns + COST.op_cpu)
            crit = max(crit, ns)
        obs.charge(crit, stage)

    def _account(self, units: int, shards) -> None:
        self.pstats.total_units += units
        self.pstats.critical_units += max(len(s) for s in shards)

    def _check_pages(self, ino: int, jobs: Sequence[PageJob]) -> None:
        n = len(jobs)
        if not n:
            return
        self.pstats.page_checks += n
        obs.count("verify.pages", n)
        shards = stride_shards(jobs, self.workers)
        self._account(n, shards)
        pipe = self._pipe()
        if pipe is not None:
            from repro.perf.costmodel import COST

            enum_ns = (COST.verify_enumerate_fixed
                       + n * COST.verify_enumerate_per_page)
            pipe.charge_serial("enumerate", enum_ns)
            obs.charge(enum_ns, "enumerate")
            self._charge_shards(pipe, "check_pages", shards,
                                COST.verify_page_check)
        if len(shards) == 1:
            super()._check_pages(ino, jobs)
            return
        self.pstats.shard_jobs += len(shards)
        obs.count("verify.shards", len(shards))

        def make(shard):
            def job() -> None:
                for page_job in shard:
                    self._check_page(ino, *page_job)
            return job

        with obs.span("verify.pages", category="kernel", ino=ino, n=n):
            run_parallel([make(s) for s in shards], name="verify")

    def _check_dentries(self, ino: int, sh, app_id, entries, staged: StagedUpdate,
                        trusted: bool) -> Dict[bytes, int]:
        items = list(entries.items())
        n = len(items)
        if not n:
            return {}
        self.pstats.dentry_checks += n
        obs.count("verify.dentries", n)
        shards = stride_shards(items, self.workers)
        self._account(n, shards)
        pipe = self._pipe()
        if pipe is not None:
            from repro.perf.costmodel import COST

            self._charge_shards(pipe, "check_dentries", shards,
                                COST.verify_dentry_check)
        if len(shards) == 1:
            return super()._check_dentries(ino, sh, app_id, entries, staged, trusted)
        self.pstats.shard_jobs += len(shards)
        obs.count("verify.shards", len(shards))

        partials = [StagedUpdate(ino=ino) for _ in shards]
        includes: list = [dict() for _ in shards]

        def make(i: int, shard):
            def job() -> None:
                for name, d in shard:
                    if self._check_dentry(ino, sh, app_id, name, d,
                                          partials[i], trusted):
                        includes[i][name] = d.ino
            return job

        with obs.span("verify.dentries", category="kernel", ino=ino, n=n):
            run_parallel([make(i, s) for i, s in enumerate(shards)], name="verify")
        new_children: Dict[bytes, int] = {}
        for i, inc in enumerate(includes):
            new_children.update(inc)
            self._merge(staged, partials[i])
        return new_children

    def _check_absent_children(self, ino: int, sh, new_children: Dict[bytes, int],
                               staged: StagedUpdate, trusted: bool) -> None:
        items = list(sh.children.items())
        n = len(items)
        if not n:
            return
        self.pstats.absent_checks += n
        shards = stride_shards(items, self.workers)
        self._account(n, shards)
        pipe = self._pipe()
        if pipe is not None:
            from repro.perf.costmodel import COST

            self._charge_shards(pipe, "check_absent", shards,
                                COST.verify_dentry_check)
        if len(shards) == 1:
            super()._check_absent_children(ino, sh, new_children, staged, trusted)
            return
        self.pstats.shard_jobs += len(shards)
        obs.count("verify.shards", len(shards))

        linked = set(new_children.values())
        partials = [StagedUpdate(ino=ino) for _ in shards]

        def make(i: int, shard):
            def job() -> None:
                for name, child_ino in shard:
                    self._check_absent_child(ino, name, child_ino, new_children,
                                             linked, partials[i], trusted)
            return job

        with obs.span("verify.absent", category="kernel", ino=ino, n=n):
            run_parallel([make(i, s) for i, s in enumerate(shards)], name="verify")
        for part in partials:
            self._merge(staged, part)

    @staticmethod
    def _merge(staged: StagedUpdate, part: StagedUpdate) -> None:
        """Fold one shard's partial staging into the main StagedUpdate.

        Every child appears in exactly one shard, so concatenation cannot
        duplicate; only the (semantically irrelevant) list order differs
        from the serial walk.
        """
        staged.bytes_verified += part.bytes_verified
        staged.created.extend(part.created)
        staged.reparented.extend(part.reparented)
        staged.deleted.extend(part.deleted)
        staged.detached.extend(part.detached)
        staged.pages.update(part.pages)

"""Revocable mappings of PM into a LibFS's address space.

In Trio the kernel controller *maps* an inode's core state into the
application on acquire and *unmaps* it on release (or forcefully, on an
involuntary release).  After an unmap, a real process touching the old
addresses takes SIGBUS — which is exactly the crash the paper's §4.3 bug
produces when one thread voluntarily releases an inode while another thread
is still writing through the mapping.

:class:`Mapping` models that capability: every access checks a validity flag
and raises :class:`~repro.errors.SimulatedBusError` once unmapped.  We do not
model page-granular MMU permissions; metadata *integrity* in Trio is enforced
by the verifier, not by the MMU, and the bug only needs the revocation
semantics.
"""

from __future__ import annotations

from repro.errors import SimulatedBusError
from repro.pm.device import PMDevice


class Mapping:
    """A revocable window onto the PM device (one per acquired inode)."""

    def __init__(self, device: PMDevice, ino: int, tag: str = ""):
        self._device = device
        self.ino = ino
        self.tag = tag
        #: False once unmapped; a plain attribute, so a caller asking
        #: whether the mapping is live makes no call.
        self.valid = True

    def unmap(self) -> None:
        """Revoke the mapping; any later access raises SimulatedBusError."""
        self.valid = False

    def _check(self) -> None:
        """Raise the fault an access through a revoked mapping takes."""
        raise SimulatedBusError(
            f"access through unmapped inode {self.ino} mapping {self.tag!r}"
        )

    # Pass-through accessors (all fault once unmapped).  Each tests the flag
    # inline, so a valid access makes no call for it. --------------------- #

    def load(self, addr: int, size: int) -> bytes:
        if not self.valid:
            self._check()
        return self._device.load(addr, size)

    def store(self, addr: int, data: bytes) -> None:
        if not self.valid:
            self._check()
        self._device.store(addr, data)

    def atomic_store(self, addr: int, data: bytes) -> None:
        if not self.valid:
            self._check()
        self._device.atomic_store(addr, data)

    def ntstore(self, addr: int, data: bytes) -> None:
        if not self.valid:
            self._check()
        self._device.ntstore(addr, data)

    def clwb(self, addr: int, size: int = 1) -> None:
        if not self.valid:
            self._check()
        self._device.clwb(addr, size)

    def sfence(self) -> None:
        if not self.valid:
            self._check()
        self._device.sfence()

    def persist(self, addr: int, size: int) -> None:
        if not self.valid:
            self._check()
        self._device.persist(addr, size)

    def ntstore_scatter(self, ops) -> None:
        if not self.valid:
            self._check()
        self._device.ntstore_scatter(ops)

    def load_gather(self, ops) -> bytes:
        if not self.valid:
            self._check()
        return self._device.load_gather(ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "valid" if self.valid else "UNMAPPED"
        return f"<Mapping ino={self.ino} {state}>"

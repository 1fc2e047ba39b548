"""Multi-file transactions over LibFS (redo-logged, crash-atomic).

Public surface::

    with volume.session("app") as s:
        with s.transaction() as tx:          # the sanctioned entry point
            tx.mkdir("/batch")
            tx.create("/batch/a")
            tx.pwrite("/batch/a", b"payload", 0)
            tx.rename("/old", "/batch/b")
        # exit commits; an exception aborts

Direct construction of :class:`TxManager` outside the ``repro.api``
facade is banned by ruff TID251 (mirroring the ``KernelController`` ban);
``repro.tx.log`` stays importable everywhere — fsck and the kernel parse
logs without the manager.
"""

from repro.tx.log import TxLog, TxRecord  # noqa: F401
from repro.tx.manager import Tx, TxManager  # noqa: F401

"""``repro.server`` — the multi-tenant async volume server.

The long-running service front-end over the :mod:`repro.api`
Volume/Session facade: one process mounts many volumes and serves
thousands of concurrent app sessions over length-prefixed JSON-RPC frames
(file contents raw) on asyncio, with per-tenant admission control — a
session cap and a per-read bound, refusals explicit (typed, retryable) —
lease-based idle eviction and graceful drain/quiesce.  An op runs in the
socket read that brought it; a connection is answered in request order.

Modules:

* :mod:`.protocol` — the frame format, typed error bodies;
* :mod:`.admission` — per-tenant policies: session cap, per-read bound;
* :mod:`.sessions` — the session table: tokens, idle leases, eviction;
* :mod:`.dispatch` — the wire method table onto the Session surface;
* :mod:`.server` — connections, router, drain (the coordinator);
* :mod:`.client` — asyncio client with typed errors and retry/backoff;
* :mod:`.loadgen` — the closed-loop mixed-workload load generator.

Quick taste (see ``repro serve`` / ``repro loadgen`` for the CLI)::

    import asyncio
    from repro.server import (LoadConfig, ServerConfig, VolumeServer,
                              make_volumes, run_load)

    async def main():
        volumes = make_volumes(["acme", "initech"])
        async with VolumeServer(volumes, ServerConfig()) as srv:
            report = await run_load("127.0.0.1", srv.port, LoadConfig(
                tenants=list(volumes), clients_per_tenant=100))
            print(report.render())
            await srv.drain()          # every volume now fsck-clean
        for vol in volumes.values():
            vol.close()

    asyncio.run(main())
"""

from repro.server.admission import (  # noqa: F401  (re-exported API)
    AdmissionController,
    TenantPolicy,
    TenantState,
)
from repro.server.client import ServerClient, SessionHandle  # noqa: F401
from repro.server.loadgen import (  # noqa: F401
    LoadConfig,
    LoadReport,
    make_volumes,
    run_load,
)
from repro.server.server import ServerConfig, VolumeServer  # noqa: F401

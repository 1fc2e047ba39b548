"""Set-up: build a workload's volume(s) and populate the namespace.

Everything here is what ``setup_s`` times: volume create, session open and
population, plus server start and client connects for a wire build.  A
workload sets only the ``VolumeConfig`` fields ``inode_count``,
``crash_tracking``, ``devices`` and ``stripe_pages`` (and the ArckFS preset
for the patch-cost comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.api import Session, Volume, VolumeConfig
from repro.core.config import ARCKFS_PLUS, ArckConfig
from repro.server.client import ServerClient
from repro.server.server import VolumeServer

from .model import initial_content
from .streams import Workload, dir_path, file_path


def _create(w: Workload, config: ArckConfig) -> Volume:
    return Volume.create(w.volume_bytes, config=VolumeConfig(
        config=config, inode_count=w.inode_count,
        crash_tracking=w.crash_tracking, devices=w.devices,
        stripe_pages=w.stripe_pages))


def _populate(w: Workload, pool: bytes, s: Session) -> Optional[List[int]]:
    """Directories and files; returns the descriptors a descriptor-based
    workload keeps open (None for a path-based one)."""
    for d in range(w.dirs):
        s.mkdir(dir_path(d))
    fds = []
    for f in range(w.files):
        fd = s.creat(file_path(w, f))
        s.pwrite(fd, initial_content(w, pool, f), 0)
        fds.append(fd)
    if not w.path_io:
        return fds
    for fd in fds:
        s.close(fd)
    return None


@dataclass
class SessionBuild:
    """One volume with one in-process Session that populated it, so the
    session owns every inode and the timed phase starts warm."""

    volume: Volume
    session: Session
    fds: Optional[List[int]]

    @property
    def volumes(self) -> List[Volume]:
        return [self.volume]

    def sessions(self) -> List[Session]:
        return [self.session]

    def close(self) -> None:
        self.volume.close()


def build_session(w: Workload, pool: bytes,
                  config: ArckConfig = ARCKFS_PLUS) -> SessionBuild:
    volume = _create(w, config)
    session = volume.session("bench")
    return SessionBuild(volume, session, _populate(w, pool, session))


@dataclass
class WireBuild:
    """An in-process VolumeServer on the caller's event loop, one volume
    and one ServerClient connection (with one open session) per tenant."""

    volumes: List[Volume]
    server: VolumeServer
    clients: List[ServerClient]
    tokens: List[str]
    fds: List[Optional[List[int]]]

    def sessions(self) -> List[Session]:
        """The server-side Session of each tenant, in tenant order."""
        by_token = {ss.token: ss.session for ss in self.server.sessions.all()}
        return [by_token[t] for t in self.tokens]

    async def close(self) -> None:
        for client, token in zip(self.clients, self.tokens):
            await client.close_session(token)
            await client.close()
        await self.server.close()
        for volume in self.volumes:
            volume.close()


async def build_wire(w: Workload, pool: bytes, tenants: int) -> WireBuild:
    names = [f"t{i}" for i in range(tenants)]
    volumes = []
    for _ in names:
        volume = _create(w, ARCKFS_PLUS)
        with volume.session("setup") as s:
            _populate(w, pool, s)
        volumes.append(volume)
    server = await VolumeServer(dict(zip(names, volumes))).start()
    clients, tokens, fds = [], [], []
    for name in names:
        client = await ServerClient.connect(server.config.host, server.port)
        token = await client.open_session(name)
        clients.append(client)
        tokens.append(token)
        if w.path_io:
            fds.append(None)
        else:
            fds.append([(await client.call("open", session=token,
                                           path=file_path(w, f)))["fd"]
                        for f in range(w.files)])
    return WireBuild(volumes, server, clients, tokens, fds)

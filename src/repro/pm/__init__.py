"""Simulated byte-addressable persistent memory.

This package models the persistency behaviour of Intel-x86 platforms with
persistent memory (clwb / sfence / non-temporal stores), which is exactly the
machinery involved in the paper's §4.2 crash-consistency bug:

* CPU stores land in a *volatile* cache view of the device.
* ``clwb`` queues the current content of a cache line for write-back.
* ``sfence`` guarantees that all previously queued write-backs are durable and
  orders subsequent stores after them.
* Crucially, *un-fenced* dirty lines may be written back at **any** time
  (cache eviction), in **any** order — so a later store can become durable
  before an earlier one unless a fence intervenes.  This is the exact window
  the missing fence in ArckFS opens.

:class:`~repro.pm.device.PMDevice` tracks, per cache line, every version the
line has held since the last durable point, and can enumerate or sample the
*reachable crash states* (each line independently persists any version at or
after its durability floor).  Recovery code is run against such images to
demonstrate the §4.2 bug and to prove the ArckFS+ fence closes it.  A striped
volume is one such device with ``devices`` members, each a slice of the flat
address space that carries its own counters.
"""

from repro.pm.device import CACHE_LINE, PMDevice, PMStats
from repro.pm.mapping import Mapping
from repro.pm.crash import explore
from repro.pm.allocator import PageAllocator
from repro.pm import layout

__all__ = [
    "CACHE_LINE",
    "PMDevice",
    "PMStats",
    "Mapping",
    "explore",
    "PageAllocator",
    "layout",
]

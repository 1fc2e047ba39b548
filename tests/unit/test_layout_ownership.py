"""Who may know the on-media format, and who may reach a verdict: an AST
scan of ``src/repro``.

Rules ruff cannot express (TID251 is waived wholesale for ``kernel/``,
``libfs/`` and ``fsck/``):

* raw byte packing (``struct``) belongs to the format owners only — a
  module outside the list that needs a field goes through ``CoreState`` /
  ``pm.layout`` instead of re-deriving offsets;
* page chains are followed in exactly one place.  Every reader of
  ``PageHeader.next_page`` is a second cycle/range policy waiting to
  disagree with the verifier's, which is the shape of the paper's bugs;
* "verify on ownership transfer" is one rule, so it has one engine (one
  class with a ``verify(self, ino, ...)``) and, in the controller, one
  verdict path (one caller of the resolution policy) and one place that
  unmaps an acquisition; no verdict waits on a clock — the rename lease is
  the only lease the kernel imports;
* "may retained auxiliary state answer?" is one rule too: one per-inode
  version, moved by the kernel where a writable acquisition begins or
  ends or the inode is deleted and nowhere else; one LibFS routine that builds a
  ``MemInode`` from a mapping; one predicate in front of every read, which
  no configuration flag can switch off;
* a path is validated once, where it enters: ``paths.parse`` is the only
  routine that can refuse one and only LibFS's public operations call it —
  everything below takes the component tuple; a remembered walk is stored
  and dropped in seven places and consulted in one, which no flag guards;
* every option is a field of one of five dataclasses, so the census below
  makes the next one a visible diff, and ``libfs/`` and ``kernel/`` read
  nothing off their ``config`` but those fields;
* the wire has one frame format and ``server/protocol.py`` is the one place
  that knows it: nothing else under ``server/`` packs a prefix, and nothing
  there reads lines or encodes payloads as text;
* the server runs an op in the read that brought it: the coordinator keeps
  no queue and starts one task, the reaper, and the router knows the
  session ops and four control methods — no test-only one;
* there is one PM device class, striped or not, so nobody asks a device
  what it can do: no ``getattr``/``hasattr`` probes for its batch I/O or
  its members; and a gather already returns one ``bytes``, so nobody joins
  it again;
* an inode's on-media shape is judged by one set of rules,
  ``core/invariants.py``: the verifier, fsck and mount call it, and none of
  them names the dentry format or the page kinds, or compares a header
  kind or a dentry type, itself;
* a layer event is counted once, in its layer's stats record, and a timed
  region is one span: no registry counter repeats a record's field, and
  the profiler keeps no frame or span of its own;
* modeled time lives in the cost model only: the functional stack counts
  and never imports ``repro.perf``, and ``repro.perf`` publishes nothing
  through ``repro.obs``.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules that own an on-media format and may import ``struct``.
STRUCT_OWNERS = (
    "pm/layout.py",       # superblock, inode, dentry, page header
    "core/corestate.py",  # 8-byte atomic fields of the above
    "tx/log.py",          # its own redo-log header
    "server/protocol.py",  # the wire's frame prefix
    "kv/",                # the KV store's WAL and SSTable files
    "basefs/",            # the baseline file systems' private formats
)

#: Trees whose chains are not ArckFS core state.
CHAIN_EXEMPT = ("pm/layout.py", "basefs/")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(), filename=str(path))


def test_struct_is_imported_only_by_format_owners():
    offenders = []
    for rel, tree in _modules():
        if rel.startswith(STRUCT_OWNERS):
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "struct" for n in names):
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, f"struct imported outside the format owners: {offenders}"


def test_next_page_is_read_in_exactly_one_function():
    readers = []
    for rel, tree in _modules():
        if rel.startswith(CHAIN_EXEMPT):
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Attribute) and n.attr == "next_page"
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(fn)):
                readers.append(f"{rel}::{fn.name}")
    assert readers == ["core/corestate.py::walk_chain"], readers


def test_page_dentries_is_called_in_exactly_one_function():
    """A directory's records are read by one reader: every consumer takes
    them from ``core/invariants.py``'s shape."""
    callers = [f"{rel}::{name}" for rel, tree in _modules()
               for name in _functions_calling(
                   tree, lambda func: func.attr == "page_dentries")]
    assert callers == ["core/invariants.py::read_tail"], callers


def _functions_calling(tree, matches):
    """Names of the functions in ``tree`` containing a call ``matches``."""
    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and matches(n.func) for n in ast.walk(fn))]


def test_controller_has_one_verdict_path_and_one_unmap():
    tree = dict(_modules())["kernel/controller.py"]

    def is_policy_resolve(func):  # self.policy.resolve(...)
        return (func.attr == "resolve" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "policy"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self")

    def is_mapping_unmap(func):  # <acquisition>.mapping.unmap()
        return (func.attr == "unmap" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "mapping")

    assert _functions_calling(tree, is_policy_resolve) == ["_verify_or_resolve"]
    unmappers = _functions_calling(tree, is_mapping_unmap)
    assert [fn for fn in unmappers if fn != "abort_inode"] == ["_drop"]


def _functions(tree):
    return [fn for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _stores_to(fn, attr):
    """Does ``fn`` assign to ``<x>.attr`` or to an element of it?"""
    targets = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
        elif isinstance(node, ast.Delete):
            targets += node.targets
    return any(isinstance(t, ast.Attribute) and t.attr == attr
               for target in targets
               for t in (target, getattr(target, "value", None)))


def test_the_inode_version_moves_where_core_state_may_change_only():
    writers = {f"{rel}::{fn.name}" for rel, tree in _modules()
               for fn in _functions(tree) if _stores_to(fn, "inode_version")}
    assert writers == {
        "kernel/controller.py::__init__",  # the table is created, all zero
        "kernel/controller.py::_open_for_write",     # an application may write
        "kernel/controller.py::_verify_or_resolve",  # the kernel rolled back
        "kernel/controller.py::_drop_shadow"}, writers  # the inode is gone
    # ... and the published side holds it read-only: no element store.
    readcache = dict(_modules())["kernel/readcache.py"]
    assert [fn.name for fn in _functions(readcache)
            if any(isinstance(n, ast.Subscript)
                   and isinstance(n.ctx, (ast.Store, ast.Del))
                   and isinstance(n.value, ast.Attribute)
                   and n.value.attr == "_versions"
                   for n in ast.walk(fn))] == []


def test_one_routine_builds_a_meminode_from_a_mapping():
    tree = dict(_modules())["libfs/libfs.py"]
    builders = [fn.name for fn in _functions(tree)
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "MemInode" for n in ast.walk(fn))]
    assert sorted(builders) == ["_attach", "_create_common"], builders


def test_no_flag_decides_whether_retained_state_is_checked():
    tree = dict(_modules())["libfs/libfs.py"]
    (fn,) = [fn for fn in _functions(tree) if fn.name == "_get_for_read"]
    body = ast.Module(body=fn.body[1:], type_ignores=[])  # minus the docstring
    mentioned = {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
    assert not mentioned & {"locked_release", "config"}


def test_a_path_is_parsed_where_it_enters_and_nowhere_below():
    modules = dict(_modules())
    validators = [fn.name for fn in _functions(modules["libfs/paths.py"])
                  if any(isinstance(n, ast.Raise) for n in ast.walk(fn))]
    assert validators == ["parse"], validators

    def is_paths_parse(func):
        return (func.attr in ("parse", "normalize")
                and isinstance(func.value, ast.Name) and func.value.id == "paths")

    parsers = _functions_calling(modules["libfs/libfs.py"], is_paths_parse)
    assert parsers and not [fn for fn in parsers if fn.startswith("_")], parsers


def test_remembered_walks_change_in_seven_places_and_answer_in_walk():
    tree = dict(_modules())["libfs/libfs.py"]

    def mutates_walks(fn):  # self._walks[...] = / del ..., or .pop() & co
        return _stores_to(fn, "_walks") or any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("pop", "popitem", "clear", "update", "setdefault")
            and isinstance(n.func.value, ast.Attribute)
            and n.func.value.attr == "_walks" for n in ast.walk(fn))

    assert sorted(fn.name for fn in _functions(tree) if mutates_walks(fn)) == [
        "__init__", "_apply_rename", "_extend", "_invalidate_aux", "_remember",
        "_rmdir", "_unlink", "_walk"]
    readers = [fn.name for fn in _functions(tree)
               if any(isinstance(n, ast.Attribute) and n.attr == "_walks"
                      for n in ast.walk(fn)) and not mutates_walks(fn)]
    assert readers == [], readers
    (fn,) = [fn for fn in _functions(tree) if fn.name == "_walk"]
    assert "config" not in {n.attr for n in ast.walk(fn)
                            if isinstance(n, ast.Attribute)}


def test_one_class_defines_verify_of_an_inode():
    engines = []
    for rel, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and fn.name == "verify"
                        and [a.arg for a in fn.args.args[:2]] == ["self", "ino"]):
                    engines.append(f"{rel}::{cls.name}")
    assert engines == ["kernel/verifier.py::Verifier"], engines


def test_the_rename_lease_is_the_only_lease_in_the_kernel():
    imported = set()
    for rel, tree in _modules():
        if rel.startswith("kernel/"):
            imported |= {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         and node.module == "repro.concurrency.lease"
                         for alias in node.names}
    assert imported == {"Lease"}


def test_the_wire_format_lives_in_protocol_only():
    """Length-prefixed frames with raw payloads replaced JSON lines with
    base64; a second reader of either kind is a second format.  (Who may
    import ``struct`` at all is ``STRUCT_OWNERS``, above.)"""
    text_codecs = {"base64", "binascii"}
    line_readers = {"readline", "readuntil", "StreamReader", "start_server",
                    "open_connection"}
    offenders = []
    for rel, tree in _modules():
        if not rel.startswith("server/"):
            continue
        private = set() if rel == "server/protocol.py" else {"_PREFIX"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used = {a.name.split(".")[0] for a in node.names} & text_codecs
            elif isinstance(node, ast.ImportFrom):
                used = {(node.module or "").split(".")[0]} & text_codecs
            elif isinstance(node, (ast.Attribute, ast.Name)):
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                used = {name} & (line_readers | private)
            else:
                continue
            offenders += [f"{rel}:{node.lineno}: {name}" for name in used]
    assert not offenders, offenders
    coders = [fn.name for fn in ast.walk(dict(_modules())["server/protocol.py"])
              if isinstance(fn, ast.FunctionDef) and fn.name.endswith("_frame")]
    assert sorted(coders) == ["decode_frame", "encode_frame"]


#: Packages of the functional stack: they count, ``repro.perf`` prices.
FUNCTIONAL = ("pm/", "core/", "kernel/", "libfs/", "tx/", "fsck/", "server/",
              "concurrency/", "obs/", "kv/", "basefs/", "api.py")


def _imported(tree):
    """``(lineno, module)`` for every import in ``tree``, function-local
    ones included; ``from a import b`` yields ``a.b`` too, since ``b`` may
    be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            yield from ((node.lineno, f"{node.module}.{a.name}")
                        for a in node.names)


def test_modeled_time_stays_in_the_cost_model():
    def under(module, package):
        return module == package or module.startswith(package + ".")

    offenders = []
    for rel, tree in _modules():
        if rel.startswith(FUNCTIONAL):
            banned = "repro.perf"
        elif rel.startswith("perf/"):
            banned = "repro.obs"
        else:
            continue
        offenders += sorted({f"{rel}:{line} imports {banned}"
                             for line, mod in _imported(tree)
                             if under(mod, banned)})
    assert not offenders, offenders


def test_option_census():
    """Every independently settable value and every kernel counter, by
    name.  Adding one means editing this test — and saying, in the same
    diff, which two callers need different values (ROADMAP aim 2)."""
    from repro.api import VolumeConfig
    from repro.core.config import ArckConfig
    from repro.fsck import run_fsck
    from repro.kernel.controller import KernelStats
    from repro.kernel.verifier import Verifier
    from repro.pm.device import PMDevice
    from repro.server import ServerConfig, TenantPolicy

    census = {
        ArckConfig: {
            "name", "rename_commit_protocol", "shadow_parent_pointer",
            "fence_before_marker", "locked_release", "extended_bucket_lock",
            "rcu_buckets", "global_rename_lock", "descendant_check"},
        VolumeConfig: {
            "config", "policy", "inode_count", "crash_tracking", "devices",
            "stripe_pages", "name"},
        ServerConfig: {
            "host", "port", "policy", "lease_seconds", "evict_interval",
            "max_frame"},
        TenantPolicy: {"max_sessions", "max_burst"},
        KernelStats: {
            "acquires", "releases", "commits", "revokes", "verifications",
            "bytes_verified", "snapshots", "snapshot_bytes", "rollbacks",
            "rollback_bytes", "marked_inaccessible", "group_skips"},
    }
    for cls, expected in census.items():
        assert {f.name for f in dataclasses.fields(cls)} == expected, cls
    assert len(dataclasses.fields(VolumeConfig)) == 7
    keywords = {p.name for p in inspect.signature(PMDevice).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
    assert keywords == {"devices", "crash_tracking"}
    # Modeled workers are the cost model's: the checkers take no count.
    assert list(inspect.signature(Verifier).parameters) == ["controller"]
    keywords = {p.name for p in inspect.signature(run_fsck).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
    assert keywords == {"repair", "libfs", "max_passes"}


def test_a_layer_event_is_counted_once_and_timed_by_one_span():
    """An observed run publishes each layer record's delta as
    ``<prefix>.<field>`` (``obs.driver``); a registry counter of the same
    name counts the event a second time.  And ``obs.span`` is the tracer's
    span: a profiler frame beside it was a second stack."""
    from repro.kernel.controller import KernelStats
    from repro.kernel.readcache import ReadCacheStats
    from repro.kernel.verifier import PipelineStats
    from repro.libfs.libfs import LibFSStats
    from repro.pm.allocator import AllocStats
    from repro.pm.device import PMStats

    records = {"pm": PMStats, "alloc": AllocStats, "kernel": KernelStats,
               "readcache": ReadCacheStats, "verify": PipelineStats,
               "libfs": LibFSStats}
    published = {f"{prefix}.{f.name.rstrip('_')}"
                 for prefix, cls in records.items()
                 for f in dataclasses.fields(cls)}
    counters = {("count", "obs"), ("counter", "metrics"),
                ("counter", "obs.metrics")}
    sites, copies = 0, []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and (node.func.attr, ast.unparse(node.func.value)) in counters):
                continue
            sites += 1
            name = node.args[0]
            if isinstance(name, ast.JoinedStr):  # f"verify.{stage}"
                head = name.values[0] if name.values else None
                literal = head.value if isinstance(head, ast.Constant) else ""
                if literal.split(".")[0] in records and "." in literal:
                    copies.append(f"{rel}:{node.lineno}: {ast.unparse(name)}")
            elif isinstance(name, ast.Constant) and name.value in published:
                copies.append(f"{rel}:{node.lineno}: {name.value}")
    assert sites >= 40, sites  # the scan is not vacuous
    assert not copies, copies

    profile = dict(_modules())["obs/profile.py"]
    classes = [c.name for c in ast.walk(profile) if isinstance(c, ast.ClassDef)]
    assert not [c for c in classes if "frame" in c.lower() or "span" in c.lower()], classes
    assert "local" not in {n.attr for n in ast.walk(profile)
                           if isinstance(n, ast.Attribute)}  # no per-thread stack


def test_nobody_probes_a_device_for_what_it_can_do():
    """A striped volume is a ``PMDevice`` with N members, so every device
    has batch I/O and ``members``; a capability probe is a second device
    class waiting to come back."""
    probed = {"ntstore_scatter", "load_gather", "device_count",
              "stripe_pages", "members"}
    offenders = [f"{rel}:{node.lineno}" for rel, tree in _modules()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in ("getattr", "hasattr")
                 and len(node.args) > 1
                 and isinstance(node.args[1], ast.Constant)
                 and node.args[1].value in probed]
    assert not offenders, offenders


def test_nobody_joins_a_gather():
    """``load_gather`` joins its extents out of the device's buffer, one
    copy per byte; a ``b"".join`` around it is a second copy of every byte
    (a 1 MiB read used to pay three)."""
    gathers, joined = 0, []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "load_gather":
                gathers += 1
            elif (node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
                  and node.func.value.value == b""
                  and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                          and n.func.attr == "load_gather"
                          for arg in node.args for n in ast.walk(arg))):
                joined.append(f"{rel}:{node.lineno}")
    assert gathers >= 2, gathers  # the scan is not vacuous
    assert not joined, joined


def test_the_server_queues_nothing_and_starts_one_task():
    """An admitted op runs where it was read, so the coordinator has nothing
    to park and nobody to hand it to: no ``asyncio.Queue``, one task (the
    reaper), and a method surface of ``SESSION_OPS`` plus four control ops."""
    modules = dict(_modules())
    queues, tasks = [], []
    for rel in ("server/server.py", "server/admission.py",
                "server/sessions.py"):
        for node in ast.walk(modules[rel]):
            if isinstance(node, ast.Attribute) and node.attr.endswith("Queue"):
                queues.append(f"{rel}:{node.lineno}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("create_task", "ensure_future")):
                tasks.append(ast.unparse(node.args[0]))
    assert queues == []
    assert tasks == ["self._evict_loop()"]

    route = next(fn for fn in _functions(modules["server/server.py"])
                 if fn.name == "_route")
    routed = {ast.unparse(test.comparators[0]).strip("'")
              for test in ast.walk(route) if isinstance(test, ast.Compare)
              and ast.unparse(test.left) == "method"}
    assert routed == {"SESSION_OPS", "ping", "session.open", "session.close",
                      "stats"}


def test_the_file_systems_read_only_table_1_from_their_config():
    """``ArckConfig`` is ``name`` and the Table-1 toggles: how the
    patched system reads follows from §4.3 and §4.5, not from a field of
    its own — and directory lookups have the paper's two modes, so no
    bucket carries a sequence counter."""
    from repro.core.config import ArckConfig

    fields = {f.name for f in dataclasses.fields(ArckConfig)}
    modules = dict(_modules())

    def is_config(expr):  # ``config`` or ``<anything>.config``
        return (expr.id if isinstance(expr, ast.Name)
                else getattr(expr, "attr", None)) == "config"

    read = {f"{rel}:{node.lineno}: config.{node.attr}"
            for rel, tree in modules.items()
            if rel.startswith(("libfs/", "kernel/"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_config(node.value)
            and node.attr not in fields}
    assert not read, sorted(read)
    imported = {alias.name for node in ast.walk(modules["libfs/hashtable.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "SeqCount" not in imported


def test_one_module_judges_an_inodes_shape():
    """The verifier, fsck and mount used to carry three copies of the
    per-inode rules, and the copies drifted (a retyped dentry passed the
    verifier as an unchanged entry; mount then wiped the subtree)."""
    layout_names = {"legal_name", "MAX_NAME", "DENTRY_HEADER",
                    "PAGE_KIND_DIRLOG", "PAGE_KIND_INDEX"}
    # The two itype comparisons left are an inode's against the kernel's
    # own verified record of it, not a dentry's.
    inode_vs_shadow = {"kernel/shadow.py::is_dir",
                       "kernel/verifier.py::_check_record"}
    named, compared = [], []
    for rel, tree in _modules():
        if not rel.startswith(("kernel/", "fsck/")) or rel == "fsck/inject.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                used = {node.attr if isinstance(node, ast.Attribute) else node.id}
            else:
                continue
            named += [f"{rel}:{node.lineno}: {n}" for n in used & layout_names]
        for fn in _functions(tree):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare):
                    continue
                attrs = {n.attr for n in [node.left, *node.comparators]
                         if isinstance(n, ast.Attribute)}
                if "kind" in attrs or ("itype" in attrs and
                                       f"{rel}::{fn.name}" not in inode_vs_shadow):
                    compared.append(f"{rel}::{fn.name}:{node.lineno}")
    assert not named, named
    assert not compared, compared


def test_pages_are_freed_a_batch_at_a_time():
    """``PageAllocator.free(*pages)`` takes a whole batch under one lock and
    one store per bitmap run; a page free inside a loop pays both per page
    again (a 512 KiB truncate used to issue 129 fences)."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)

    def is_page_free(node):  # <...>.alloc.free(...) or alloc.free(...)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "free"):
            return False
        owner = node.func.value
        return (isinstance(owner, ast.Attribute) and owner.attr == "alloc"
                or isinstance(owner, ast.Name) and owner.id == "alloc")

    in_loops, frees = [], 0
    for rel, tree in _modules():
        if not rel.startswith(("libfs/", "tx/", "kernel/", "core/")):
            continue
        for loop in ast.walk(tree):
            if isinstance(loop, loops):
                in_loops += [f"{rel}:{n.lineno}" for n in ast.walk(loop)
                             if is_page_free(n)]
        frees += sum(map(is_page_free, ast.walk(tree)))
    # The scan is not vacuous: truncate, unlink, rmdir and the tx log's
    # retire (commit, abort and mount's replay share it).
    assert frees >= 4, frees
    assert not in_loops, sorted(set(in_loops))

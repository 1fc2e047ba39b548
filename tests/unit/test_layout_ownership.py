"""Who may know the on-media format: an AST scan of ``src/repro``.

Two rules ruff cannot express (TID251 is waived wholesale for ``kernel/``,
``libfs/`` and ``fsck/``):

* raw byte packing (``struct``) belongs to the format owners only — a
  module outside the list that needs a field goes through ``CoreState`` /
  ``pm.layout`` instead of re-deriving offsets;
* page chains are followed in exactly one place.  Every reader of
  ``PageHeader.next_page`` is a second cycle/range policy waiting to
  disagree with the verifier's, which is the shape of the paper's bugs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules that own an on-media format and may import ``struct``.
STRUCT_OWNERS = (
    "pm/layout.py",       # superblock, inode, dentry, page header
    "core/corestate.py",  # 8-byte atomic fields of the above
    "tx/log.py",          # its own redo-log header
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

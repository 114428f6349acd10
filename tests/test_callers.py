"""Nothing in ``src/etacomplex`` that only the tests call, and no import that
its module never reads.

A top-level function or class passes when ``src/`` or ``bench/`` reads its
name outside its own body: as an ``ast.Name`` or ``ast.Attribute``, or as
a dotted name in a string that is not a docstring (``__all__`` and the
traced table of ``bench/spans.py`` name functions that way).  Any other
definition is a public entry point kept for users, listed in ``KEPT`` with
the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etacomplex"

KEPT = {
    "check_eta_coherence": "checks the paper's hypothesis eta_{X(1)} = eta_X(1) on a user's own "
                           "instance; tier-1 runs it on every instance kind",
    "check_eta_natural": "checks that eta is natural on a user's own instance; tier-1 runs it on "
                         "every instance kind",
    "reinstance_chain_map": "the route to eta^m questions: a pair re-instanced over EtaPower(inst, m); "
                            "CI's past-desk steps call it",
    "stable_equal": "equality in the stable category, whose triangles ROADMAP item 22 gives "
                    "suite callers",
    "standard_triangle": "the stable category's standard triangle (ROADMAP item 22)",
    "suspend_map": "the stable category's suspension of a map (ROADMAP item 22)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _docstrings(tree) -> set:
    """The ids of the docstring constants of the module, classes and functions."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def _reads(tree, attributes: bool = True):
    """(name, line) for every name tree reads: loaded names, loaded attributes
    when asked, and the parts of every dotted-name string not a docstring."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif attributes and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _modules():
    return [(path, _parse(path)) for path in sorted(PACKAGE.glob("*.py"))]


def _uncalled() -> dict:
    """Top-level definitions of the package that nothing in src/ or bench/
    reads outside their own body: "module.name" -> name."""
    modules = _modules()
    reads = {}
    for path, tree in modules + [(p, _parse(p)) for p in sorted((ROOT / "bench").glob("*.py"))]:
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((path, line))
    uncalled = {}
    for path, tree in modules:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in reads.get(node.name, [])):
                uncalled[f"{path.stem}.{node.name}"] = node.name
    return uncalled


def test_every_definition_has_a_caller():
    left = sorted(key for key, name in _uncalled().items() if name not in KEPT)
    assert not left, f"defined in src/ with no caller in src/ or bench/: {left}"


def test_kept_names_are_uncalled_entry_points_with_a_reason():
    uncalled = set(_uncalled().values())
    for name, reason in KEPT.items():
        assert isinstance(reason, str) and reason.strip(), f"KEPT[{name!r}] gives no reason"
        assert name in uncalled, f"{name} is not an uncalled top-level definition of src/: drop it from KEPT"


def test_every_import_is_read():
    """Re-exports in ``__init__`` are exempt."""
    unread = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        read = {name for name, _ in _reads(tree, attributes=False)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.stem}: {bound}")
    assert not unread, f"imported and never read: {unread}"

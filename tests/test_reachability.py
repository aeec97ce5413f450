"""Every ``src/`` module is reached from an entry point or names its experiment.

An ``ast`` walk follows module- and function-level imports from the entry
points; ``repro.experiments`` modules count as reached, unfollowed, so code
only an experiment needs is listed in ``CLAIMS``, and the listing must hold.
``from repro.pkg import Name`` reaches the module that defines ``Name``; a
package's own re-exports are followed only for the entry packages.  A
top-level def or class must be used by code (a name, attribute or import,
not a docstring) in a non-``__init__`` module of ``src/``, or be exported by
an entry package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ENTRY = ("repro", "repro.__main__", "repro.cli", "repro.api", "repro.service")
ENTRY_PACKAGES = ("repro", "repro.service")
# Experiments-only code -> the experiments that import it (longest key wins).
CLAIMS = {
    "consensus": ("e08_consensus", "e17_replication"),
    "apps": ("e09_wsn", "e10_stm", "e17_replication", "e18_dstm"),
    "apps.wsn": ("e09_wsn",), "apps.stm": ("e10_stm",),
    "apps.kv_store": ("e17_replication",), "apps.dstm": ("e18_dstm",),
    "sim.shm": ("e18_dstm",), "core.preliminary": ("e20_preliminary",),
}
# benchmarks/ledger/tracing.py rebinds it by name to time the offline replay.
CALLERLESS = {"justify_violations"}


def _module(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


FILES = {_module(p): p for p in sorted(SRC.rglob("*.py"))}
TREES = {m: ast.parse(p.read_text()) for m, p in FILES.items()}
PACKAGES = {m for m, p in FILES.items() if p.name == "__init__.py"}
EXPERIMENTS = {m for m in FILES if m.startswith("repro.experiments")}


def _defining(pkg, name):
    """The module behind ``from pkg import name``, through re-exports."""
    if f"{pkg}.{name}" in FILES:
        return f"{pkg}.{name}"
    for node in TREES[pkg].body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return (_defining(node.module, alias.name)
                            if node.module in PACKAGES else node.module)
    return pkg


def _imports(mod):
    for node in ast.walk(TREES[mod]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            for parts in (name.split(".") for name in names):
                yield from (".".join(parts[:i]) for i in range(1, len(parts) + 1))
            if isinstance(node, ast.ImportFrom) and node.module in PACKAGES:
                yield from (_defining(node.module, a.name) for a in node.names)


def reach(roots, barrier=frozenset()):
    seen, todo = set(), list(roots)
    while todo:
        mod = todo.pop()
        if mod in FILES and mod not in seen:
            seen.add(mod)
            if mod not in barrier and (mod not in PACKAGES
                                       or mod in ENTRY_PACKAGES):
                todo.extend(_imports(mod))
    return seen


REACHED = reach(ENTRY, barrier=EXPERIMENTS) | EXPERIMENTS
WAY_OUT = "import it from an entry point or list it in CLAIMS under its experiment"


def _claim(mod):
    keys = [k for k in CLAIMS if f"{mod}.".startswith(f"repro.{k}.")]
    return CLAIMS[max(keys, key=len)] if keys else None


def test_every_module_is_reached_or_claimed():
    orphans = [m for m in FILES if m not in REACHED and _claim(m) is None]
    assert not orphans, f"no entry point reaches {orphans}: {WAY_OUT}"


def test_every_claim_holds():
    stale = [key for key in CLAIMS if f"repro.{key}" not in FILES]
    assert not stale, f"CLAIMS names no module at {stale}: drop those lines"
    for mod in filter(_claim, FILES):
        assert mod not in REACHED, f"{mod} is reached now: drop its CLAIMS line"
        users = reach(f"repro.experiments.{e}" for e in _claim(mod))
        assert mod in users, f"none of {_claim(mod)} imports {mod}: {WAY_OUT}"


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def test_every_top_level_definition_has_a_src_caller():
    used = {name for mod, tree in TREES.items() if mod not in PACKAGES
            for name in _identifiers(tree)}
    used |= {alias.asname or alias.name for pkg in ENTRY_PACKAGES
             for node in TREES[pkg].body if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    callerless = [f"{mod}.{node.name}" for mod, tree in TREES.items()
                  for node in tree.body if isinstance(node, defs)
                  and node.name not in used | CALLERLESS]
    assert not callerless, (f"no src/ code uses {callerless}: "
                            "give it a src/ caller, move it under tests/ or delete it")

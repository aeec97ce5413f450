"""Integration: every experiment harness passes its paper claim.

One case per registered experiment runs it at its defaults and pins its
table to the committed ``benchmarks/results/eN.txt`` byte for byte.  The
table carries the verdict, so a green run here means EXPERIMENTS.md's
verdict column is reproducible, and any change to a run's draws shows up
as a table diff.  EXPERIMENTS.md gives the recipe that re-pins a table.
E1 keeps its own named test; its table is computed once and shared with
the render check.
"""

import functools
import pathlib

import pytest

from repro.experiments import REGISTRY

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


@functools.lru_cache(maxsize=None)
def run_table(name):
    """Run ``name`` at its defaults once; return ``(ok, rendered table)``."""
    r = REGISTRY[name].run()
    return r.ok, r.render()


def assert_committed_table(name):
    """The table of ``name`` must pass and equal the archive."""
    ok, text = run_table(name)
    assert ok, text
    assert text.startswith(f"[{name.upper()}] ") and "PASS" in text
    committed = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert text + "\n" == committed


def test_registry_is_complete():
    assert list(REGISTRY) == [f"e{i}" for i in range(1, 21)]
    for mod in REGISTRY.values():
        assert hasattr(mod, "run") and hasattr(mod, "TITLE")


def test_e1_figure1():
    assert_committed_table("e1")


@pytest.mark.parametrize("name", [n for n in REGISTRY if n != "e1"])
def test_committed_table(name):
    assert_committed_table(name)


def test_results_render_cleanly():
    _, text = run_table("e1")
    assert "[E1]" in text and "PASS" in text

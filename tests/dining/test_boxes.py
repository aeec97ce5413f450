"""The one dining-box grammar: spec string -> instance factory."""

import pytest

from repro.dining import box_factory
from repro.errors import ConfigurationError
from repro.runtime import RunSpec, instantiate, parse_graph
from repro.runtime.builder import build_system


def test_box_factory_covers_all_algorithms():
    graph = parse_graph("ring:3")
    system = build_system(sorted(graph.nodes), seed=1, max_time=10.0)
    for algo in ("wf-ewx", "hygienic", "deferred", "deferred:99",
                 "manager", "fair:2"):
        instance = box_factory(algo, system.provider)(algo, graph)
        diners = instance.attach(system.engine)
        assert set(diners) == set(graph.nodes)


@pytest.mark.parametrize("field, value, instances", [
    ("algorithm", "wf-ewx", 1), ("algorithm", "hygienic", 1),
    ("algorithm", "deferred", 1), ("algorithm", "manager", 1),
    ("algorithm", "fair", 2),              # the wrapper and its inner box
    ("detector", "extracted", 13),         # 2·n·(n−1) pair instances + box
], ids=lambda v: v if isinstance(v, str) else None)
def test_dining_instances_counts_every_attached_instance(field, value,
                                                         instances):
    built = instantiate(RunSpec(graph="ring:3", max_time=200.0,
                                **{field: value}))
    assert built.engine.registry.counter(
        "dining.instances").value == instances


@pytest.mark.parametrize("spec", [
    "nope", "wf", "deferred:abc", "deferred:", "deferred:inf", "fair:x",
    "fair:0", "wf-ewx:1", "hygienic:2", 150,
])
def test_malformed_specs_rejected_eagerly_listing_the_grammar(spec):
    # No provider: parsing alone must reject, before anything is built.
    with pytest.raises(ConfigurationError) as err:
        box_factory(spec, None)
    assert "wf-ewx | hygienic | deferred[:horizon] | manager | fair[:k]" \
        in str(err.value)


def test_arguments_and_defaults_reach_the_instance():
    graph = parse_graph("ring:3")
    assert box_factory("deferred:99", None)("D", graph).mistake_horizon == 99
    assert box_factory("deferred", None)("D", graph).mistake_horizon == 150
    assert box_factory("fair:3", None)("F", graph).k == 3
    assert box_factory("fair", None)("F", graph).k == 2

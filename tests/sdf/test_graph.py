"""SDF graph construction."""

import pytest

from repro.errors import SdfError
from repro.sdf.graph import Actor, Edge, SdfGraph


def _chain():
    graph = SdfGraph("chain")
    graph.add_actor("a", 10.0)
    graph.add_actor("b", 20.0)
    graph.add_edge("a", "b", produce=2, consume=1)
    return graph


def test_actor_validation():
    with pytest.raises(SdfError):
        Actor("", 1.0)
    with pytest.raises(SdfError):
        Actor("x", -1.0)
    with pytest.raises(SdfError):
        Actor("x", 1.0, parallel_tiles=0)


def test_edge_validation():
    with pytest.raises(SdfError):
        Edge("a", "b", produce=0, consume=1)
    with pytest.raises(SdfError):
        Edge("a", "b", produce=1, consume=1, initial_tokens=-1)


def test_duplicate_actor_rejected():
    graph = SdfGraph()
    graph.add_actor("a")
    with pytest.raises(SdfError):
        graph.add_actor("a")


def test_edge_to_unknown_actor_rejected():
    graph = SdfGraph()
    graph.add_actor("a")
    with pytest.raises(SdfError):
        graph.add_edge("a", "ghost", 1, 1)


def test_views():
    graph = _chain()
    assert set(graph.actors) == {"a", "b"}
    assert len(graph.edges) == 1
    assert graph.out_edges("a")[0].dst == "b"
    assert graph.in_edges("b")[0].src == "a"
    assert graph.actor("a").cycles_per_firing == 10.0
    with pytest.raises(SdfError):
        graph.actor("ghost")


def test_sources_and_sinks():
    graph = _chain()
    assert graph.sources() == ["a"]
    assert graph.sinks() == ["b"]


def test_connectivity():
    graph = _chain()
    assert graph.is_connected()
    graph.add_actor("island")
    assert not graph.is_connected()
    assert not SdfGraph().is_connected()
    # Weakly but not strongly connected: b is reached from a only
    # against the direction of the b -> c channel.
    merge = SdfGraph("merge")
    for name in "abc":
        merge.add_actor(name)
    merge.add_edge("a", "c", 1, 1)
    merge.add_edge("b", "c", 1, 1)
    assert merge.is_connected()

"""Unit tests for graph loading, validation, indexing, and path handling."""

import json

import numpy as np
import pytest

from cyberdefsim.attack_graph import (
    AttackPath,
    GraphError,
    TERMINATED_DEPTH,
    load_graph,
    split_paths,
)
from cyberdefsim.harness import default_graph_path


@pytest.fixture()
def graph():
    return load_graph(default_graph_path())


def small_doc():
    return {
        "tactics": [{"id": 0, "name": "pre"}, {"id": 1, "name": "s1"},
                    {"id": 2, "name": "s2"}],
        "techniques": [
            {"id": 1, "name": "a", "tactic": 1, "is_goal": False},
            {"id": 2, "name": "b", "tactic": 1, "is_goal": False},
            {"id": 3, "name": "g", "tactic": 2, "is_goal": True},
        ],
        "edges": [["initiated", 1], ["initiated", 2], [1, 3], [2, 1], [2, 3]],
    }


def test_default_graph_shape(graph):
    assert len(graph.tactics) == 8  # pre-attack stage plus seven attack stages
    assert len(graph.techniques) == 15
    assert sum(t.is_goal for t in graph.techniques.values()) == 3
    assert graph.state_count == 17
    assert graph.goal_tactic == 7


def test_dense_indexing_bijection(graph):
    states = [graph.initiated,
              *(graph.state_of(t) for t in sorted(graph.techniques)),
              graph.terminated]
    assert len(states) == graph.state_count
    seen = set()
    for i, state in enumerate(states):
        assert state.index == i
        seen.add((state.kind, state.technique_id))
    assert len(seen) == graph.state_count
    assert graph.initiated.index == 0
    assert graph.terminated.index == graph.state_count - 1


def test_tactic_depth(graph):
    assert graph.tactic_depth(graph.initiated) == 0
    assert graph.tactic_depth(graph.terminated) == TERMINATED_DEPTH
    for tid, tech in graph.techniques.items():
        assert graph.tactic_depth(graph.state_of(tid)) == tech.tactic


def test_enumerate_paths_sorted_and_valid(graph):
    paths = graph.enumerate_paths()
    assert paths == sorted(paths, key=lambda p: p.steps)
    for p in paths:
        graph.validate_path(p)


def test_validate_path_rejections(graph):
    good = graph.enumerate_paths()[0]
    with pytest.raises(GraphError):
        graph.validate_path(AttackPath(()))
    with pytest.raises(GraphError):
        graph.validate_path(AttackPath(good.steps[1:]))  # wrong start stage
    with pytest.raises(GraphError):
        graph.validate_path(AttackPath(good.steps[:-1]))  # no goal at the end
    with pytest.raises(GraphError):
        graph.validate_path(AttackPath(good.steps + good.steps[-1:]))


def test_small_doc_roundtrip():
    g = load_graph(small_doc(), relaxed_counts=True)
    assert {p.steps for p in g.enumerate_paths()} == {
        (1, 3), (2, 3), (2, 1, 3)
    }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["tactics"].pop(),  # technique references missing tactic
        lambda d: d["techniques"][0].update(is_goal=True),
        lambda d: d["edges"].append([3, 1]),  # goal with outgoing edge
        lambda d: d["edges"].remove(["initiated", 2]),
        lambda d: d["edges"].append([1, 99]),
        lambda d: d["techniques"].append(
            {"id": 2, "name": "dup", "tactic": 1, "is_goal": False}
        ),
    ],
)
def test_structural_validation(mutate):
    doc = small_doc()
    mutate(doc)
    with pytest.raises(GraphError):
        load_graph(doc, relaxed_counts=True)


def _set(section, i, **kw):
    return lambda d: d[section][i].update(kw)


@pytest.mark.parametrize(
    "mutate",
    [
        _set("tactics", 0, id=0.9),  # was read as tactic 0
        _set("tactics", 1, name=5),
        _set("techniques", 0, id=True),  # was read as technique 1
        _set("techniques", 0, tactic=1.7),  # was read as tactic 1
        _set("techniques", 0, name=None),
        _set("techniques", 2, is_goal="no"),  # any non-empty string was a goal
        _set("techniques", 0, is_goal=0),
        lambda d: d["edges"].__setitem__(2, [True, 3]),  # was an edge from 1
    ],
    ids=["tactic-id-float", "tactic-name-int", "technique-id-bool",
         "technique-tactic-float", "technique-name-null", "is_goal-string",
         "is_goal-int", "edge-from-bool"],
)
def test_fields_must_have_their_json_type(mutate, tmp_path):
    doc = small_doc()
    mutate(doc)
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match=f"^{p}: ") as err:
        load_graph(p, relaxed_counts=True)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "ref", ["technique:1_0", "technique: 3 ", "technique:+2", "technique:-1",
            "technique:\u0663"],  # int() reads each; the last is Arabic-Indic 3
)
def test_an_edge_reference_takes_only_ascii_digits(ref, tmp_path):
    doc = small_doc()
    doc["edges"][2] = [1, ref]
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match=f"^{p}: unrecognized state reference") as err:
        load_graph(p, relaxed_counts=True)
    assert "\n" not in str(err.value)


def test_strict_counts_enforced():
    with pytest.raises(GraphError):
        load_graph(small_doc())


def test_malformed_document():
    with pytest.raises(GraphError):
        load_graph({"tactics": []})


def test_split_paths_partition(graph):
    paths = graph.enumerate_paths()
    train, test = split_paths(paths, 0.8, seed=0)
    assert len(train) + len(test) == len(paths)
    assert len(train) == int(np.floor(0.8 * len(paths) + 0.5))
    assert {p.steps for p in train} | {p.steps for p in test} == {
        p.steps for p in paths
    }
    assert not ({p.steps for p in train} & {p.steps for p in test})
    # seeded determinism
    train2, _ = split_paths(paths, 0.8, seed=0)
    assert [p.steps for p in train] == [p.steps for p in train2]
    train3, _ = split_paths(paths, 0.8, seed=1)
    assert [p.steps for p in train] != [p.steps for p in train3]


def test_split_paths_validation(graph):
    paths = graph.enumerate_paths()
    with pytest.raises(ValueError):
        split_paths(paths, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_paths([], 0.5, seed=0)


def test_load_graph_from_file(tmp_path):
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(small_doc()))
    g = load_graph(p, relaxed_counts=True)
    assert len(g.techniques) == 3

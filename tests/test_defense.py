"""Unit tests for the defense action catalog and its cost model."""

import json
import math

import numpy as np
import pytest

from cyberdefsim.attack_graph import load_graph
from cyberdefsim.defense import (
    CatalogError,
    CostParams,
    INACTIVE,
    PROACTIVE,
    REACTIVE,
    action_cost,
    block_probability,
    load_catalog,
    power_law_draw,
    sample_interruptions,
)
from cyberdefsim.harness import default_catalog_path, default_graph_path


@pytest.fixture(scope="module")
def graph():
    return load_graph(default_graph_path())


@pytest.fixture(scope="module")
def catalog(graph):
    return load_catalog(default_catalog_path(), graph)


@pytest.fixture()
def catalog_doc():
    """A fresh copy of the stock catalog document, the real input format."""
    return json.loads(default_catalog_path().read_text())


def test_default_catalog_shape(catalog):
    assert len(catalog) == 23
    kinds = [a.kind for a in catalog.actions]
    assert kinds[0] == INACTIVE and kinds[1] == REACTIVE
    assert kinds.count(PROACTIVE) == 21
    assert [a.id for a in catalog.actions] == list(range(23))


def test_every_technique_has_proactive_coverage(catalog, graph):
    covered = set().union(
        *(a.covered_techniques for a in catalog.actions if a.kind == PROACTIVE)
    )
    assert covered == set(graph.techniques)


def test_block_probability_semantics(catalog, graph):
    inactive, reactive = catalog.actions[0], catalog.actions[1]
    proactive = catalog.actions[2]
    target_id = next(iter(proactive.covered_techniques))
    covered = graph.techniques[target_id]
    uncovered = graph.techniques[
        next(t for t in graph.techniques if t not in proactive.covered_techniques)
    ]
    assert block_probability(catalog, inactive, covered) == 0.0
    assert block_probability(catalog, reactive, covered) == catalog.reactive_block_prob
    assert block_probability(catalog, proactive, covered) == proactive.block_prob
    assert block_probability(catalog, proactive, uncovered) == 0.0


def test_action_cost(catalog):
    inactive, reactive = catalog.actions[0], catalog.actions[1]
    p = catalog.cost_params
    assert action_cost(catalog, inactive, 0) == 0.0
    assert action_cost(catalog, reactive, 0) == p.impl_cost
    assert action_cost(catalog, reactive, 4) == pytest.approx(
        p.impl_cost + 4 * p.unit_interruption_cost
    )
    with pytest.raises(ValueError):
        action_cost(catalog, reactive, -1)


def test_interruptions_inactive_free(catalog):
    rng = np.random.default_rng(0)
    assert all(
        sample_interruptions(catalog, catalog.actions[0], d, rng) == 0
        for d in range(8)
    )


def test_interruptions_attenuate_with_depth(catalog):
    action = next(a for a in catalog.actions if a.fp_scale == 1.0)
    means = []
    for depth in (0, 3, 6):
        rng = np.random.default_rng(99)
        means.append(
            np.mean([sample_interruptions(catalog, action, depth, rng)
                     for _ in range(5000)])
        )
    assert means[0] > means[1] > means[2]


def numpy_interruptions(pl_cdf, catalog, action, depth, rng):
    """sample_interruptions in its earlier numpy form: np.searchsorted on the
    power-law CDF array, then np.floor."""
    if action.kind == INACTIVE:
        return 0
    k = int(np.searchsorted(pl_cdf, rng.random()) + 1)
    scaled = k * action.fp_scale * catalog.cost_params.depth_attenuation ** depth
    return int(np.floor(scaled + 0.5))


def test_interruptions_equal_the_numpy_form(catalog):
    p = catalog.cost_params
    w = np.arange(1, p.powerlaw_max + 1, dtype=float) ** (-p.powerlaw_exponent)
    pl_cdf = np.cumsum(w / w.sum())
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    draws = 0
    for action in catalog.actions:
        for depth in range(8):
            for _ in range(1100):
                got = sample_interruptions(catalog, action, depth, rng)
                assert type(got) is int
                assert got == numpy_interruptions(pl_cdf, catalog, action,
                                                  depth, twin)
                draws += 1
    assert draws >= 200_000
    assert rng.bit_generator.state == twin.bit_generator.state


class FixedUniform:
    """A stub rng whose `random()` returns the given uniforms in turn."""

    def __init__(self, *uniforms):
        self.uniforms = list(uniforms)

    def random(self):
        return self.uniforms.pop(0)


def bucket_uniforms(cdf, i):
    """The lowest and the highest uniform that draw index i: bisect_left
    gives i for u in (cdf[i - 1], cdf[i]]."""
    low = 0.0 if i == 0 else math.nextafter(cdf[i - 1], 1.0)
    return low, min(cdf[i], math.nextafter(1.0, 0.0))


def test_the_cost_table_equals_the_public_formulas(catalog, graph):
    cdf = catalog._pl_cdf
    assert len(cdf) == catalog.cost_params.powerlaw_max
    for action in catalog.actions:
        rows = catalog.costs[action.id]
        assert len(rows) == graph.goal_tactic + 1
        for depth, row in enumerate(rows):
            assert len(row) == len(cdf)
            for i, entry in enumerate(row):
                for u in bucket_uniforms(cdf, i):
                    stub = FixedUniform(u)
                    want = action_cost(catalog, action, sample_interruptions(
                        catalog, action, depth, stub))
                    assert type(entry) is float and entry == want, (action.id, depth, i)
                    # the inactive action draws nothing, any other one uniform
                    assert stub.uniforms == ([u] if action.kind == INACTIVE else [])


def test_the_largest_uniform_draws_powerlaw_max(catalog):
    # the CDF's float sum ends below 1 - 2**-53, which drew k = powerlaw_max + 1
    top = math.nextafter(1.0, 0.0)
    assert power_law_draw(catalog, FixedUniform(top)) == len(catalog._pl_cdf) - 1
    action = next(a for a in catalog.actions if a.fp_scale == 1.0)
    assert sample_interruptions(catalog, action, 0, FixedUniform(top)) == \
        catalog.cost_params.powerlaw_max


def test_actions_of_one_kind_and_scale_share_their_rows(catalog):
    by_scale = {}
    for a in catalog.actions[1:]:
        rows = by_scale.setdefault(a.fp_scale, catalog.costs[a.id])
        assert catalog.costs[a.id] is rows
    floats = {id(c) for rows in catalog.costs[1:] for row in rows for c in row}
    assert len(floats) == len({c for rows in catalog.costs[1:]
                               for row in rows for c in row})


@pytest.mark.parametrize(
    "mutate, action_id",
    [
        # every proactive fp_scale 1e308: k * fp_scale overflows for k >= 2
        (lambda d: [a.update(fp_scale=1e308) for a in d["actions"]
                    if a["kind"] == PROACTIVE], 2),
        # finite counts whose cost overflows, first for the reactive action
        (lambda d: d["cost"].update(unit_interruption_cost=1e308), 1),
        # inf * 0.0 attenuation is NaN
        (lambda d: (d["actions"][1].update(fp_scale=1e308),
                    d["cost"].update(depth_attenuation=1e-200)), 1),
    ],
    ids=["fp_scale-1e308", "unit_interruption_cost-1e308", "nan-count"],
)
def test_a_catalog_whose_cost_overflows_is_refused(mutate, action_id, catalog_doc,
                                                   graph, tmp_path):
    mutate(catalog_doc)
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(catalog_doc))
    with pytest.raises(CatalogError,
                       match=f"^{p}: action {action_id}: collateral cost") as err:
        load_catalog(p, graph)
    assert "\n" not in str(err.value)


def test_cost_params_validation():
    with pytest.raises(CatalogError):
        CostParams(impl_cost=-1)
    with pytest.raises(CatalogError):
        CostParams(powerlaw_exponent=1.0)
    with pytest.raises(CatalogError):
        CostParams(depth_attenuation=0.0)
    assert CostParams(impl_cost=1, unit_interruption_cost=0).impl_cost == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("powerlaw_max", 2.5),  # was a law on 1..3
        ("powerlaw_max", True),
        ("impl_cost", True),
        ("impl_cost", "0.2"),
        ("impl_cost", math.inf),
        ("unit_interruption_cost", math.inf),
        ("powerlaw_exponent", math.nan),
        ("powerlaw_exponent", math.inf),
    ],
)
def test_cost_params_must_have_their_types(field, value):
    with pytest.raises(CatalogError, match=field):
        CostParams(**{field: value})


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["actions"][0].update(kind="proactive"),  # no inactive
        lambda d: d["actions"][1].update(kind="proactive"),  # no reactive
        lambda d: d["actions"][2].update(block_prob=1.5),
        lambda d: d["actions"][2].update(covers=[999]),
        lambda d: d["actions"][0].update(fp_scale=1.0),
        lambda d: d.update(reactive_block_prob=2.0),
        lambda d: d["actions"][2].update(id=99),
    ],
)
def test_catalog_validation(mutate, catalog_doc, graph):
    mutate(catalog_doc)
    with pytest.raises(CatalogError):
        load_catalog(catalog_doc, graph)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["cost"].update(powerlaw_max=2.5),  # was a law on 1..3
        lambda d: d["cost"].update(powerlaw_max=True),  # was a law on 1..1
        lambda d: d["cost"].update(impl_cost=True),
        lambda d: d["actions"][2].update(block_prob="0.5"),
        lambda d: d["actions"][2].update(block_prob=True),
        lambda d: d["actions"][2].update(covers=["3"]),
        lambda d: d["actions"][2].update(fp_scale="0.5"),
        lambda d: d["actions"][2].update(id=2.0),
        lambda d: d["actions"][2].update(name=7),
        lambda d: d.update(reactive_block_prob="0.5"),
        # json reads 1e400 as inf
        lambda d: d["actions"][2].update(fp_scale=math.inf),
        lambda d: d["cost"].update(impl_cost=math.inf),
        lambda d: d["cost"].update(unit_interruption_cost=math.inf),
        lambda d: d["cost"].update(powerlaw_exponent=math.inf),
    ],
    ids=["powerlaw_max-float", "powerlaw_max-bool", "impl_cost-bool",
         "block_prob-string", "block_prob-bool", "covers-string",
         "fp_scale-string", "id-float", "name-int", "reactive_block_prob-string",
         "fp_scale-1e400", "impl_cost-1e400", "unit_interruption_cost-1e400",
         "powerlaw_exponent-1e400"],
)
def test_fields_must_have_their_json_type(mutate, catalog_doc, graph, tmp_path):
    mutate(catalog_doc)
    p = tmp_path / "catalog.json"
    # json.dumps writes inf as Infinity, which read_json already refuses
    p.write_text(json.dumps(catalog_doc).replace("Infinity", "1e400"))
    with pytest.raises(CatalogError, match=f"^{p}: ") as err:
        load_catalog(p, graph)
    assert "\n" not in str(err.value)


def test_uncovered_technique_rejected(catalog_doc, graph):
    victim = sorted(graph.techniques)[0]
    for a in catalog_doc["actions"]:
        if a["kind"] == PROACTIVE and victim in a["covers"]:
            a["covers"] = [t for t in a["covers"] if t != victim]
    with pytest.raises(CatalogError, match="without any proactive"):
        load_catalog(catalog_doc, graph)

"""Unit tests for the simctl command line interface and its exit codes."""

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberdefsim.agents.common import HyperParams
from cyberdefsim.cli import main
from cyberdefsim.harness import (
    default_catalog_path,
    default_graph_path,
    save_checkpoint,
)
from cyberdefsim.neural_net import (DivergenceError, LINEAR, init_mlp,
                                   net_to_dict)


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, **kw):
    doc = {
        "algorithm": "dqn",
        "profile": "Av1",
        "hyperparams": {"epochs": 1, "steps_per_epoch": 500,
                        "eps_decay_steps": 300},
        "seeds": [0],
        "output_dir": str(tmp_path / "run"),
        "batch_episodes": 20,
        "eval_episodes": 30,
    }
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_paths_command(runner):
    result = runner.invoke(main, ["paths"])
    assert result.exit_code == 0
    assert "504 paths" in result.output


def test_validate_command(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0
    assert "23 defense actions" in result.output


def test_validate_rejects_bad_graph(runner, tmp_path):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps({"tactics": [], "techniques": [], "edges": []}))
    result = runner.invoke(main, ["validate", "--graph", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_train_eval_cycle(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "metrics.csv" in result.output

    ckpt = tmp_path / "run" / "checkpoint-seed0.json"
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--config", str(config),
         "--episodes", "20", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "defense win ratio" in result.output
    assert out.exists()


def test_train_seed_override(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(main, ["train", "--config", str(config),
                                  "--seed", "7"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "run" / "checkpoint-seed7.json").exists()
    assert not (tmp_path / "run" / "checkpoint-seed0.json").exists()


def test_train_bad_config_exit_code(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"algorithm": "alphago"}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 1
    assert "error:" in result.output

    config.write_text(json.dumps({"unknown_field": True}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 1


def assert_one_error_line(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not an uncaught error
    assert result.output.startswith("error:")
    assert len(result.output.splitlines()) == 1


# the short recipe, so that a document the parser accepts trains briefly
SHORT = {"epochs": 1, "steps_per_epoch": 500}


@pytest.mark.parametrize("doc", [
    {"hyperparams": {"epochz": 1}},
    {"hyperparams": {"epochs": "many"}},
    {"profile": {"name": "x", "rho": 0.5}},
    {"profile": "Av9"},
    {"hyperparams": {"epochs": 2.5}},
    {"hyperparams": {"target_sync": 0}},
    {"hyperparams": {"replay_capacity": 0}},
    {"hyperparams": {"replay_capacity": 10}},  # below batch_size 48
    {"impact": "x"},
    {"horizon": "x"},
    {"train_fraction": "x"},
    {"hyperparams": {"grad_clip": "x"}},
    {"algorithm": "a2c", "hyperparams": {"entropy_coef": "x"}},
    {"algorithm": "ppo", "hyperparams": {"ppo_clip": "x"}},
    {"horizon": 2.5, "hyperparams": SHORT},
    {"horizon": True, "hyperparams": SHORT},
    {"impact": True, "hyperparams": SHORT},
    {"impact": float("nan"), "hyperparams": SHORT},
    {"literal_iv": "x", "hyperparams": SHORT},
    {"hyperparams": {**SHORT, "eps_final": float("nan")}},
    {"hyperparams": {**SHORT, "alpha": float("nan")}},
    {"hyperparams": {**SHORT, "double_dqn": "false"}},
    {"seeds": [1, 1], "hyperparams": SHORT},
    {"hyperparams": {**SHORT, "eps_initial": 2.0}},
    {"hyperparams": {**SHORT, "eps_initial": -0.1, "eps_final": -0.5}},
    {"algorithm": "ppo", "hyperparams": {**SHORT, "ppo_clip": -0.3}},
    {"algorithm": "ppo", "hyperparams": {**SHORT, "ppo_clip": 0.0}},
])
def test_train_rejects_bad_config_in_one_line(runner, tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "run"), **doc}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert_one_error_line(result)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("doc,prefix", [
    ({"profile": {"name": "x", "rho": True, "tau": 4, "obs_accuracy": 0.5}},
     "bad profile: rho"),
    ({"profile": {"name": "x", "rho": 0.5, "tau": 4, "obs_accuracy": True}},
     "bad profile: obs_accuracy"),
    ({"profile": {"name": "x", "rho": "x", "tau": 4, "obs_accuracy": 0.5}},
     "bad profile: rho"),
    ({"split_seed": True}, "bad split: "),
    ({"split_seed": -1}, "bad split: "),
    ({"split_seed": 1.0}, "bad split: "),
])
def test_train_rejects_a_bool_or_non_integer_setting(runner, tmp_path, doc,
                                                     prefix):
    """true is not 1: a bool profile number or split seed ends in one line."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "run"),
                                  "hyperparams": SHORT, **doc}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert_one_error_line(result)
    assert result.output.startswith(f"error: {prefix}")
    assert not (tmp_path / "run").exists()


def test_train_exits_2_when_the_critic_diverges(runner, tmp_path,
                                                before_apply_update):
    def diverge(net):
        if net.dims[-1] == 1:
            raise DivergenceError("non-finite gradient")

    before_apply_update(diverge)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"algorithm": "a2c", "hyperparams": SHORT,
                                  "output_dir": str(tmp_path / "run")}))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert result.exit_code == 2
    assert result.output == "error: training diverged: non-finite gradient\n"


def write_checkpoint(path):
    """A DQN checkpoint with a 17-4-23 net: evaluable without training."""
    save_checkpoint(path, "dqn", HyperParams(), 0,
                    {"qnet": net_to_dict(init_mlp([17, 4, 23], LINEAR, 0))})
    return json.loads(path.read_text())


def with_qnet_weights(doc, mutate):
    """doc with its qnet's first weight array replaced by mutate(array)."""
    qnet = doc["networks"]["qnet"]
    weights = [mutate(qnet["weights"][0])] + qnet["weights"][1:]
    return {**doc, "networks": {"qnet": {**qnet, "weights": weights}}}


def with_qnet_dims(doc, dims):
    """doc with its qnet replaced by a fresh net of layer dims `dims`."""
    return {**doc, "networks": {"qnet": net_to_dict(init_mlp(dims, LINEAR, 0))}}


def with_qnet_dims_field(doc, dims):
    """doc with a fresh net of layer dims int(d) for d in `dims`, its
    layer_dims field written as `dims`."""
    doc = with_qnet_dims(doc, [int(d) for d in dims])
    doc["networks"]["qnet"]["layer_dims"] = dims
    return doc


@pytest.mark.parametrize("mutate", [
    lambda doc: [],
    lambda doc: {**doc, "networks": []},
    lambda doc: {k: v for k, v in doc.items() if k != "networks"},
    lambda doc: {**doc, "networks": {"qnet": {
        k: v for k, v in doc["networks"]["qnet"].items() if k != "layer_dims"}}},
    lambda doc: with_qnet_weights(doc, lambda text: text[:-1]),
    lambda doc: with_qnet_weights(doc, lambda text: [0.0] * 68),
    lambda doc: with_qnet_weights(doc, lambda text: text[:16]),
    lambda doc: with_qnet_dims(doc, [15, 4, 23]),
    lambda doc: with_qnet_dims(doc, [19, 4, 23]),
    lambda doc: with_qnet_dims(doc, [17, 4, 5]),
    lambda doc: with_qnet_dims_field(doc, [17.7, 4, 23]),
    lambda doc: with_qnet_dims_field(doc, ["17", 4, 23]),
    lambda doc: with_qnet_dims_field(doc, [17, 4.0, 23]),
    lambda doc: with_qnet_dims_field(doc, [17, True, 23]),
])
def test_eval_bad_checkpoint_names_the_file(runner, tmp_path, mutate):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(mutate(write_checkpoint(ckpt))))
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--config",
                                  str(write_config(tmp_path)), "--episodes", "3"])
    assert_one_error_line(result)
    assert str(ckpt) in result.output


@pytest.mark.parametrize("episodes", ["-1", "0"])
def test_eval_rejects_non_positive_episodes(runner, tmp_path, episodes):
    ckpt = tmp_path / "ckpt.json"
    write_checkpoint(ckpt)
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--config",
                                  str(write_config(tmp_path)),
                                  "--episodes", episodes])
    assert_one_error_line(result)
    assert "--episodes" in result.output


def test_eval_empty_test_split_fails_in_one_line(runner, tmp_path):
    ckpt = tmp_path / "ckpt.json"
    write_checkpoint(ckpt)
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--config",
                                  str(write_config(tmp_path, train_fraction=0.9995))])
    assert_one_error_line(result)
    assert "empty test split" in result.output


def test_validate_bad_catalog_names_the_file(runner, tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text("[]")
    result = runner.invoke(main, ["validate", "--catalog", str(catalog)])
    assert_one_error_line(result)
    assert str(catalog) in result.output


def test_validate_refuses_a_catalog_number_of_the_wrong_type(runner, tmp_path):
    # powerlaw_max 2.5 was read as an interruption law on 1..3
    doc = json.loads(default_catalog_path().read_text())
    doc["cost"]["powerlaw_max"] = 2.5
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", "--catalog", str(catalog)])
    assert_one_error_line(result)
    assert str(catalog) in result.output and "powerlaw_max" in result.output


def test_validate_refuses_a_catalog_number_json_reads_as_inf(runner, tmp_path):
    # an fp_scale of 1e400 validated, then train died in sample_interruptions
    doc = json.loads(default_catalog_path().read_text())
    doc["actions"][2]["fp_scale"] = float("inf")
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    result = runner.invoke(main, ["validate", "--catalog", str(catalog)])
    assert_one_error_line(result)
    assert str(catalog) in result.output and "fp_scale" in result.output


def test_a_catalog_whose_cost_overflows_fails_validate_and_train(runner, tmp_path):
    # every proactive fp_scale at 1e308 validated, then train died in
    # sample_interruptions with an OverflowError traceback
    doc = json.loads(default_catalog_path().read_text())
    for action in doc["actions"]:
        if action["kind"] == "proactive":
            action["fp_scale"] = 1e308
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    config = write_config(tmp_path, catalog=str(catalog))
    for args in (["validate", "--catalog", str(catalog)],
                 ["train", "--config", str(config)]):
        result = runner.invoke(main, args)
        assert_one_error_line(result)
        assert str(catalog) in result.output and "action 2" in result.output


def test_validate_bad_graph_names_the_file(runner, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text("{")
    result = runner.invoke(main, ["validate", "--graph", str(graph)])
    assert_one_error_line(result)
    assert str(graph) in result.output


def test_train_into_a_file_names_it(runner, tmp_path):
    blocker = tmp_path / "afile"
    blocker.touch()
    config = write_config(tmp_path, output_dir=str(blocker))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert_one_error_line(result)
    assert str(blocker) in result.output


def test_train_graph_directory_names_it(runner, tmp_path):
    graph = tmp_path / "graphdir"
    graph.mkdir()
    config = write_config(tmp_path, graph=str(graph))
    result = runner.invoke(main, ["train", "--config", str(config)])
    assert_one_error_line(result)
    assert str(graph) in result.output


def test_eval_unwritable_out_names_it(runner, tmp_path):
    ckpt = tmp_path / "ckpt.json"
    write_checkpoint(ckpt)
    out = tmp_path / "nodir" / "x.csv"
    result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--config",
                                  str(write_config(tmp_path)), "--episodes", "3",
                                  "--out", str(out)])
    assert_one_error_line(result)
    assert str(out) in result.output


def test_sweep_under_a_file_names_it(runner, tmp_path):
    blocker = tmp_path / "afile"
    blocker.touch()
    root = blocker / "sweep"
    config = write_config(tmp_path, output_dir=str(root))
    result = runner.invoke(main, ["sweep", "--config", str(config),
                                  "--axis", "gamma=0.7,0.9"])
    assert_one_error_line(result)
    assert str(root) in result.output


def json_paths(doc, path=()):
    """The path to every value in doc; of a list, only its first and last items
    (the rest have the same shape), so long weight lists do not crowd out the
    other keys."""
    yield path
    if isinstance(doc, dict):
        keys = list(doc)
    else:
        keys = sorted({0, len(doc) - 1}) if isinstance(doc, list) and doc else []
    for key in keys:
        yield from json_paths(doc[key], path + (key,))


DELETE = object()


def replaced(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted from its parent."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated(data, doc):
    """doc with a drawn value at one drawn path, or that path deleted."""
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(st.sampled_from(
        [None, True, -1, 0, 2.5, float("inf"), float("nan"), "x", [], {}]
        + ([DELETE] if path else [])))
    return replaced(doc, path, value)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.sampled_from(["graph", "catalog", "config", "checkpoint"]),
       data=st.data())
def test_mutated_inputs_fail_in_one_line(tmp_path_factory, kind, data):
    root = tmp_path_factory.getbasetemp() / "mutated-inputs"
    root.mkdir(exist_ok=True)
    docs = {
        "graph": json.loads(default_graph_path().read_text()),
        "catalog": json.loads(default_catalog_path().read_text()),
        "config": {
            "algorithm": "dqn", "graph": None, "catalog": None,
            "profile": {"name": "P", "rho": 0.9, "tau": 5, "obs_accuracy": 0.7},
            "hyperparams": {"epochs": 1, "steps_per_epoch": 500},
            "seeds": [0], "train_fraction": 0.8, "split_seed": 0,
            "output_dir": str(root / "run"), "horizon": 64, "impact": 10.0,
            "literal_iv": False, "risk_mode": "residual",
            "eval_episodes": 30, "batch_episodes": 20,
        },
        "checkpoint": write_checkpoint(root / "checkpoint.json"),
    }
    docs[kind] = mutated(data, docs[kind])
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    files = {name: str(root / f"{name}.json") for name in docs}
    if kind in ("graph", "catalog"):
        commands = [["validate", f"--{kind}", files[kind]]]
    else:
        commands = [["eval", "--checkpoint", files["checkpoint"],
                     "--config", files["config"], "--episodes", "3"]]
    # train too, unless the mutation restored a long default recipe
    hp = docs["config"].get("hyperparams") \
        if isinstance(docs["config"], dict) else None
    if kind == "config" and isinstance(hp, dict) \
            and (hp.get("epochs"), hp.get("steps_per_epoch")) == (1, 500):
        commands.append(["train", "--config", files["config"]])
    runner = CliRunner()
    for args in commands:
        # a relative or default output_dir lands in a throwaway directory
        with runner.isolated_filesystem(temp_dir=root):
            result = runner.invoke(main, args)
        assert "Traceback" not in result.output
        if result.exit_code != 0:
            assert_one_error_line(result)


INF, NAN = float("inf"), float("nan")


# json.dumps writes these as NaN, Infinity and -Infinity, which are not JSON
# but which Python's json reads back as floats
@pytest.mark.parametrize("kind,path,value", [
    ("graph", ("techniques", 0, "id"), INF),
    ("graph", ("techniques", 0, "tactic"), -INF),
    ("catalog", ("actions", 1, "fp_scale"), INF),
    ("catalog", ("actions", 1, "fp_scale"), NAN),
    ("catalog", ("cost", "impl_cost"), NAN),
    ("catalog", ("cost", "powerlaw_exponent"), NAN),
    ("config", ("impact",), NAN),
    ("config", ("seeds", 0), INF),
    ("checkpoint", ("networks", "qnet", "layer_dims", 1), INF),
])
def test_non_finite_numbers_fail_naming_the_file(runner, tmp_path, kind, path,
                                                 value):
    docs = {
        "graph": json.loads(default_graph_path().read_text()),
        "catalog": json.loads(default_catalog_path().read_text()),
        "config": json.loads(write_config(tmp_path).read_text()),
        "checkpoint": write_checkpoint(tmp_path / "checkpoint.json"),
    }
    docs[kind] = replaced(docs[kind], path, value)
    files = {name: tmp_path / f"{name}.json" for name in docs}
    docs["config"]["catalog"] = str(files["catalog"])
    for name, doc in docs.items():
        files[name].write_text(json.dumps(doc))
    train = ["train", "--config", str(files["config"])]
    commands = {
        "graph": [["validate", "--graph", str(files["graph"])]],
        "catalog": [["validate", "--catalog", str(files["catalog"])], train],
        "config": [train],
        "checkpoint": [["eval", "--checkpoint", str(files["checkpoint"]),
                        "--config", str(files["config"]), "--episodes", "3"]],
    }[kind]
    for args in commands:
        result = runner.invoke(main, args)
        assert_one_error_line(result)
        assert str(files[kind]) in result.output


def test_eval_missing_checkpoint(runner, tmp_path):
    config = write_config(tmp_path)
    result = runner.invoke(
        main, ["eval", "--checkpoint", str(tmp_path / "nope.json"),
               "--config", str(config)],
    )
    assert result.exit_code == 1
    assert "does not exist" in result.output


def test_sweep_command(runner, tmp_path):
    config = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    result = runner.invoke(main, ["sweep", "--config", str(config),
                                  "--axis", "gamma=0.7,0.9"])
    assert result.exit_code == 0, result.output
    assert "winner: gamma=" in result.output
    assert (tmp_path / "sweep" / "sweep_summary.csv").exists()


def test_sweep_bad_axis(runner, tmp_path):
    config = write_config(tmp_path)
    for axis in ("gamma", "gamma=a,b", "tau=1,2", "gamma=0.7,0.70"):
        result = runner.invoke(main, ["sweep", "--config", str(config),
                                      "--axis", axis])
        assert result.exit_code == 1, axis

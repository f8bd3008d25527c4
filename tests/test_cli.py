import csv
import json
from pathlib import Path

import numpy as np
import pytest

from duolayer import SimConfig
from duolayer.cli import (
    EXIT_DIVERGED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOPOLOGY,
    GraphSpec,
    ScenarioError,
    build_problem,
    main,
    parse_scenario,
    random_composition,
    random_connected_graph,
    random_instance,
)


def identity_scenario(**overrides):
    data = {
        "scheme": "row",
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "b": [1.0, -2.0],
        "cluster_graph": {"nodes": 2, "edges": [[0, 1]]},
        "agent_graphs": [
            {"nodes": 2, "edges": [[0, 1]]},
            {"nodes": 2, "edges": [[0, 1]]},
        ],
        "layout": {"cluster_sizes": [1, 1], "agent_sizes": [[1, 1], [1, 1]]},
        "b_offsets": None,
        "sim": {"step_size": "auto", "max_time": 200.0, "stationarity_tol": 1e-11},
    }
    data.update(overrides)
    return data


def five_by_five_scenario():
    """Three clusters over a 5x5 system; the same size lists are a valid
    layout under either scheme, so the override flag can flip it."""
    rng = np.random.default_rng(77)
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    while np.linalg.svd(a, compute_uv=False)[-1] < 0.3:
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
    b = a @ rng.uniform(-1.0, 1.0, size=5)
    return {
        "scheme": "row",
        "A": a.tolist(),
        "b": b.tolist(),
        "cluster_graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
        "agent_graphs": [
            {"nodes": 3, "edges": [[0, 1], [1, 2]]},
            {"nodes": 2, "edges": [[0, 1]]},
            {"nodes": 2, "edges": [[0, 1]]},
        ],
        "layout": {"cluster_sizes": [2, 2, 1], "agent_sizes": [[2, 2, 1], [3, 2], [4, 1]]},
        "b_offsets": None,
        "sim": {"max_time": 8000.0, "stationarity_tol": 1e-10, "record_every": 5},
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_scenario_round_trip():
    data = identity_scenario()
    sc = parse_scenario(data)
    assert sc.scheme == "row"
    assert sc.a.tolist() == data["A"] and sc.b.tolist() == data["b"]
    assert sc.cluster_graph == GraphSpec(nodes=2, edges=((0, 1),))
    assert sc.agent_graphs == (GraphSpec(nodes=2, edges=((0, 1),)),) * 2
    assert sc.cluster_sizes == (1, 1) and sc.agent_sizes == ((1, 1), (1, 1))
    assert sc.b_offsets is None
    assert sc.sim == SimConfig(step_size=None, max_time=200.0, stationarity_tol=1e-11)


def test_scenario_round_trip_with_offsets():
    given = [[[0.5, 0.0], [0.5, 0.0]], [[0.0, -1.0], [0.0, -1.0]]]
    # row offsets are per cluster per agent; each must span the cluster rows
    sc = parse_scenario(identity_scenario(b_offsets=given))
    assert [[v.tolist() for v in row] for row in sc.b_offsets] == given
    given = [[1.0, -2.0], [0.0, 0.0]]
    sc = parse_scenario(identity_scenario(scheme="column", b_offsets=given))
    assert [v.tolist() for v in sc.b_offsets] == given


def test_parse_rejects_unknown_keys_with_location():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(identity_scenario(solver="qr"))
    assert "solver" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(identity_scenario(sim={"step": 1}), source="s")
    assert err.value.location == "s.sim"


def test_parse_rejects_shape_problems():
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(A=[[1.0, 0.0], [0.0]]))
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(b=[1.0]))
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(scheme="diagonal"))
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(A=[[True, False], [False, True]]))
    missing = identity_scenario()
    del missing["layout"]
    with pytest.raises(ScenarioError):
        parse_scenario(missing)


def test_parse_step_size_forms():
    assert parse_scenario(identity_scenario()).sim.step_size is None
    explicit = identity_scenario(
        sim={"step_size": 0.05, "max_time": 1.0}
    )
    assert parse_scenario(explicit).sim.step_size == 0.05
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(sim={"step_size": "fast"}))
    with pytest.raises(ScenarioError):
        parse_scenario(identity_scenario(sim={"max_time": -2.0}))


def test_build_problem_scheme_override():
    sc = parse_scenario(five_by_five_scenario())
    inst_row, part_row = build_problem(sc)
    assert part_row.scheme == "row"
    inst_col, part_col = build_problem(sc, "column")
    assert part_col.scheme == "column"
    assert part_col.cluster_cols == (2, 2, 1)


def test_run_identity_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, identity_scenario())
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] and summary["valid"]
    assert summary["residuals"]["overall"] < 1e-8
    assert max(summary["residuals"]["conservation"]) < 1e-8
    assert np.allclose(summary["solution"], [1.0, -2.0], atol=1e-6)
    assert (out / "trajectory.csv").is_file()


def test_run_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, identity_scenario(), name="tiny.json")
    assert main(["run", str(path)]) == EXIT_OK
    assert (tmp_path / "out" / "tiny" / "summary.json").is_file()


def test_run_both_schemes_via_override(tmp_path):
    path = write_scenario(tmp_path, five_by_five_scenario())
    for scheme in ("row", "column"):
        out = tmp_path / scheme
        code = main(["run", str(path), "--out", str(out), "--scheme", scheme])
        assert code == EXIT_OK, scheme
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scheme"] == scheme
        assert summary["residuals"]["overall"] < 1e-6
        assert summary["spectrum"]["passed"]


@pytest.mark.parametrize("scheme", ["row", "column"])
@pytest.mark.parametrize("name", ["three_cluster_5x5", "identity_pair"])
def test_fitted_slope_matches_predicted_slope(tmp_path, name, scheme):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    out = tmp_path / "artifacts"
    assert main(["run", str(scenario), "--out", str(out), "--scheme", scheme]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    predicted = summary["predicted_slope"]
    assert predicted < 0.0
    assert abs(summary["slope"] - predicted) < 0.02 * abs(predicted), summary["slope"]


@pytest.mark.parametrize("scheme, steps", [("row", 5288), ("column", 5466)])
def test_bundled_scenario_step_anchors(tmp_path, scheme, steps):
    # the benchmark pins these counts; a change to them is a change in results
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"
    out = tmp_path / "artifacts"
    assert main(["run", str(scenario), "--out", str(out), "--scheme", scheme]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "stationary"
    assert summary["steps"] == steps


def test_run_parse_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == EXIT_PARSE
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    assert main(["run", str(bad_json)]) == EXIT_PARSE
    assert "parse" in capsys.readouterr().err
    unknown = write_scenario(tmp_path, identity_scenario(extra=1), name="unknown.json")
    assert main(["run", str(unknown)]) == EXIT_PARSE


@pytest.mark.parametrize(
    "key, value",
    [
        ("rng_seed", 1.5),
        ("rng_seed", -1),
        ("rng_seed", True),
        ("record_every", 2.5),
        ("record_every", True),
        ("stationarity_tol", True),
        ("max_time", True),
        ("init_amplitude", False),
        ("init_amplitude", float("inf")),
        ("max_time", float("inf")),
        ("stationarity_tol", float("inf")),
        ("step_size", float("inf")),
    ],
)
def test_run_rejects_bad_sim_values(tmp_path, capsys, key, value):
    sim = {"max_time": 200.0, "init_mode": "random", key: value}
    path = write_scenario(tmp_path, identity_scenario(sim=sim))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {path}.sim: {key} ")
    assert not (tmp_path / "out").exists()


def test_run_topology_error_names_cluster(tmp_path, capsys):
    data = identity_scenario()
    data["agent_graphs"][1] = {"nodes": 2, "edges": []}
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path)]) == EXIT_TOPOLOGY
    err = capsys.readouterr().err
    assert "cluster 1" in err


def test_run_override_with_incompatible_layout(tmp_path, capsys):
    data = {
        "scheme": "row",
        "A": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "b": [1.0, 1.0, 2.0],
        "cluster_graph": {"nodes": 2, "edges": [[0, 1]]},
        "agent_graphs": [
            {"nodes": 2, "edges": [[0, 1]]},
            {"nodes": 1, "edges": []},
        ],
        "layout": {"cluster_sizes": [2, 1], "agent_sizes": [[1, 1], [2]]},
        "sim": {"max_time": 100.0},
    }
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--scheme", "column"]) == EXIT_TOPOLOGY
    assert "topology" in capsys.readouterr().err


def test_run_divergence(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = identity_scenario(sim={"step_size": 50.0, "max_time": 1e5})
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path)]) == EXIT_DIVERGED
    assert "divergence" in capsys.readouterr().err


def test_run_unconverged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = identity_scenario(sim={"step_size": 0.01, "max_time": 0.05})
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path)]) == EXIT_INVALID


def test_run_inconsistent_system(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = identity_scenario(
        A=[[1.0], [1.0]],
        b=[0.0, 1.0],
        layout={"cluster_sizes": [1, 1], "agent_sizes": [[1], [1]]},
        agent_graphs=[{"nodes": 1, "edges": []}, {"nodes": 1, "edges": []}],
        sim={"max_time": 2000.0, "stationarity_tol": 1e-9},
    )
    path = write_scenario(tmp_path, data)
    # conservation cannot be met, so the run finishes invalid
    assert main(["run", str(path)]) == EXIT_INVALID


def test_plot_writes_lnv(tmp_path):
    path = write_scenario(tmp_path, identity_scenario())
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["plot", str(out)]) == EXIT_OK
    with (out / "lnv.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"time", "ln_v", "fitted"}
    ln_v = np.array([float(r["ln_v"]) for r in rows])
    fitted = np.array([float(r["fitted"]) for r in rows])
    # converged run: the tail of ln V decreases
    assert ln_v[-1] < ln_v[0]
    assert np.all(np.isfinite(fitted))


def test_plot_missing_and_empty_artifacts(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "nowhere")]) == EXIT_PARSE
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    (run_dir / "trajectory.csv").write_text(
        "time,V,conservation_residual,consensus_residual,overall_residual\n"
    )
    (run_dir / "summary.json").write_text("{}")
    assert main(["plot", str(run_dir)]) == EXIT_PARSE
    assert not (run_dir / "lnv.csv").exists()


def test_zero_offset_run_stays_at_equilibrium(tmp_path):
    # b = 0 from a zeros start: already stationary, V identically zero
    data = identity_scenario(b=[0.0, 0.0])
    path = write_scenario(tmp_path, data)
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["V"]) <= 1e-12 for r in rows)
    # no positive V at all: plot refuses and writes nothing
    assert main(["plot", str(out)]) == EXIT_PARSE
    assert not (out / "lnv.csv").exists()


def test_verify_single_trial_passes(capsys):
    assert main(["verify", "--trials", "1", "--seed", "0"]) == EXIT_OK
    first = capsys.readouterr().out
    assert "result: PASS" in first
    assert main(["verify", "--trials", "1", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_random_composition_properties():
    rng = np.random.default_rng(1)
    for total in (1, 3, 7):
        for parts in range(1, total + 1):
            out = random_composition(rng, total, parts)
            assert len(out) == parts
            assert sum(out) == total
            assert min(out) >= 1
    with pytest.raises(ValueError):
        random_composition(rng, 3, 4)


def test_random_connected_graph_tree_edge_count():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 6, extra_edge_prob=0.0)
    assert g.node_count == 6
    assert len(g.edges) == 5


def test_random_instance_consistency():
    rng = np.random.default_rng(3)
    for scheme in ("row", "column"):
        inst, part = random_instance(rng, scheme, 6, min_sigma=0.2)
        a_back, b_back = part.reassemble()
        assert np.array_equal(a_back, inst.a)
        assert np.max(np.abs(b_back - inst.b)) < 1e-12
        # consistent by construction
        x_star = np.linalg.lstsq(inst.a, inst.b, rcond=None)[0]
        assert np.linalg.norm(inst.a @ x_star - inst.b) < 1e-9
        assert np.linalg.svd(inst.a, compute_uv=False)[-1] >= 0.2

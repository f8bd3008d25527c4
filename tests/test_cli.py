import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from duolayer import CompactSystem, LayoutMismatchError, Lift, SimConfig, StructureError, cli, integrate
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
    write_csv,
)
from duolayer.instances import random_composition, random_connected_graph, random_instance


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


BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"


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


GOOD_NUMBERS = [
    [[1, 2.5], [3, 4]],
    [[-0.0, 1e308], [5e-324, -1.5]],
    [[2**70, 0]],
    [[np.float64(1.0), np.int64(2)]],  # numpy scalars pass the per-entry checks
]
BAD_GRIDS = [
    ([[1, True], [3, "x"]], "A[0][1]: expected a finite number"),
    ([[1, 2], [float("nan"), 10**400]], "A[1][0]: expected a finite number"),
    ([[1, 2], [3, 10**400]], "A[1][1]: expected a finite number"),
    ([[1, float("-inf")]], "A[0][1]: expected a finite number"),
    ([[1, None]], "A[0][1]: expected a finite number"),
    ([[1, 2], [3]], "A: rows have uneven lengths"),
    ([[1, 2], [3, "x", 5]], "A[1][1]: expected a finite number"),
    ([[1, 2], []], "A[1]: expected a non-empty row"),
    ([[1, 2], 3], "A[1]: expected a non-empty row"),
    ([], "A: expected a non-empty grid"),
    ("x", "A: expected a non-empty grid"),
]
BAD_LISTS = [
    ([1, False], "b[1]: expected a finite number"),
    ([1, [2]], "b[1]: expected a finite number"),
    ([float("inf"), "x"], "b[0]: expected a finite number"),
    ([1, 10**400], "b[1]: expected a finite number"),
    ([], "b: expected a non-empty list"),
]


def test_number_parsing_keeps_the_per_entry_results():
    # the one-pass parse returns np.array(value, dtype=float) bit for bit,
    # and a rejected grid or list names its first bad entry
    for value in GOOD_NUMBERS:
        for parse, given in ((cli._number_grid, value), (cli._number_list, value[0])):
            parsed, reference = parse(given, "v"), np.array(given, dtype=float)
            assert parsed.dtype == float and np.array_equal(parsed.view(np.int64), reference.view(np.int64))
    for parse, location, cases in ((cli._number_grid, "A", BAD_GRIDS), (cli._number_list, "b", BAD_LISTS)):
        for value, message in cases:
            with pytest.raises(ScenarioError) as err:
                parse(value, location)
            assert str(err.value) == message


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


@pytest.mark.parametrize("scheme", ["row", "column"])
@pytest.mark.parametrize("name", ["three_cluster_5x5", "identity_pair"])
def test_summary_residuals_are_the_last_sample(tmp_path, name, scheme):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    sc = parse_scenario(json.loads(scenario.read_text()), str(scenario))
    inst, part = build_problem(sc, scheme)
    result = integrate(part, inst.topology, sc.sim)
    cli.write_run_artifacts(tmp_path, part, inst.topology, result)
    residuals = json.loads((tmp_path / "summary.json").read_text())["residuals"]
    last = result.trajectory.samples[-1]
    assert last["time"] == result.final_time
    assert residuals["conservation"] == last["conservation"].tolist()
    assert residuals["consensus"] == last["consensus"].tolist()
    assert residuals["overall"] == last["overall"]
    assert residuals["max_conservation"] == np.max(last["conservation"], initial=0.0)
    assert residuals["max_consensus"] == np.max(last["consensus"], initial=0.0)
    with (tmp_path / "trajectory.csv").open() as fh:
        row = list(csv.DictReader(fh))[-1]
    assert row["overall_residual"] == repr(residuals["overall"])
    assert row["conservation_residual"] == repr(residuals["max_conservation"])
    assert row["consensus_residual"] == repr(residuals["max_consensus"])


@pytest.mark.parametrize(
    "record_every, stride", [(2, 2), (5, 5), (6, 3), (7, None), (10, 5)], ids=["2", "5", "6", "7", "10"]
)
def test_summary_reports_the_stride_phase(tmp_path, record_every, stride):
    # strides are the largest divisor of record_every up to STRIDE_MAX steps
    # long, and a record_every with no divisor from 2 to STRIDE_MAX steps
    # singly
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"
    data = json.loads(scenario.read_text())
    data["sim"]["record_every"] = record_every
    sc = parse_scenario(data)
    inst, part = build_problem(sc)
    result = integrate(part, inst.topology, sc.sim)
    summary = cli.write_run_artifacts(tmp_path, part, inst.topology, result)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["stride_steps"] == summary["stride_steps"] == result.stride_steps
    assert written["steps"] == 5288
    if stride is None:
        assert result.stride_steps == 0
    else:
        assert 0 < result.stride_steps < result.steps and result.stride_steps % stride == 0
    # stride ends between sample steps are not recorded
    times = result.trajectory.samples["time"]
    assert np.array_equal(times[:-1], np.arange(len(times) - 1) * record_every * result.step_size)


@pytest.mark.parametrize("scheme, steps", [("row", 5288), ("column", 5466)])
def test_bundled_scenario_step_anchors(tmp_path, scheme, steps):
    # the benchmark pins these counts; a change to them is a change in results
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"
    out = tmp_path / "artifacts"
    assert main(["run", str(scenario), "--out", str(out), "--scheme", scheme]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stop_reason"] == "stationary"
    assert summary["steps"] == steps


@pytest.mark.parametrize("name", ["identity_pair", "three_cluster_5x5"])
def test_benchmark_scenario_copies_match(name):
    # the benchmark pins the step anchors on its own copies of the bundled
    # scenarios, so a drift between the two would go unseen
    root = Path(__file__).resolve().parent.parent
    bundled = (root / "scenarios" / f"{name}.json").read_bytes()
    assert (root / "perfbench" / "scenarios" / f"{name}.json").read_bytes() == bundled


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
        pytest.param("step_size", 10**400, id="step_size-int-overflow"),
        pytest.param("max_time", 10**400, id="max_time-int-overflow"),
        pytest.param("stationarity_tol", 10**400, id="stationarity_tol-int-overflow"),
        pytest.param("init_amplitude", 10**400, id="init_amplitude-int-overflow"),
    ],
)
def test_run_rejects_bad_sim_values(tmp_path, capsys, key, value):
    sim = {"max_time": 200.0, "init_mode": "random", key: value}
    path = write_scenario(tmp_path, identity_scenario(sim=sim))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {path}.sim: {key} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "token",
    ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "int-overflow"],
)
@pytest.mark.parametrize("location", ["A[0][1]", "b[1]", "b_offsets[0][1][0]"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, token, location):
    data = identity_scenario(b_offsets=[[[0.5], [0.5]], [[-1.0], [-1.0]]])
    key, *indices = re.findall(r"\w+", location)
    cells = data[key]
    for k in indices[:-1]:
        cells = cells[int(k)]
    # json.dumps cannot write 1e999 or a bare NaN, so a placeholder is swapped in
    cells[int(indices[-1])] = "@"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data).replace('"@"', token))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: parse: {path}.{location}: expected a finite number\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scheme, override, offsets",
    [
        ("row", "column", [[[0.5], [0.5]], [[-1.0], [-1.0]]]),
        ("column", "row", [[1.0, -2.0], [0.0, 0.0]]),
    ],
)
def test_override_rejects_offsets_of_the_other_scheme(tmp_path, capsys, scheme, override, offsets):
    data = identity_scenario(scheme=scheme, b_offsets=offsets)
    assert build_problem(parse_scenario(data), scheme)[1].scheme == scheme
    with pytest.raises(LayoutMismatchError) as err:
        build_problem(parse_scenario(data), override)
    message = str(err.value)
    assert "b_offsets" in message
    assert f"{scheme} scheme" in message and f"{override} scheme" in message
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--scheme", override]) == EXIT_TOPOLOGY
    assert capsys.readouterr().err == f"error: topology: {message}\n"


@pytest.mark.parametrize(
    "graph", ["cluster_graph", "agent_graphs[1]", "agent_graphs[2]"]
)
def test_node_counts_checked_before_graphs_are_built(tmp_path, monkeypatch, capsys, graph):
    def no_build(*args):
        raise AssertionError("build_graph ran before the node counts were checked")

    monkeypatch.setattr(cli, "build_graph", no_build)
    data = identity_scenario()
    huge = {"nodes": 1_000_000_000, "edges": []}
    if graph == "cluster_graph":
        data["cluster_graph"] = huge
    elif graph == "agent_graphs[1]":
        data["agent_graphs"][1] = huge
    else:
        data["agent_graphs"].append(huge)
    path = write_scenario(tmp_path, data)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_TOPOLOGY
    assert capsys.readouterr().err.startswith("error: topology: ")
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


def test_homogeneous_run_from_a_random_start_is_valid(tmp_path):
    # b = 0: the run converges to x = 0, with every residual under
    # VALIDITY_TOL although x itself shrinks with them
    sim = {"step_size": "auto", "max_time": 200.0, "stationarity_tol": 1e-11}
    sim.update(init_mode="random", rng_seed=3)
    data = identity_scenario(b=[0.0, 0.0], sim=sim)
    out = tmp_path / "run"
    assert main(["run", str(write_scenario(tmp_path, data)), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] and summary["valid"]
    assert 0.0 < np.max(np.abs(summary["solution"])) < 1e-6


def test_write_csv_values_read_back_bit_for_bit(tmp_path):
    values = [
        -0.0, 0.0, 1e16, 1e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1e300, 1e-300, 1e22, 123456789.125, 0.1, float("nan"), float("inf"), -float("inf"),
    ]
    columns = tuple(np.array(values[i:] + values[:i]) for i in range(3))
    path = tmp_path / "values.csv"
    write_csv(path, ("a", "b", "c"), columns)
    assert path.read_bytes().startswith(b"a,b,c\r\n-0.0,0.0,1e+16\r\n")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "c"]
    read = np.array([[float(v) for v in row] for row in rows[1:]])
    assert read.shape == (len(values), 3)
    written = np.column_stack(columns)
    assert np.array_equal(read.view(np.int64), written.view(np.int64))


@pytest.mark.parametrize("count", [0, 1, 5])
def test_write_csv_bytes_match_csv_writer(tmp_path, count):
    # the joined lines are csv.writer's bytes on signed zeros, subnormals,
    # the largest floats, whole numbers and the non-finite values
    values = [
        -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1.7976931348623157e308,
        1.0, -3.0, 1e16, 2.0**53, 123456789.0, 0.1, float("nan"), float("inf"), -float("inf"),
    ]
    columns = tuple(np.array((values[i:] + values[:i]) * count) for i in range(4))
    path = tmp_path / "values.csv"
    write_csv(path, ("time", "V", "a", "b"), columns)
    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "V", "a", "b"))
        for row in zip(*(col.tolist() for col in columns)):
            writer.writerow([repr(value) for value in row])
    assert path.read_bytes() == reference.read_bytes()


def test_run_and_verify_never_build_the_dense_drift(tmp_path, monkeypatch):
    # nor a dense P or D: the damping factors stay lifts
    def refused(obj):
        raise AssertionError(f"a dense {type(obj).__name__} was built")

    monkeypatch.setattr(CompactSystem, "drift_matrix", property(refused))
    monkeypatch.setattr(Lift, "matrix", refused)
    assert main(["run", str(BUNDLED), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert main(["verify", "--trials", "1", "--seed", "7"]) == EXIT_OK


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


def test_run_structure_failure_exits_invalid(tmp_path, monkeypatch, capsys):
    def failing_check(cs):
        raise StructureError("drift matrix fails the saddle structure check P positive")

    monkeypatch.setattr(cli, "check_drift_spectrum", failing_check)
    path = write_scenario(tmp_path, identity_scenario())
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: structure: drift matrix fails")
    assert not (tmp_path / "run").exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    # an --out that is a file, or lies under one, and an lnv.csv that is a
    # directory: one "error: output:" line and exit 2, not a traceback
    path = write_scenario(tmp_path, identity_scenario())
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "run"):
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: output: ") and err.count("\n") == 1, err
    run_dir = tmp_path / "run"
    assert main(["run", str(path), "--out", str(run_dir)]) == EXIT_OK
    (run_dir / "lnv.csv").mkdir()
    capsys.readouterr()
    assert main(["plot", str(run_dir)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: output: ") and err.count("\n") == 1, err


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


def test_plot_fit_matches_summary_slope(tmp_path):
    # plot and summary.json fit the same ln V window
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"
    out = tmp_path / "run"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert main(["plot", str(out)]) == EXIT_OK
    with (out / "lnv.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["time"]) for r in rows])
    fitted = np.array([float(r["fitted"]) for r in rows])
    slope = (fitted[-1] - fitted[0]) / (t[-1] - t[0])
    want = json.loads((out / "summary.json").read_text())["slope"]
    assert abs(slope - want) <= 1e-9 * abs(want), (slope, want)


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
    capsys.readouterr()
    # malformed samples: a non-numeric V, no time column, a short row
    for text, problem in (
        ("time,V\n0.0,1.0\n0.1,abc\n", "could not convert string to float: 'abc'"),
        ("t,V\n0.0,1.0\n", "no column 'time'"),
        ("time,V\n0.0,1.0\n0.1\n", "could not convert string to float: ''"),
    ):
        (run_dir / "trajectory.csv").write_text(text)
        assert main(["plot", str(run_dir)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: parse: {run_dir / 'trajectory.csv'}: {problem}\n"
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


@pytest.mark.parametrize("option", ["--trials", "--max-dim"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_non_positive_counts(option, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", option, value])
    assert info.value.code == 2
    assert f"argument {option}: must be >= 1, got {value}" in capsys.readouterr().err


def test_verify_rejects_a_negative_seed(capsys):
    # np.random.default_rng takes no negative seed: a usage error, not a
    # traceback with the verification-failure code
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", "-1"])
    assert info.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


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

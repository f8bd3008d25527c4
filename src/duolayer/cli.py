"""Command-line front end: scenario runs, randomized verification, plot data.

Exit codes: 0 success, 2 scenario parse error, 3 topology/layout error,
4 divergence, 5 inconsistent or unconverged run, or a drift matrix that
fails its structure check.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import flat_slices, reassembled_solution
from .graph import DisconnectedGraphError, Topology, build_graph
from .instances import random_instance
from .linalg import is_finite_number
from .partition import (
    Layout,
    LayoutMismatchError,
    ProblemInstance,
    TopologyMismatchError,
    partition_columns,
    partition_rows,
)
from .simulator import (
    InsufficientSamplesError,
    NonFiniteStateError,
    SimConfig,
    SimResult,
    fit_convergence_rate,
    fit_log_decay,
    integrate,
)
from .spectral import StructureError, assemble_compact, check_drift_spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOPOLOGY = 3
EXIT_DIVERGED = 4
EXIT_INVALID = 5

VALIDITY_TOL = 1e-6

_SIM_KEYS = {
    "step_size",
    "max_time",
    "stationarity_tol",
    "record_every",
    "rng_seed",
    "init_mode",
    "init_amplitude",
}
_TOP_KEYS = {"scheme", "A", "b", "cluster_graph", "agent_graphs", "layout", "b_offsets", "sim"}


class ScenarioError(ValueError):
    """Scenario file rejected; message carries the offending field."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class GraphSpec:
    nodes: int
    edges: tuple


@dataclass(eq=False, frozen=True)
class Scenario:
    scheme: str
    a: np.ndarray
    b: np.ndarray
    cluster_graph: GraphSpec
    agent_graphs: tuple
    cluster_sizes: tuple
    agent_sizes: tuple
    b_offsets: tuple | None
    sim: SimConfig


def _expect(cond: bool, location: str, message: str) -> None:
    if not cond:
        raise ScenarioError(location, message)


def _finite_floats(value, entries) -> np.ndarray | None:
    """np.array(value, dtype=float) in one pass when every entry is an int
    or a float (not a bool) and the array is finite; None otherwise, and
    then the per-entry checks name the first bad entry."""
    if not set(map(type, entries)) <= {int, float}:
        return None
    try:
        floats = np.array(value, dtype=float)
    except OverflowError:  # an int too large for a float
        return None
    return floats if np.isfinite(floats).all() else None


def _number_grid(value, location: str) -> np.ndarray:
    if isinstance(value, list) and value and all(
        isinstance(row, list) and row and len(row) == len(value[0]) for row in value
    ):
        grid = _finite_floats(value, itertools.chain.from_iterable(value))
        if grid is not None:
            return grid
    _expect(isinstance(value, list) and value, location, "expected a non-empty grid")
    widths = set()
    for r, row in enumerate(value):
        _expect(isinstance(row, list) and row, f"{location}[{r}]", "expected a non-empty row")
        widths.add(len(row))
        for c, entry in enumerate(row):
            _expect(is_finite_number(entry), f"{location}[{r}][{c}]", "expected a finite number")
    _expect(len(widths) == 1, location, "rows have uneven lengths")
    return np.array(value, dtype=float)


def _number_list(value, location: str) -> np.ndarray:
    if isinstance(value, list) and value:
        numbers = _finite_floats(value, value)
        if numbers is not None:
            return numbers
    _expect(isinstance(value, list) and value, location, "expected a non-empty list")
    for i, entry in enumerate(value):
        _expect(is_finite_number(entry), f"{location}[{i}]", "expected a finite number")
    return np.array(value, dtype=float)


def _int_list(value, location: str) -> tuple:
    _expect(isinstance(value, list) and value, location, "expected a non-empty list")
    for i, entry in enumerate(value):
        _expect(
            isinstance(entry, int) and not isinstance(entry, bool),
            f"{location}[{i}]",
            "expected an integer",
        )
    return tuple(value)


def _graph_spec(value, location: str) -> GraphSpec:
    _expect(isinstance(value, dict), location, "expected an object")
    unknown = set(value) - {"nodes", "edges"}
    _expect(not unknown, location, f"unknown keys {sorted(unknown)}")
    nodes = value.get("nodes")
    _expect(
        isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 1,
        f"{location}.nodes",
        "expected a positive integer",
    )
    edges = value.get("edges", [])
    _expect(isinstance(edges, list), f"{location}.edges", "expected a list")
    pairs = []
    for i, pair in enumerate(edges):
        _expect(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(p, int) and not isinstance(p, bool) for p in pair),
            f"{location}.edges[{i}]",
            "expected a pair of integers",
        )
        pairs.append((pair[0], pair[1]))
    return GraphSpec(nodes=nodes, edges=tuple(pairs))


def parse_scenario(data: dict, source: str = "scenario") -> Scenario:
    """Validate raw scenario JSON into a Scenario; graphs stay unbuilt."""
    _expect(isinstance(data, dict), source, "top level must be an object")
    unknown = set(data) - _TOP_KEYS
    _expect(not unknown, source, f"unknown keys {sorted(unknown)}")
    for key in ("scheme", "A", "b", "cluster_graph", "agent_graphs", "layout"):
        _expect(key in data, f"{source}.{key}", "missing required field")
    scheme = data["scheme"]
    _expect(scheme in ("row", "column"), f"{source}.scheme", "must be 'row' or 'column'")
    a = _number_grid(data["A"], f"{source}.A")
    b = _number_list(data["b"], f"{source}.b")
    _expect(
        b.shape[0] == a.shape[0],
        f"{source}.b",
        f"has {b.shape[0]} entries, A has {a.shape[0]} rows",
    )
    cluster_graph = _graph_spec(data["cluster_graph"], f"{source}.cluster_graph")
    _expect(
        isinstance(data["agent_graphs"], list) and data["agent_graphs"],
        f"{source}.agent_graphs",
        "expected a non-empty list",
    )
    agent_graphs = tuple(
        _graph_spec(g, f"{source}.agent_graphs[{i}]")
        for i, g in enumerate(data["agent_graphs"])
    )
    layout = data["layout"]
    _expect(isinstance(layout, dict), f"{source}.layout", "expected an object")
    unknown = set(layout) - {"cluster_sizes", "agent_sizes"}
    _expect(not unknown, f"{source}.layout", f"unknown keys {sorted(unknown)}")
    _expect("cluster_sizes" in layout, f"{source}.layout.cluster_sizes", "missing required field")
    _expect("agent_sizes" in layout, f"{source}.layout.agent_sizes", "missing required field")
    cluster_sizes = _int_list(layout["cluster_sizes"], f"{source}.layout.cluster_sizes")
    _expect(
        isinstance(layout["agent_sizes"], list) and layout["agent_sizes"],
        f"{source}.layout.agent_sizes",
        "expected a non-empty list",
    )
    agent_sizes = tuple(
        _int_list(row, f"{source}.layout.agent_sizes[{i}]")
        for i, row in enumerate(layout["agent_sizes"])
    )
    b_offsets = None
    if data.get("b_offsets") is not None:
        raw = data["b_offsets"]
        loc = f"{source}.b_offsets"
        _expect(isinstance(raw, list) and raw, loc, "expected a non-empty list or null")
        if scheme == "row":
            parsed = []
            for i, row in enumerate(raw):
                _expect(isinstance(row, list) and row, f"{loc}[{i}]", "expected a list")
                parsed.append(
                    tuple(_number_list(v, f"{loc}[{i}][{j}]") for j, v in enumerate(row))
                )
            b_offsets = tuple(parsed)
        else:
            b_offsets = tuple(_number_list(v, f"{loc}[{i}]") for i, v in enumerate(raw))
    sim_data = data.get("sim", {})
    _expect(isinstance(sim_data, dict), f"{source}.sim", "expected an object")
    unknown = set(sim_data) - _SIM_KEYS
    _expect(not unknown, f"{source}.sim", f"unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in sim_data.items():
        if key == "step_size":
            if value == "auto" or value is None:
                kwargs[key] = None
            else:
                _expect(
                    is_finite_number(value),
                    f"{source}.sim",
                    "step_size must be a finite number or 'auto'",
                )
                kwargs[key] = float(value)
        else:
            kwargs[key] = value
    try:
        sim = SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}.sim", str(exc)) from exc
    return Scenario(
        scheme=scheme,
        a=a,
        b=b,
        cluster_graph=cluster_graph,
        agent_graphs=agent_graphs,
        cluster_sizes=cluster_sizes,
        agent_sizes=agent_sizes,
        b_offsets=b_offsets,
        sim=sim,
    )


def _check_node_counts(sc: Scenario, layout: Layout) -> None:
    """TopologyMismatchError unless the graph specs' node counts fit the layout.

    Runs before any graph is built, because build_graph allocates per node.
    """
    clusters = len(layout.cluster_sizes)
    if sc.cluster_graph.nodes != clusters or len(sc.agent_graphs) != clusters:
        raise TopologyMismatchError(
            f"layout has {clusters} clusters, the cluster graph has "
            f"{sc.cluster_graph.nodes} nodes and there are {len(sc.agent_graphs)} agent graphs"
        )
    for i, (spec, sizes) in enumerate(zip(sc.agent_graphs, layout.agent_sizes)):
        if spec.nodes != len(sizes):
            raise TopologyMismatchError(
                f"cluster {i}: layout lists {len(sizes)} agents, "
                f"agent graph has {spec.nodes} nodes"
            )


def build_problem(sc: Scenario, scheme_override: str | None = None) -> tuple:
    """Build graphs and the partition; raises topology/layout errors."""
    scheme = scheme_override or sc.scheme
    if sc.b_offsets is not None and scheme != sc.scheme:
        # row offsets nest per cluster per agent, column ones per cluster
        raise LayoutMismatchError(
            f"b_offsets are written for the {sc.scheme} scheme and cannot be "
            f"used under the {scheme} scheme"
        )
    layout = Layout(scheme=scheme, cluster_sizes=sc.cluster_sizes, agent_sizes=sc.agent_sizes)
    _check_node_counts(sc, layout)
    try:
        cluster_graph = build_graph(sc.cluster_graph.nodes, sc.cluster_graph.edges)
    except DisconnectedGraphError as exc:
        raise DisconnectedGraphError(f"cluster graph: {exc}") from exc
    agent_graphs = []
    for i, spec in enumerate(sc.agent_graphs):
        try:
            agent_graphs.append(build_graph(spec.nodes, spec.edges))
        except DisconnectedGraphError as exc:
            raise DisconnectedGraphError(f"agent graph of cluster {i}: {exc}") from exc
    topo = Topology(cluster_graph=cluster_graph, agent_graphs=tuple(agent_graphs))
    inst = ProblemInstance(a=sc.a, b=sc.b, topology=topo, layout=layout)
    if scheme == "row":
        part = partition_rows(inst, b_offsets=sc.b_offsets)
    else:
        part = partition_columns(inst, b_offsets=sc.b_offsets)
    return inst, part


def residuals_valid(sample) -> bool:
    """A finished run's residuals are valid when each one clears VALIDITY_TOL.

    sample is one record of Trajectory.samples, in practice the last one,
    which integrate always takes at the final state.
    """
    return bool(
        np.max(sample["conservation"], initial=0.0) < VALIDITY_TOL
        and np.max(sample["consensus"], initial=0.0) < VALIDITY_TOL
        and sample["overall"] < VALIDITY_TOL
    )


def write_csv(path: Path, header: tuple, columns: tuple) -> None:
    """Write equal-length float columns to path as CSV, each value as its
    repr, so every value reads back bit for bit.

    Lines end in "\r\n" and no field is quoted, since no repr of a float
    holds a comma, a quote or a line break: the bytes are those
    csv.writer writes.  Lines are joined and written one at a time, so no
    string holds the whole file.
    """
    cells = [map(repr, col.tolist()) for col in columns]
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def write_run_artifacts(out_dir: Path, part, topo: Topology, result: SimResult) -> dict:
    """Write trajectory.csv and summary.json for a finished run.

    The spectral verdict comes first, so a drift matrix that fails its
    structure check raises StructureError before anything is written.
    summary.json's residuals are those of the last recorded sample, which
    integrate takes at the final state, so they equal the last row of
    trajectory.csv.
    """
    verdict = check_drift_spectrum(assemble_compact(part, topo))
    samples = result.trajectory.samples
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "trajectory.csv",
        ("time", "V", "conservation_residual", "consensus_residual", "overall_residual"),
        (
            samples["time"],
            samples["v"],
            np.max(samples["conservation"], axis=1, initial=0.0),
            np.max(samples["consensus"], axis=1, initial=0.0),
            samples["overall"],
        ),
    )
    final = samples[-1]
    converged = result.stop_reason == "stationary"
    try:
        slope, r_squared = fit_convergence_rate(result.trajectory)
    except InsufficientSamplesError:
        slope, r_squared = None, None
    # V decays like exp(-2 lambda_min t), lambda_min the slowest nonzero mode
    sp = verdict.spectrum
    nonzero = np.sort(np.abs(sp.eigenvalues))[sp.eigenvalues.size - sp.rank :]
    predicted_slope = -2.0 * float(nonzero[0]) if nonzero.size else None
    y = result.final_state
    x_slices, z_slices, _, _ = flat_slices(part)
    summary = {
        "scheme": part.scheme,
        "converged": converged,
        "valid": residuals_valid(final),
        "stop_reason": result.stop_reason,
        "step_size": result.step_size,
        "steps": result.steps,
        "stride_steps": result.stride_steps,
        "final_time": result.final_time,
        "residuals": {
            "conservation": final["conservation"].tolist(),
            "consensus": final["consensus"].tolist(),
            "overall": float(final["overall"]),
            "max_conservation": float(np.max(final["conservation"], initial=0.0)),
            "max_consensus": float(np.max(final["consensus"], initial=0.0)),
        },
        "solution": [float(v) for v in reassembled_solution(part, result.final_state)],
        "v_initial": float(samples["v"][0]),
        "v_final": float(samples["v"][-1]),
        "slope": slope,
        "predicted_slope": predicted_slope,
        "r_squared": r_squared,
        "spectrum": verdict.to_dict(),
        "final_state": {
            "x": [[y[sl].tolist() for sl in row] for row in x_slices],
            "z": [[y[sl].tolist() for sl in row] for row in z_slices],
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary) + "\n")
    return summary


def _parse_error(message: str) -> int:
    print(f"error: parse: {message}", file=sys.stderr)
    return EXIT_PARSE


def cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text()
    except OSError as exc:
        return _parse_error(f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return _parse_error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    try:
        sc = parse_scenario(data, str(path))
    except ScenarioError as exc:
        return _parse_error(str(exc))
    try:
        inst, part = build_problem(sc, args.scheme)
    except (DisconnectedGraphError, LayoutMismatchError, TopologyMismatchError, ValueError) as exc:
        print(f"error: topology: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    out_dir = Path(args.out) if args.out else Path("out") / path.stem
    try:
        result = integrate(part, inst.topology, sc.sim)
    except NonFiniteStateError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    try:
        summary = write_run_artifacts(out_dir, part, inst.topology, result)
    except StructureError as exc:
        print(f"error: structure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(
        f"{part.scheme} run: {result.steps} steps, stop={result.stop_reason}, "
        f"overall residual {summary['residuals']['overall']:.3e}, "
        f"artifacts in {out_dir}"
    )
    if not (summary["converged"] and summary["valid"]):
        print(
            "error: inconsistent-or-unconverged: residuals above "
            f"{VALIDITY_TOL:g} or stationarity not reached",
            file=sys.stderr,
        )
        return EXIT_INVALID
    return EXIT_OK


def cmd_verify(args) -> int:
    checks_total = 0
    checks_passed = 0
    per_scheme = {s: {"spectrum": 0, "convergence": 0} for s in ("row", "column")}
    for trial in range(args.trials):
        for scheme_idx, scheme in enumerate(("row", "column")):
            rng = np.random.default_rng([args.seed, trial, scheme_idx])
            # sigma floor keeps the slowest drift mode bounded away from
            # zero; without it convergence time is unbounded over draws
            inst, part = random_instance(rng, scheme, args.max_dim, min_sigma=0.3)
            cs = assemble_compact(part, inst.topology)
            verdict = check_drift_spectrum(cs)
            cfg = SimConfig(
                max_time=12000.0,
                stationarity_tol=1e-10,
                record_every=500,
                rng_seed=int(rng.integers(2**31)),
                init_mode="random",
            )
            result = integrate(part, inst.topology, cfg)
            final = result.trajectory.samples[-1]
            conv_ok = result.stop_reason == "stationary" and residuals_valid(final)
            checks_total += 2
            checks_passed += int(verdict.passed) + int(conv_ok)
            per_scheme[scheme]["spectrum"] += int(verdict.passed)
            per_scheme[scheme]["convergence"] += int(conv_ok)
            m, n = inst.a.shape
            print(
                f"trial {trial:03d} scheme={scheme:6s} m={m} n={n} "
                f"clusters={part.cluster_count} agents={sum(part.agent_counts)} "
                f"spectrum={'PASS' if verdict.passed else 'FAIL'} "
                f"convergence={'PASS' if conv_ok else 'FAIL'} "
                f"overall_residual={final['overall']:.3e}"
            )
    for scheme in ("row", "column"):
        print(
            f"{scheme}: spectrum {per_scheme[scheme]['spectrum']}/{args.trials} "
            f"convergence {per_scheme[scheme]['convergence']}/{args.trials}"
        )
    ok = checks_passed == checks_total
    print(f"result: {'PASS' if ok else 'FAIL'} ({checks_passed}/{checks_total} checks)")
    return EXIT_OK if ok else 1


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    traj_path = run_dir / "trajectory.csv"
    summary_path = run_dir / "summary.json"
    for p in (traj_path, summary_path):
        if not p.is_file():
            return _parse_error(f"missing run artifact {p}")
    with traj_path.open() as fh:
        # short rows read "" in their missing cells, which float() rejects
        rows = list(csv.DictReader(fh, restval=""))
    if not rows:
        return _parse_error(f"{traj_path} has no samples")
    try:
        times = np.array([float(r["time"]) for r in rows])
        v = np.array([float(r["V"]) for r in rows])
    except KeyError as exc:
        return _parse_error(f"{traj_path}: no column {exc}")
    except ValueError as exc:
        return _parse_error(f"{traj_path}: {exc}")
    keep = v > 0.0
    if not np.any(keep):
        return _parse_error(f"{traj_path} has no positive V samples")
    t_kept = times[keep]
    ln_v = np.log(v[keep])
    try:
        slope, intercept, _ = fit_log_decay(times, v)
        fitted = slope * t_kept + intercept
    except InsufficientSamplesError:
        fitted = np.full(t_kept.shape, np.nan)
    out_path = run_dir / "lnv.csv"
    try:
        write_csv(out_path, ("time", "ln_v", "fitted"), (t_kept, ln_v, fitted))
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {out_path}")
    return EXIT_OK


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """argparse type for --seed: np.random.default_rng takes integers >= 0."""
    return _int_at_least(text, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="duolayer",
        description="Distributed solution of A x = b on a cluster/agent network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="output directory (default out/<scenario-stem>)")
    p_run.add_argument(
        "--scheme",
        choices=("row", "column"),
        help="override the scenario's partition scheme",
    )
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="spectrum and convergence checks on random instances"
    )
    p_verify.add_argument("--trials", type=positive_int, default=10)
    p_verify.add_argument("--max-dim", type=positive_int, default=6, dest="max_dim")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="emit ln V plot data for a finished run")
    p_plot.add_argument("run_dir", help="directory written by the run command")
    p_plot.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

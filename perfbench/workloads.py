"""The two workloads: set-up, warm-up and one op per instance.

Every op calls the package only through its public functions, looked up on
the package modules at call time so that the traced run sees them wrapped.
An op returns an Outcome; it never raises.  An op *fails* when it raises,
stops on max_time, ends with any residual >= VALIDITY_TOL, or gets a
spectral verdict of FAIL.  An op is *wrong* when it reports success but its
result disagrees with what the generator knows (x_true, the pinned step
anchors); a wrong op makes the whole run incorrect.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import duolayer as dl
import duolayer.cli as cli

WORKLOADS = ("run-record", "certify")

# `duolayer run` on the bundled 5x5 scenario stops stationary after exactly
# this many RK4 steps; a change to them is a change in results.
STEP_ANCHORS = {("three_cluster_5x5", "row"): 5288, ("three_cluster_5x5", "column"): 5466}
SOLUTION_RTOL = 1e-6


@dataclass
class Outcome:
    line: str  # deterministic one-line report of the op's result
    failed: bool = False
    wrong: str | None = None
    rk4_steps: int = 0
    record_samples: int = 0
    verdict_fail: int = 0
    artifact_bytes: int = 0


@dataclass
class Op:
    name: str
    run: object  # callable () -> Outcome


def build(inst: dict) -> tuple:
    """Graphs, topology and partition of one generated instance."""
    topo = dl.Topology(
        cluster_graph=dl.build_graph(inst["cluster_graph"]["nodes"], inst["cluster_graph"]["edges"]),
        agent_graphs=tuple(dl.build_graph(g["nodes"], g["edges"]) for g in inst["agent_graphs"]),
    )
    layout = dl.Layout(
        scheme=inst["scheme"], cluster_sizes=inst["cluster_sizes"], agent_sizes=inst["agent_sizes"]
    )
    problem = dl.ProblemInstance(a=inst["a"], b=inst["b"], topology=topo, layout=layout)
    split = dl.partition_rows if inst["scheme"] == "row" else dl.partition_columns
    return topo, split(problem)


def warm_up(max_dim: int) -> None:
    """First BLAS/LAPACK calls in a process cost about 10x a steady call;
    pay them here, at the sizes the ops use, so set-up carries them."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((max_dim, max_dim))
    m @ m[0]
    small = m[: min(max_dim, 320), : min(max_dim, 320)]
    np.linalg.eigvals(small)
    np.linalg.svd(small, compute_uv=False)
    np.linalg.lstsq(small[:40, :40], small[:40, 0], rcond=None)


def _failure(name: str, exc: Exception) -> Outcome:
    return Outcome(line=f"{name} error={type(exc).__name__}", failed=True)


def _relative_error(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))


def record_op(sc: dict, scheme: str, out_root: Path) -> Outcome:
    """The `duolayer run` path: parse, build, integrate, write artifacts."""
    name = f"{sc['name']}-{scheme}"
    out_dir = out_root / name
    try:
        data = json.loads(sc["path"].read_text())
        scenario = cli.parse_scenario(data, str(sc["path"]))
        problem, part = cli.build_problem(scenario, scheme)
        result = dl.integrate(part, problem.topology, scenario.sim)
        summary = cli.write_run_artifacts(out_dir, part, problem.topology, result)
        artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return _failure(name, exc)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    passed = summary["spectrum"]["passed"]
    failed = not (summary["converged"] and summary["valid"] and passed)
    wrong = None
    anchor = STEP_ANCHORS.get((sc["name"], scheme))
    if anchor is not None and result.steps != anchor:
        wrong = f"{name}: {result.steps} RK4 steps, expected {anchor}"
    if summary["steps"] != result.steps:
        wrong = f"{name}: summary.json reports {summary['steps']} steps, run took {result.steps}"
    if sc["x_true"] is not None and not failed:
        err = _relative_error(np.array(summary["solution"]), sc["x_true"])
        if err > SOLUTION_RTOL:
            wrong = f"{name}: solution off x_true by {err:.3e} relative"
    return Outcome(
        line=f"{name} steps={result.steps} stop={result.stop_reason} valid={summary['valid']}",
        failed=failed,
        wrong=wrong,
        rk4_steps=result.steps,
        record_samples=len(result.trajectory.samples),
        verdict_fail=int(not passed),
        artifact_bytes=artifact_bytes,
    )


def _tiled_solution(part, x_true) -> np.ndarray:
    """The solution part of the equilibrium, built from x_true."""
    if part.scheme == "row":
        return np.tile(x_true, part.cluster_count)
    pieces, start = [], 0
    for n_i, count in zip(part.cluster_cols, part.agent_counts):
        pieces.append(np.tile(x_true[start : start + n_i], count))
        start += n_i
    return np.concatenate(pieces)


def certify_op(inst: dict, topo, part) -> Outcome:
    """Assemble Q, certify its spectrum and build the equilibrium."""
    try:
        cs = dl.assemble_compact(part, topo)
        verdict = dl.check_drift_spectrum(cs)
        x_hat, _ = dl.equilibrium_certificate(cs, part)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return _failure(inst["name"], exc)
    err = _relative_error(x_hat, _tiled_solution(part, inst["x_true"]))
    wrong = None
    if err > SOLUTION_RTOL:
        wrong = f"{inst['name']}: equilibrium off x_true by {err:.3e} relative"
    sp = verdict.spectrum
    return Outcome(
        line=(
            f"{inst['name']} dim={cs.dim} spectrum={'PASS' if verdict.passed else 'FAIL'} "
            f"rank={sp.rank} rank_squared={sp.rank_squared}"
        ),
        failed=not verdict.passed,
        wrong=wrong,
        verdict_fail=int(not verdict.passed),
    )


def setup(workload: str, inputs: dict, out_root: Path) -> list:
    """Build the workload's graphs and partitions, warm up, return its ops."""
    ops = []
    if workload == "run-record":
        for sc in inputs["scenarios"]:
            for scheme in ("row", "column"):
                ops.append(Op(f"{sc['name']}-{scheme}", lambda sc=sc, scheme=scheme: record_op(sc, scheme, out_root)))
        warm_up(320)
        return ops
    max_dim = 0
    for inst in inputs["instances"]:
        topo, part = build(inst)
        max_dim = max(max_dim, part.x_dim + part.z_dim)
        ops.append(Op(inst["name"], lambda inst=inst, topo=topo, part=part: certify_op(inst, topo, part)))
    warm_up(max_dim)
    return ops

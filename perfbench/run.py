"""Benchmark for the duolayer package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/duolayer` of that checkout, never from an installed copy.  One process
runs one workload as a closed loop with a single client: the workload's ops
(one generated instance each) run one after another, in whole passes over
the instance list, until another pass would overrun `--seconds`.  At least
one pass always completes.  The op metrics are taken over each instance's
median wall time across the passes: op_p50_s is the median of those,
op_tail_s their tail, and instances_per_s the instance count over their sum
(one pass with every op at its typical time).

Workloads, and the layer each is there to stress:

* run-record: the `duolayer run` path on scenario files with heavy
  recording; the `cli` layer and per-sample residuals run only here.
* certify: assembly, spectral verdict and equilibrium certificate with no
  integration; bound by LAPACK.  It keeps the draws on which the rank test
  gives a false "defective" verdict, and counts each as a failed op.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a run with every layer boundary wrapped in spans.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`failed / attempted` is the workload's fail ratio.  Lines above it give the
environment stamp, each metric with its unit, and the tail percentile used.
Full results (and, when traced, every span) are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 5
D4000_EVALS = 30
TAIL_BEYOND = 10


def import_program():
    """Import duolayer from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "duolayer" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {src / 'duolayer'}")
    sys.path.insert(0, str(src))
    import duolayer

    if Path(duolayer.__file__).resolve().parent != (src / "duolayer").resolve():
        sys.exit(f"error: imported duolayer from {duolayer.__file__}, not from {src}")


def environment() -> dict:
    """Commit, interpreter and library versions, BLAS and core counts."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
    }


def run_pass(ops) -> dict:
    start = time.perf_counter()
    walls, outcomes = [], []
    for op in ops:
        t0 = time.perf_counter()
        outcome = op.run()
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return {"wall": time.perf_counter() - start, "walls": walls, "outcomes": outcomes}


def run_window(ops, seconds: float, started: float, before=None, after=None) -> list:
    """Whole passes until the next one, at the last pass's pace, would end
    after `seconds` from `started`; at least one."""
    passes = []
    while True:
        if before:
            before()
        passes.append(run_pass(ops))
        if after:
            after()
        if time.perf_counter() - started + passes[-1]["wall"] > seconds:
            return passes


def pass_counts(p: dict) -> dict:
    """Exact per-pass counts taken from the op outcomes."""
    keys = ("rk4_steps", "record_samples", "verdict_fail", "artifact_bytes")
    return {k: sum(getattr(o, k) for o in p["outcomes"]) for k in keys}


def check_passes(passes: list) -> list:
    """Problems that make the run incorrect: wrong results, or results and
    exact counts that differ between passes over the same inputs."""
    problems = [o.wrong for p in passes for o in p["outcomes"] if o.wrong]
    first = [o.line for o in passes[0]["outcomes"]]
    for k, p in enumerate(passes[1:], start=2):
        lines = [o.line for o in p["outcomes"]]
        if lines != first:
            problems.append(f"pass {k}: outcome lines differ from pass 1")
        if pass_counts(p) != pass_counts(passes[0]):
            problems.append(f"pass {k}: exact counts differ from pass 1")
    return problems


def typical_walls(passes: list) -> list:
    """Each op's median wall time over the passes.  On a shared host one
    pass can run 40 % slower than the next, and slow spells last minutes;
    a median over a long run's passes keeps a single slow pass out of every
    op's figure, where the whole-run total would not."""
    return [statistics.median(ws) for ws in zip(*(p["walls"] for p in passes))]


def tail(values: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile).  Below 2 * TAIL_BEYOND samples that percentile
    would sit under the median, so the maximum is reported instead, as the
    100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def time_setup(workload: str, manifest: Path, scratch: Path) -> list:
    """Wall time of SETUP_RUNS fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(manifest), str(scratch)],
            check=True,
            cwd=ROOT,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(args, manifest: Path, scratch: Path) -> tuple:
    import generate
    import workloads

    setups = time_setup(args.workload, manifest, scratch)
    ops = workloads.setup(args.workload, generate.load_inputs(manifest), scratch)
    started = time.perf_counter()
    passes = run_window(ops, args.seconds, started)
    walls = [w for p in passes for w in p["walls"]]
    typical = typical_walls(passes)
    tail_value, tail_pct = tail(typical)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(typical),
        "op_tail_s": tail_value,
        "instances_per_s": len(typical) / sum(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_samples_s": setups,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(typical),
        "op_samples": len(walls),
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
    }
    return metrics, passes, notes


def probe_d4000(inputs: dict) -> tuple:
    """Evaluate time and storage of a dim-4000 plan built apart from the ops."""
    import numpy as np

    import duolayer as dl
    import tracer
    import workloads

    topo, part = workloads.build(inputs["d4000"])
    plan = dl.DerivativePlan(part, topo)
    y = np.random.default_rng(0).standard_normal(part.x_dim + part.z_dim)
    plan.evaluate(y)
    times = []
    for _ in range(D4000_EVALS):
        t0 = time.perf_counter()
        plan.evaluate(y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6, tracer.storage_bytes(plan)


def per_layer(args, manifest: Path, scratch: Path) -> tuple:
    """Traced run: a traced set-up, one untraced pass (the base for
    trace.overhead_s), then traced passes until the window closes.

    `_s` values are busy seconds per pass (inclusive of traced children,
    except linalg.eig_s, which leaves out the rank calls that rank_s counts),
    averaged over the traced passes; graph and partition values add the
    traced set-up once.  `_us` values are busy time per call.  Counts are per
    pass and must repeat exactly from pass to pass.  simulator.step_us is the
    integrator's own time plus its evaluate calls, per RK4 step.
    """
    import generate
    import tracer
    import workloads

    inputs = generate.load_inputs(manifest)
    tr = tracer.Tracer()
    tr.install()
    ops = workloads.setup(args.workload, inputs, scratch)
    setup_end = tr.mark()
    tr.uninstall()
    started = time.perf_counter()
    untraced = run_pass(ops)
    marks = []
    passes = run_window(
        ops,
        args.seconds,
        started,
        before=lambda: (tr.install(), marks.append(tr.mark())),
        after=lambda: (marks.append(tr.mark()), tr.uninstall()),
    )
    d4000_us, d4000_bytes = probe_d4000(inputs)

    setup = tr.summary(0, setup_end)
    per_pass = [tr.summary(marks[2 * k], marks[2 * k + 1]) for k in range(len(passes))]
    calls = {name: entry["calls"] for name, entry in per_pass[0].items()}
    problems = []
    if any({name: e["calls"] for name, e in s.items()} != calls for s in per_pass):
        problems.append("span counts differ between traced passes")

    def busy(name: str, key: str = "busy") -> float:
        return statistics.fmean(s[name][key] for s in per_pass) if name in calls else 0.0

    def per_call_us(name: str) -> float:
        return 1e6 * busy(name) / calls[name] if calls.get(name) else 0.0

    counts = pass_counts(passes[0])
    steps = counts["rk4_steps"]
    metrics = {
        "dynamics.evaluate_us": per_call_us("dynamics.evaluate"),
        "dynamics.plan_bytes": max(tr.plan_bytes, default=0),
        "dynamics.plan_build_s": busy("dynamics.plan_build"),
        "dynamics.evaluate_us.d4000": d4000_us,
        "dynamics.plan_bytes.d4000": d4000_bytes,
        "dynamics.evaluate_calls": calls.get("dynamics.evaluate", 0),
        "dynamics.residuals_s": busy("dynamics.residuals"),
        "dynamics.residuals_calls": calls.get("dynamics.residuals", 0),
        "simulator.integrate_s": busy("simulator.integrate"),
        "simulator.self_s": busy("simulator.integrate", "self"),
        "simulator.rk4_steps": steps,
        "simulator.step_us": (
            1e6 * (busy("simulator.integrate", "self") + busy("dynamics.evaluate")) / steps if steps else 0.0
        ),
        "simulator.record_samples": counts["record_samples"],
        "spectral.assemble_s": busy("spectral.assemble"),
        "spectral.verdict_s": busy("spectral.verdict"),
        "spectral.self_s": sum(
            busy(name, "self") for name in ("spectral.assemble", "spectral.verdict", "spectral.equilibrium")
        ),
        "spectral.equilibrium_s": busy("spectral.equilibrium"),
        "spectral.verdict_fail": counts["verdict_fail"],
        "linalg.eig_s": busy("linalg.eig", "self"),
        "linalg.rank_s": busy("linalg.rank"),
        "linalg.rank_calls": calls.get("linalg.rank", 0),
        "linalg.lstsq_s": busy("linalg.lstsq"),
        "cli.parse_s": busy("cli.parse"),
        "cli.build_problem_s": busy("cli.build_problem"),
        "cli.artifacts_s": busy("cli.artifacts"),
        "cli.artifact_bytes": counts["artifact_bytes"],
        "graph.build_s": setup.get("graph.build", {"busy": 0.0})["busy"] + busy("graph.build"),
        "partition.split_s": setup.get("partition.split", {"busy": 0.0})["busy"] + busy("partition.split"),
        "partition.calls": setup.get("partition.split", {"calls": 0})["calls"] + calls.get("partition.split", 0),
        "trace.overhead_s": statistics.fmean(p["wall"] for p in passes) - untraced["wall"],
    }
    notes = {"passes": len(passes), "untraced_pass_s": untraced["wall"], "span_calls_per_pass": calls}
    OUT.mkdir(parents=True, exist_ok=True)
    tr.dump(OUT / f"{args.workload}.spans.npz")
    return metrics, [untraced] + passes, notes, problems


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import generate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        manifest = generate.write_inputs(args.workload, args.seed, work / "inputs")
        scratch = work / "artifacts"
        if args.trace:
            metrics, passes, notes, problems = per_layer(args, manifest, scratch)
        else:
            metrics, passes, notes = end_to_end(args, manifest, scratch)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += check_passes(passes)

    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(o.failed for p in passes for o in p["outcomes"])
    env = environment()
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"error: measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, environment=env,
                  notes=notes, problems=problems, outcomes=[o.line for o in passes[0]["outcomes"]],
                  op_walls_s=[p["walls"] for p in passes])
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"incorrect: {problem}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for key, value in notes.items():
        if not isinstance(value, dict):
            print(f"note {key}: {value}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single `criterion N: PASS/FAIL - description` line before asserting,
so a plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import subprocess
import sys
import time

import numpy as np
from scipy.linalg import expm

from duolayer import (
    DerivativePlan,
    Layout,
    ProblemInstance,
    SimConfig,
    Topology,
    assemble_compact,
    build_graph,
    check_drift_spectrum,
    check_saddle_spectrum,
    fit_convergence_rate,
    integrate,
    partition_columns,
    partition_rows,
    spectrum_verdict,
)
from duolayer.cli import random_instance

from helpers import random_saddle_blocks

RESIDUAL_TOL = 1e-6
R2_FLOOR = 0.99


def report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def convergence_failures(part, topo, trial_tag, seed):
    """Run one instance from zero and random inits; list every violated bound."""
    problems = []
    for init_mode in ("zeros", "random"):
        cfg = SimConfig(
            max_time=12000.0,
            stationarity_tol=1e-10,
            record_every=5,
            rng_seed=seed,
            init_mode=init_mode,
        )
        res = integrate(part, topo, cfg)
        tag = f"{trial_tag}/{init_mode}"
        if res.stop_reason != "stationary":
            problems.append(f"{tag}: stopped on {res.stop_reason}")
            continue
        # the last sample is taken at the final state
        final = res.trajectory.samples[-1]
        conservation = np.max(final["conservation"], initial=0.0)
        consensus = np.max(final["consensus"], initial=0.0)
        if conservation >= RESIDUAL_TOL:
            problems.append(f"{tag}: conservation {conservation:.2e}")
        if consensus >= RESIDUAL_TOL:
            problems.append(f"{tag}: consensus {consensus:.2e}")
        if final["overall"] >= RESIDUAL_TOL:
            problems.append(f"{tag}: overall {final['overall']:.2e}")
        slope, r2 = fit_convergence_rate(res.trajectory)
        if not slope < 0.0:
            problems.append(f"{tag}: slope {slope:.2e}")
        if not r2 > R2_FLOOR:
            problems.append(f"{tag}: r2 {r2:.4f}")
    return problems


def tame_instance(scheme, trial, scheme_idx):
    # tall + sigma floor keep the slow drift mode bounded, so the stated
    # time budget covers every draw
    rng = np.random.default_rng([41, trial, scheme_idx])
    return random_instance(
        rng,
        scheme,
        6,
        tall=True,
        min_sigma=0.3,
        max_clusters=3,
        max_agents=3,
        extra_edge_prob=0.8,
    )


def test_criterion_1_compact_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for scheme in ("row", "column"):
        accepted = 0
        while accepted < 50:
            inst, part = random_instance(rng, scheme, 10)
            if part.cluster_count < 2:
                continue
            accepted += 1
            plan = DerivativePlan(part, inst.topology)
            cs = assemble_compact(part, inst.topology)
            for _ in range(3):
                y = rng.uniform(-2.0, 2.0, size=cs.dim)
                gap = plan.evaluate(y) - (cs.matvec(y) + cs.forcing)
                worst = max(worst, float(np.max(np.abs(gap))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 5.0
    report(1, ok, "per-agent derivatives equal the stacked affine drift (1e-12)")
    assert worst < 1e-12, f"worst per-agent vs stacked gap {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_2_spectral_guarantees():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(52)
    for trial in range(100):
        verdict = check_saddle_spectrum(random_saddle_blocks(rng))
        if not verdict.passed:
            failures.append(f"saddle {trial}: {verdict.to_dict()}")
    for trial in range(100):
        scheme_idx = trial % 2
        scheme = ("row", "column")[scheme_idx]
        inst_rng = np.random.default_rng([52, trial, scheme_idx])
        inst, part = random_instance(inst_rng, scheme, 6, min_sigma=0.3)
        verdict = check_drift_spectrum(assemble_compact(part, inst.topology))
        if not verdict.passed:
            failures.append(f"drift {trial} ({scheme}): {verdict.to_dict()}")
    defective = spectrum_verdict(np.array([[0.0, 1.0], [0.0, 0.0]]))
    if defective.nondefective_ok or not (defective.real_ok and defective.imag_ok):
        failures.append("defective counterexample not flagged by the kernel certificate")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    report(2, ok, "real, non-positive, non-defective spectra on 200 matrices")
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_row_scheme_convergence():
    started = time.perf_counter()
    failures = []
    for trial in range(20):
        inst, part = tame_instance("row", trial, 0)
        failures += convergence_failures(part, inst.topology, f"row {trial}", trial)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    report(3, ok, "row scheme: stationary, residuals < 1e-6, ln V slope fits")
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_column_scheme_convergence():
    started = time.perf_counter()
    failures = []
    for trial in range(20):
        inst, part = tame_instance("column", trial, 1)
        failures += convergence_failures(part, inst.topology, f"column {trial}", trial)
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    report(4, ok, "column scheme: stationary, residuals < 1e-6, ln V slope fits")
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_fully_scalar_decomposition():
    # every block is 1x1: as many clusters as split rows/columns, and as
    # many agents per cluster as the other dimension
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(3, 3))
    while np.linalg.svd(a, compute_uv=False)[-1] < 0.3:
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
    b = a @ rng.uniform(-1.0, 1.0, size=3)
    topo = Topology(cluster_graph=path(3), agent_graphs=(path(3),) * 3)
    failures = []
    for scheme, split in (("row", partition_rows), ("column", partition_columns)):
        layout = Layout(
            scheme=scheme, cluster_sizes=[1, 1, 1], agent_sizes=[[1, 1, 1]] * 3
        )
        inst = ProblemInstance(a=a, b=b, topology=topo, layout=layout)
        part = split(inst)
        assert all(blk.shape == (1, 1) for row in part.blocks for blk in row)
        failures += convergence_failures(part, topo, f"scalar {scheme}", 3)
    ok = not failures
    report(5, ok, "all-scalar partition (one entry per agent) converges both ways")
    assert not failures, failures


def test_criterion_6_heterogeneous_agent_widths():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1.0, 1.0, size=(6, 6))
    while np.linalg.svd(a, compute_uv=False)[-1] < 0.3:
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
    b = a @ rng.uniform(-1.0, 1.0, size=6)
    layout = Layout(
        scheme="row", cluster_sizes=[3, 3], agent_sizes=[[3, 2, 1], [1, 5]]
    )
    topo = Topology(cluster_graph=path(2), agent_graphs=(path(3), path(2)))
    part = partition_rows(ProblemInstance(a=a, b=b, topology=topo, layout=layout))
    assert len({blk.shape[1] for row in part.blocks for blk in row}) > 1
    failures = convergence_failures(part, topo, "hetero row", 4)
    ok = not failures
    report(6, ok, "row scheme with unequal per-agent widths meets the same bounds")
    assert not failures, failures


def test_criterion_7_integrator_matches_matrix_exponential():
    rng = np.random.default_rng(19)
    worst = 0.0
    for scheme_idx, scheme in enumerate(("row", "column")):
        for _ in range(5):
            inst, part = random_instance(rng, scheme, 4)
            start = rng.uniform(-1.0, 1.0, size=part.x_dim + part.z_dim)
            cfg = SimConfig(step_size=1e-3, max_time=5.0, stationarity_tol=1e-300)
            res = integrate(part, inst.topology, cfg, initial_state=start)
            cs = assemble_compact(part, inst.topology)
            # affine flow folded into one homogeneous system on [y; 1]
            aug = np.zeros((cs.dim + 1, cs.dim + 1))
            aug[: cs.dim, : cs.dim] = cs.drift_matrix
            aug[: cs.dim, -1] = cs.forcing
            y0 = np.append(start, 1.0)
            t_final = res.final_time
            oracle = (expm(aug * t_final) @ y0)[: cs.dim]
            reached = res.final_state
            worst = max(worst, float(np.max(np.abs(reached - oracle))))
    ok = worst < 1e-6
    report(7, ok, "fixed-step integrator tracks the exact affine flow to 1e-6")
    assert worst < 1e-6, f"worst integrator vs exponential gap {worst:.3e}"


def test_criterion_8_verification_is_deterministic():
    cmd = [sys.executable, "-m", "duolayer", "verify", "--trials", "20", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and b"result: PASS" in first.stdout
    )
    report(8, ok, "repeated seeded verification reports are byte-identical")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b"result: PASS" in first.stdout

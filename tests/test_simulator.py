import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from duolayer import (
    DerivativePlan,
    InsufficientSamplesError,
    Layout,
    NonFiniteStateError,
    ProblemInstance,
    SimConfig,
    Topology,
    Trajectory,
    assemble_compact,
    build_graph,
    equilibrium_certificate,
    fit_convergence_rate,
    integrate,
    partition_columns,
    partition_rows,
    solve_least_squares,
)
from duolayer.cli import build_problem, parse_scenario
from duolayer.dynamics import reassembled_solution, tiled_reference
from duolayer.instances import random_instance
from duolayer.simulator import (
    RECORD_BATCH,
    SAMPLE_FIELDS,
    STRIDE_MAX,
    _stride_floor,
    rk4_propagator,
    stride_propagator,
)
from helpers import oracle_closeness, oracle_residuals, scaled_instance, stepwise_integrate


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def trajectory(times, values):
    """A Trajectory of bare (time, v) samples, the two fields the fits read."""
    return Trajectory(
        np.array(list(zip(times, values)), dtype=[("time", float), ("v", float)])
    )


def single_agent(a=2.0, b=4.0):
    layout = Layout(scheme="row", cluster_sizes=[1], agent_sizes=[[1]])
    topo = Topology(cluster_graph=path(1), agent_graphs=(path(1),))
    inst = ProblemInstance(
        a=np.array([[a]]), b=np.array([b]), topology=topo, layout=layout
    )
    return partition_rows(inst), topo


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(step_size=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_time=-1.0)
    with pytest.raises(ValueError):
        SimConfig(stationarity_tol=0.0)
    with pytest.raises(ValueError):
        SimConfig(record_every=0)
    with pytest.raises(ValueError):
        SimConfig(init_mode="warm")
    with pytest.raises(ValueError):
        SimConfig(init_amplitude=-0.5)
    with pytest.raises(ValueError):
        SimConfig(rng_seed=-1)
    for name in ("step_size", "max_time", "stationarity_tol", "init_amplitude"):
        for value in (math.inf, 10**400):
            with pytest.raises(ValueError, match=f"{name} .*finite"):
                SimConfig(**{name: value})
    for bad in ({"rng_seed": 1.5}, {"record_every": 2.5}, {"record_every": True},
                {"stationarity_tol": True}, {"init_amplitude": np.True_}):
        with pytest.raises(TypeError):
            SimConfig(**bad)
    assert SimConfig(rng_seed=np.int64(3), record_every=np.int32(2)).rng_seed == 3


def test_auto_step_cap_and_scaling():
    part, topo = single_agent(2.0, 4.0)
    # spectral-radius bound 4 gives 0.45, capped at 0.1
    assert integrate(part, topo, SimConfig(max_time=0.1)).step_size == 0.1
    stiff, topo2 = single_agent(10.0, 4.0)
    # bound = |-100| row sum, h = 1.8 / 100
    assert np.isclose(integrate(stiff, topo2, SimConfig(max_time=0.1)).step_size, 0.018)


def test_state_factories_match_shapes():
    # a stationarity_tol above any derivative stops at step 0, so the run
    # returns the start it drew
    rng = np.random.default_rng(0)
    inst, part = random_instance(rng, "column", 5)
    dim = part.x_dim + part.z_dim
    at_start = {"max_time": 1.0, "stationarity_tol": 1e300}
    z = integrate(part, inst.topology, SimConfig(**at_start))
    assert z.steps == 0 and z.final_time == 0.0
    assert z.final_state.shape == (dim,)
    assert np.all(z.final_state == 0.0)
    cfg = SimConfig(init_mode="random", init_amplitude=0.5, rng_seed=3, **at_start)
    r = integrate(part, inst.topology, cfg).final_state
    assert r.shape == (dim,)
    assert np.max(np.abs(r)) <= 0.5
    assert r.tobytes() == np.random.default_rng(3).uniform(-0.5, 0.5, size=dim).tobytes()


def test_single_agent_matches_closed_form():
    # dx = -2(2x - 4), dz = 2x - 4 from zeros: x = 2(1 - e^{-4t}), z = e^{-4t} - 1
    part, topo = single_agent()
    cfg = SimConfig(step_size=0.01, max_time=1.0, stationarity_tol=1e-300, record_every=10)
    res = integrate(part, topo, cfg)
    t = res.final_time
    assert np.isclose(t, 1.0)
    x, z = res.final_state  # flat [x; z] of the single agent
    assert abs(x - 2.0 * (1.0 - np.exp(-4.0 * t))) < 1e-6
    assert abs(z - (np.exp(-4.0 * t) - 1.0)) < 1e-6


def test_single_agent_limit_point():
    part, topo = single_agent()
    cfg = SimConfig(max_time=20.0, stationarity_tol=1e-12)
    res = integrate(part, topo, cfg)
    assert res.stop_reason == "stationary"
    assert abs(res.final_state[0] - 2.0) < 1e-9
    assert abs(res.final_state[1] + 1.0) < 1e-9


def test_equilibrium_start_is_fixed_point():
    rng = np.random.default_rng(17)
    inst, part = random_instance(rng, "row", 4)
    cs = assemble_compact(part, inst.topology)
    x_hat, z_hat = equilibrium_certificate(cs, part)
    start = np.concatenate([x_hat, z_hat])
    cfg = SimConfig(max_time=5.0, stationarity_tol=1e-7)
    res = integrate(part, inst.topology, cfg, initial_state=start)
    assert res.stop_reason == "stationary"
    assert res.steps == 0
    assert res.final_state is not start
    moved = res.final_state - start
    assert np.max(np.abs(moved)) == 0.0


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(29)
    for scheme in ("row", "column"):
        inst, part = random_instance(rng, scheme, 3)
        cs = assemble_compact(part, inst.topology)
        y0 = rng.uniform(-1.0, 1.0, size=cs.dim)
        cfg = SimConfig(step_size=1e-3, max_time=2.0, stationarity_tol=1e-300, record_every=500)
        res = integrate(part, inst.topology, cfg, initial_state=y0)
        t = res.final_time
        aug = np.zeros((cs.dim + 1, cs.dim + 1))
        aug[: cs.dim, : cs.dim] = cs.drift_matrix
        aug[: cs.dim, cs.dim] = cs.forcing
        oracle = (expm(t * aug) @ np.concatenate([y0, [1.0]]))[: cs.dim]
        assert np.max(np.abs(res.final_state - oracle)) < 1e-8


def random_offsets(rng, part):
    """Random b_offsets that sum to the partition's b, per cluster (row
    scheme: one list of agent offsets each) or overall (column scheme)."""

    def split(total, count):
        shares = [rng.uniform(-1.0, 1.0, size=total.shape) for _ in range(count - 1)]
        return shares + [total - sum(shares, np.zeros_like(total))]

    if part.scheme == "row":
        return [split(sum(offs), len(offs)) for offs in part.offsets]
    return split(part.reassemble()[1], part.cluster_count)


def test_propagator_step_matches_four_stage_rk4():
    rng = np.random.default_rng(43)
    for scheme in ("row", "column"):
        for _ in range(4):
            inst, part = random_instance(rng, scheme, 8)
            repartition = partition_rows if scheme == "row" else partition_columns
            part = repartition(inst, b_offsets=random_offsets(rng, part))
            plan = DerivativePlan(part, inst.topology)
            assert np.any(plan.shift != 0.0)
            y = rng.uniform(-1.0, 1.0, size=plan.dim)
            h = float(rng.uniform(0.01, 0.1))
            k1 = plan.evaluate(y)
            k2 = plan.evaluate(y + 0.5 * h * k1)
            k3 = plan.evaluate(y + 0.5 * h * k2)
            k4 = plan.evaluate(y + h * k3)
            oracle = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tol = 1e-13 * np.max(np.abs(oracle))
            propagator, gain = rk4_propagator(plan, h)
            assert np.max(np.abs(propagator @ y + gain - oracle)) <= tol
            cfg = SimConfig(step_size=h, max_time=h, stationarity_tol=1e-300)
            res = integrate(part, inst.topology, cfg, initial_state=y)
            assert res.steps == 1
            assert np.max(np.abs(res.final_state - oracle)) <= tol


def test_integration_is_deterministic():
    rng = np.random.default_rng(31)
    inst, part = random_instance(rng, "column", 5)
    cfg = SimConfig(max_time=50.0, init_mode="random", rng_seed=7)
    r1 = integrate(part, inst.topology, cfg)
    r2 = integrate(part, inst.topology, cfg)
    assert r1.steps == r2.steps
    assert r1.final_state.tobytes() == r2.final_state.tobytes()
    assert np.array_equal(r1.trajectory.samples["v"], r2.trajectory.samples["v"])


def test_underdetermined_converges_at_residual_level():
    # wide system: the settled solution depends on the start, residuals do not
    layout = Layout(scheme="row", cluster_sizes=[1, 1], agent_sizes=[[2, 1], [1, 2]])
    topo = Topology(
        cluster_graph=path(2), agent_graphs=(path(2), path(2))
    )
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(2, 3))
    b = a @ rng.uniform(-1, 1, size=3)
    inst = ProblemInstance(a=a, b=b, topology=topo, layout=layout)
    part = partition_rows(inst)
    finals = []
    for seed in (0, 1):
        cfg = SimConfig(
            max_time=4000.0, stationarity_tol=1e-11, init_mode="random", rng_seed=seed
        )
        res = integrate(part, inst.topology, cfg)
        assert res.stop_reason == "stationary"
        final = res.trajectory.samples[-1]
        assert final["overall"] < 1e-6
        assert np.max(final["conservation"], initial=0.0) < 1e-6
        assert np.max(final["consensus"], initial=0.0) < 1e-6
        finals.append(res.final_state)
    assert np.max(np.abs(finals[0] - finals[1])) > 1e-3


def test_v_measured_against_least_squares_solution():
    # 2 x = 4: V runs from 0.5 * 2^2 at the zero start down to 0 at x = 2
    part, topo = single_agent()
    cfg = SimConfig(max_time=20.0, stationarity_tol=1e-12)
    values = integrate(part, topo, cfg).trajectory.samples["v"]
    assert values[0] == 2.0
    assert values[-1] < 1e-15


def error_time(run, *args, **kwargs) -> float:
    with pytest.raises(NonFiniteStateError) as info:
        run(*args, **kwargs)
    return info.value.time


def test_divergence_raises_with_time():
    # the state overflows at step 62, mid-way through the first block, after
    # the samples of steps 10 to 60; V overflows first, at the step-40 sample
    part, topo = single_agent()
    cfg = SimConfig(step_size=10.0, max_time=1e5, stationarity_tol=1e-300)
    assert error_time(integrate, part, topo, cfg) == error_time(stepwise_integrate, part, topo, cfg)
    # b = 0, step 10: each step multiplies x by about 1e5, and the samples
    # every 70 steps keep a finite V, so each error carries the state's
    # time.  From x = 1e-200 the state overflows at step 102, mid-way
    # through the block of steps 65 to 128; from x = 1e-8 at step 64, the
    # first block's last; from x = 1e-197 at step 100, the step that
    # reaches max_time mid-way through the second block
    part, topo = single_agent(2.0, 0.0)
    for x0, max_time, step in ((1e-200, 1e5, 102), (1e-8, 1e5, 64), (1e-197, 1000.0, 100)):
        cfg = SimConfig(step_size=10.0, max_time=max_time, stationarity_tol=1e-300, record_every=70)
        start = np.array([x0, 0.0])
        want = error_time(stepwise_integrate, part, topo, cfg, initial_state=start)
        assert want == 10.0 * step
        assert error_time(integrate, part, topo, cfg, initial_state=start) == want


def assert_same_run(got, want):
    assert (got.steps, got.stop_reason) == (want.steps, want.stop_reason)
    assert (got.final_time, got.step_size) == (want.final_time, want.step_size)
    assert got.final_state.tobytes() == want.final_state.tobytes()
    for field in SAMPLE_FIELDS:
        column = got.trajectory.samples[field]
        assert column.tobytes() == want.trajectory.samples[field].tobytes(), field


@pytest.mark.parametrize("record_every", [1, 5, 7, 10, 64, 65])
@pytest.mark.parametrize("scheme", ["row", "column"])
def test_block_stepping_matches_stepwise_oracle(scheme, record_every):
    # the stationary start, one step, a max_time at the end of the first
    # block, one step into the second, mid-way through it, and a stop at the
    # first state below a tolerance the run reaches after about 300 steps.
    # Besides the 20 draws as drawn, five have A and b scaled by 10^-3 and
    # five by 10^3, which scale the derivative, its rounding and the step.
    stops = []
    draws = [(seed, 0) for seed in range(20)] + [(seed, k) for k in (-3, 3) for seed in range(5)]
    for seed, k in draws:
        inst, part = scaled_instance(seed, scheme, 6, k)
        topo = inst.topology
        base = {"init_mode": "random", "rng_seed": seed, "record_every": record_every}
        at_start = SimConfig(stationarity_tol=1e300, **base)
        want = stepwise_integrate(part, topo, at_start)
        assert_same_run(integrate(part, topo, at_start), want)
        assert want.steps == 0 and want.stop_reason == "stationary"
        h = want.step_size
        probe = stepwise_integrate(part, topo, SimConfig(max_time=300 * h, stationarity_tol=1e-300, **base))
        d_end = float(np.max(np.abs(DerivativePlan(part, topo).evaluate(probe.final_state))))
        cases = [{"max_time": k * h, "stationarity_tol": 1e-300} for k in (1, 64, 65, 100.5)]
        cases.append({"max_time": 400 * h, "stationarity_tol": 2.0 * d_end})
        for settings in cases:
            cfg = SimConfig(**settings, **base)
            want = stepwise_integrate(part, topo, cfg)
            assert_same_run(integrate(part, topo, cfg), want)
        assert want.stop_reason == "stationary" and want.steps <= 300
        stops.append(want.steps)
    # a few small draws are already below twice their step-300 norm at the start
    assert sum(step > 0 for step in stops[:20]) >= 15
    assert sum(step > 0 for step in stops[20:]) >= 7


def count_evaluated_rows(monkeypatch, calls=None) -> list:
    """Rows each later plan.evaluate call receives: 0 for a flat state.  A
    list calls receives each call's states, as rows, and the max-norms of
    their derivatives as that call computed them."""
    rows = []
    evaluate = DerivativePlan.evaluate

    def counted(plan, y):
        rows.append(0 if y.ndim == 1 else y.shape[0])
        d = evaluate(plan, y)
        if calls is not None:
            calls.append((np.array(y, ndmin=2), np.max(np.abs(np.atleast_2d(d)), axis=1)))
        return d

    monkeypatch.setattr(DerivativePlan, "evaluate", counted)
    return rows


def test_stop_is_decided_by_the_batched_evaluate(monkeypatch):
    # a run's one flat evaluate is the start's, and a stationary stop's
    # final state is the first in the batched call that tested it whose
    # derivative max-norm there is below tol.  Besides the bundled
    # scenarios, the tolerance is set exactly at, and one ulp above, the
    # flat max-norm of the state at step 150, where the batched and the
    # flat evaluate may round to either side of it
    calls = []
    rows = count_evaluated_rows(monkeypatch, calls)

    def check(part, topo, cfg):
        rows.clear()
        calls.clear()
        res = integrate(part, topo, cfg)
        assert rows[0] == 0 and rows.count(0) == 1, rows
        assert res.stop_reason == "stationary" and res.steps > 0
        states, norms = calls[-1]
        at = next(k for k, state in enumerate(states) if state.tobytes() == res.final_state.tobytes())
        assert norms[at] < cfg.stationarity_tol <= np.min(norms[:at], initial=math.inf)

    for name in ("identity_pair", "three_cluster_5x5"):
        for scheme in ("row", "column"):
            part, topo, sim = stride_case(f"{name}-{scheme}")
            check(part, topo, sim)
    # two draws as drawn, and one each with A and b scaled by 10^-3 and 10^3
    for seed, k in ((0, 0), (1, 0), (2, -3), (3, 3)):
        for scheme in ("row", "column"):
            inst, part = scaled_instance(seed, scheme, 12, k)
            topo = inst.topology
            base = {"init_mode": "random", "rng_seed": seed, "record_every": 3}
            h = stepwise_integrate(part, topo, SimConfig(stationarity_tol=1e300, **base)).step_size
            late = stepwise_integrate(part, topo, SimConfig(max_time=149.5 * h, stationarity_tol=1e-300, **base))
            assert late.steps == 150
            at = float(np.max(np.abs(DerivativePlan(part, topo).evaluate(late.final_state))))
            for tol in (at, float(np.nextafter(at, math.inf))):
                check(part, topo, SimConfig(max_time=400 * h, stationarity_tol=tol, **base))


@pytest.mark.parametrize("k", [-6, 0, 6])
def test_stride_floor_never_clears_at_half_the_flat_derivative(k):
    # integrate's derivative test of a stride on the scaled_instance draws,
    # with s from 2 to STRIDE_MAX: along random-start trajectories, and at
    # states within a few ulps of the equilibrium certificate's point, where
    # the derivative is all rounding.  A stride from u is cleared when the
    # flat derivative max-norm of its end P u + g_s is not below the floor
    # bound; with no band and tol half the smallest flat max-norm of the
    # s - 1 states that stepping one by one from u takes before that end, a
    # clear would mean a floor above that max-norm
    for seed in range(20):
        for scheme in ("row", "column"):
            inst, part = scaled_instance(seed, scheme, 12, k)
            plan = DerivativePlan(part, inst.topology)
            h = integrate(part, inst.topology, SimConfig(stationarity_tol=1e300)).step_size
            propagator, gain = rk4_propagator(plan, h)
            s = 2 + seed % (STRIDE_MAX - 1)
            power, stride_gain, powers = stride_propagator(propagator, gain, s)
            gain_max, shift_max = float(np.max(np.abs(gain))), float(np.max(np.abs(plan.shift)))
            rng = np.random.default_rng(seed)
            ys = np.empty((600 + s, plan.dim))
            ys[0] = rng.uniform(-1.0, 1.0, size=plan.dim)
            for i in range(len(ys) - 1):
                ys[i + 1] = propagator @ ys[i] + gain
            cs = assemble_compact(part, inst.topology)
            certificate = np.concatenate(equilibrium_certificate(cs, part))
            ulps = rng.integers(-3, 4, size=(20, plan.dim)) * np.spacing(np.abs(certificate))
            flat = [float(np.max(np.abs(plan.evaluate(y)))) for y in ys]
            starts = [(y, min(flat[i + 1 : i + s])) for i, y in enumerate(ys[:600])]
            for y in certificate + ulps:
                stepped, lowest = y, math.inf
                for _ in range(s - 1):
                    stepped = propagator @ stepped + gain
                    lowest = min(lowest, float(np.max(np.abs(plan.evaluate(stepped)))))
                starts.append((y, lowest))
            for y, lowest in starts:
                tol = 0.5 * lowest
                floors = _stride_floor(powers, plan.dim, plan.inputs, gain_max, plan.norm, h, tol, 0.0, shift_max)
                end = power @ y + stride_gain
                bound = floors(np.array([np.max(np.abs(y)), np.max(np.abs(end))]))[0]
                assert float(np.max(np.abs(plan.evaluate(end)))) < bound, (seed, scheme, k)


@pytest.mark.parametrize("case", ["inner-dip", "slow-start"])
def test_stride_floor_on_hand_built_operators(case):
    # non-normal 2 x 2 operators M = (-a I + b N) / h, N = [[0, 1], [0, 0]],
    # with (R, g) the RK4 polynomial of hM, so R is a shear whose powers
    # grow before they decay.  "inner-dip" strides by 2 steps over a state
    # whose derivative is smaller than at both ends; "slow-start" strides by
    # 5 from a small derivative that R^m grows.  The end's derivative is
    # above 2 tol, so only the growth max_{1<=m<s} ||R^m|| keeps the floor
    # from clearing a stride whose inner state is below 2 tol
    s, a, b = {"inner-dip": (2, 0.5, 2.0), "slow-start": (5, 0.01, 1.0)}[case]
    h = 0.1
    hm = np.array([[-a, b], [0.0, -a]])
    m, c, eye = hm / h, np.array([0.3, -0.2]), np.eye(2)
    phi = eye + hm @ (eye / 2.0 + hm @ (eye / 6.0 + hm / 24.0))
    propagator, gain = eye + hm @ phi, h * (phi @ c)
    # the start whose first step lands on the derivative (0, 1)
    start = np.linalg.solve(m, np.linalg.solve(propagator, [0.0, 1.0]) - c)
    stepped, flat = start, []
    for _ in range(s - 1):
        stepped = propagator @ stepped + gain
        flat.append(float(np.max(np.abs(m @ stepped + c))))
    tol = 0.5 * np.nextafter(min(flat), math.inf)
    power, stride_gain, powers = stride_propagator(propagator, gain, s)
    end = power @ start + stride_gain
    d_end = float(np.max(np.abs(m @ end + c)))
    norm_m, gain_max = float(np.max(np.sum(np.abs(m), axis=1))), float(np.max(np.abs(gain)))
    floors = _stride_floor(powers, 2, 2, gain_max, norm_m, h, tol, 0.0, float(np.max(np.abs(c))))
    bound = floors(np.array([np.max(np.abs(start)), np.max(np.abs(end))]))[0]
    assert min(flat) < 2.0 * tol < d_end < bound, (min(flat), d_end, bound)


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_batched_evaluate_sees_few_steps(monkeypatch, scheme):
    # the batched evaluate takes each block's states once, its start and
    # last state with them, so it sees about one row per stride and per
    # single step, and 2 (RECORD_BATCH + 1) rows of slack cover the blocks'
    # starts; taking every step would be about five times the strides
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "three_cluster_5x5.json"
    sc = parse_scenario(json.loads(scenario.read_text()))
    problem, part = build_problem(sc, scheme)
    rows = count_evaluated_rows(monkeypatch)
    res = integrate(part, problem.topology, sc.sim)
    assert res.steps == {"row": 5288, "column": 5466}[scheme]
    strides = res.stride_steps // sc.sim.record_every
    bound = strides + (res.steps - res.stride_steps) + 2 * (RECORD_BATCH + 1)
    assert sum(rows) <= bound, (sum(rows), bound)


def ring_320():
    """(partition, topology) of a dim-320 row instance on ring graphs
    (m = n = 40, 4 clusters x 4 agents)."""
    rng = np.random.default_rng(71)
    n, ring = 40, build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    a = 2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    layout = Layout(scheme="row", cluster_sizes=[10] * 4, agent_sizes=[[10] * 4] * 4)
    topo = Topology(cluster_graph=ring, agent_graphs=(ring,) * 4)
    inst = ProblemInstance(a=a, b=a @ rng.uniform(-1.0, 1.0, size=n), topology=topo, layout=layout)
    part = partition_rows(inst)
    assert part.x_dim + part.z_dim == 320
    return part, topo


def stride_case(case: str) -> tuple:
    """(partition, topology, SimConfig) of a bundled scenario "name-scheme",
    or of ring_320 with a tolerance of 1e-10 for "ring-320"."""
    if case == "ring-320":
        part, topo = ring_320()
        return part, topo, SimConfig(max_time=8000.0, stationarity_tol=1e-10)
    name, scheme = case.split("-")
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    sc = parse_scenario(json.loads(scenario.read_text()))
    problem, part = build_problem(sc, scheme)
    return part, problem.topology, sc.sim


@pytest.mark.parametrize(
    "case, every",
    [
        *(pytest.param(case, 5, id=case) for case in ("identity_pair-row", "identity_pair-column",
                                                      "three_cluster_5x5-row", "three_cluster_5x5-column",
                                                      "ring-320")),
        pytest.param("three_cluster_5x5-row", 10, id="three_cluster_5x5-row-10"),
    ],
)
def test_strides_keep_steps_stop_and_solution(case, every):
    # a sample every 5 steps, or every 10 as the default SimConfig takes,
    # strides by R^5 up to the hand-over; a sample every step takes single
    # steps only.  The stop is the same, and the states differ only in their
    # last bits
    part, topo, sim = stride_case(case)
    single = integrate(part, topo, dataclasses.replace(sim, record_every=1))
    strided = integrate(part, topo, dataclasses.replace(sim, record_every=every))
    assert single.stride_steps == 0 and 0 < strided.stride_steps < strided.steps
    assert (strided.steps, strided.stop_reason) == (single.steps, single.stop_reason)
    for got, want in (
        (strided.final_state, single.final_state),
        (reassembled_solution(part, strided.final_state), reassembled_solution(part, single.final_state)),
    ):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "case, least_stride_steps, most_tail",
    [("three_cluster_5x5-row", 4900, None), ("three_cluster_5x5-column", 5000, None), ("ring-320", None, 280)],
)
def test_stride_floor_shortens_the_single_step_tail(case, least_stride_steps, most_tail):
    # strides near the stop are taken on their ends' derivatives, so the run
    # hands over close to the stop: judged by their increments alone,
    # three_cluster_5x5 strode 4,660 (row) and 4,690 (column) of its steps,
    # and ring_320 took its last 395 singly
    part, topo, sim = stride_case(case)
    res = integrate(part, topo, dataclasses.replace(sim, record_every=5))
    assert res.stop_reason == "stationary"
    if least_stride_steps is not None:
        assert res.stride_steps >= least_stride_steps, res.stride_steps
    if most_tail is not None:
        assert res.steps - res.stride_steps <= most_tail, res.steps - res.stride_steps


def test_integrate_peak_memory_at_dim_320():
    # the ring_320 instance.  The budget is three dim x dim arrays beside a
    # recording buffer and a step buffer of RECORD_BATCH (+ 1) rows.  R's
    # build holds two and a few agents' gathered inputs, R^5's holds R, R^5
    # and one block of rows, and the plan's blocks, about 65 dim floats
    # here, stay live throughout; the recording and step buffers are made
    # after both builds, and the batched evaluate of a block's
    # RECORD_BATCH + 1 states is O(RECORD_BATCH dim), so the peak stays
    # below it.
    part, topo = ring_320()
    dim = part.x_dim + part.z_dim
    cfg = SimConfig(max_time=8000.0, stationarity_tol=1e-10, record_every=5)
    integrate(part, topo, cfg)  # build the cached reassembly untraced
    tracemalloc.start()
    try:
        res = integrate(part, topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stop_reason == "stationary" and res.stride_steps > 0
    assert peak <= 8 * (3 * dim**2 + (2 * RECORD_BATCH + 1) * dim), peak


def test_max_time_stop():
    part, topo = single_agent()
    cfg = SimConfig(step_size=0.01, max_time=0.05, stationarity_tol=1e-300)
    res = integrate(part, topo, cfg)
    assert res.stop_reason == "max_time"
    assert res.steps == 5


def test_recording_spacing_and_states():
    part, topo = single_agent()
    cfg = SimConfig(step_size=0.01, max_time=0.2, stationarity_tol=1e-300, record_every=5)
    res = integrate(part, topo, cfg)
    samples = res.trajectory.samples
    times = samples["time"]
    assert times[0] == 0.0
    assert np.allclose(np.diff(times), 0.05)
    assert samples.dtype.names == ("time", "v", "conservation", "consensus", "overall")
    # one cluster: one conservation entry, no cluster pairs
    assert samples["conservation"].shape == (len(samples), 1)
    assert samples["consensus"].shape == (len(samples), 0)
    assert not samples.flags.writeable


def test_batched_samples_match_oracles_on_stored_states():
    # the state behind the sample at step k is recovered by a re-run that
    # stops at max_time = k * h, which is exactly step k, bit for bit
    rng = np.random.default_rng(37)
    for scheme in ("row", "column"):
        inst, part = random_instance(rng, scheme, 5)
        settings = {
            "step_size": 0.01,
            "stationarity_tol": 1e-300,
            "record_every": 2,
            "init_mode": "random",
        }
        res = integrate(part, inst.topology, SimConfig(max_time=2.65, **settings))
        ref = solve_least_squares(*part.reassemble())
        samples = res.trajectory.samples
        assert len(samples) > 2 * RECORD_BATCH
        steps = list(range(0, res.steps + 1, 2))
        if res.steps % 2:
            steps.append(res.steps)
        assert samples["time"].tolist() == [k * 0.01 for k in steps]
        tol = 1e-12 * (1.0 + np.linalg.norm(inst.b))
        # step 0: a tolerance above any derivative stops before the first step
        start_only = SimConfig(**{**settings, "stationarity_tol": 1e300})
        for i, k in enumerate(steps):
            cfg = SimConfig(max_time=k * 0.01, **settings) if k else start_only
            rerun = integrate(part, inst.topology, cfg)
            assert rerun.steps == k and rerun.final_time == samples["time"][i]
            y = rerun.final_state
            conservation, consensus, overall = oracle_residuals(part, y)
            assert np.allclose(samples["conservation"][i], conservation, rtol=0.0, atol=tol)
            assert np.allclose(samples["consensus"][i], consensus, rtol=0.0, atol=tol)
            assert abs(samples["overall"][i] - overall) <= tol
            v = oracle_closeness(y, ref, part)
            assert abs(samples["v"][i] - v) <= 1e-14 * v + 1e-300
        assert y.tobytes() == res.final_state.tobytes()


def test_non_finite_v_reports_first_overflowing_sample():
    part, topo = single_agent()
    start = np.full(2, 1e200)
    cfg = SimConfig(step_size=0.01, max_time=1.0, stationarity_tol=1e-300)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(part, topo, cfg, initial_state=start)
    assert info.value.time == 0.0
    # diverging: V overflows at the t=400 sample, which is still pending in
    # its batch when the state itself overflows at t=620
    cfg = SimConfig(step_size=10.0, max_time=1e5, stationarity_tol=1e-300)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(part, topo, cfg)
    assert info.value.time == 400.0


def recorded_v_at(part, topo, state) -> float:
    """V of the sample integrate records at a start state; a tolerance above
    any derivative stops the run there."""
    run = integrate(part, topo, SimConfig(stationarity_tol=1e300), initial_state=state)
    assert run.steps == 0
    return run.trajectory.samples["v"][0]


def test_recorded_v_row_hand_value():
    part, topo = single_agent()
    # one cluster: 2 x = 4 gives x* = 2, so V = 0.5 * (3 - 2)^2
    assert recorded_v_at(part, topo, np.array([3.0, 0.0])) == 0.5
    with pytest.raises(ValueError):
        tiled_reference(part, [1.0, 2.0])


def test_recorded_v_column_counts_agents():
    layout = Layout(scheme="column", cluster_sizes=[1], agent_sizes=[[1, 1]])
    topo = Topology(cluster_graph=path(1), agent_graphs=(path(2),))
    inst = ProblemInstance(
        a=np.array([[1.0], [1.0]]), b=np.array([1.0, 1.0]), topology=topo, layout=layout
    )
    part = partition_columns(inst)
    y = np.array([2.0, 0.0, 0.0, 0.0])
    # agents hold 2 and 0 against x* = 1: V = 0.5 * (1 + 1)
    assert recorded_v_at(part, topo, y) == 1.0


def test_fit_convergence_rate_exponential():
    times = np.linspace(0.0, 5.0, 60)
    slope, r2 = fit_convergence_rate(trajectory(times, np.exp(-3.0 * times)))
    assert abs(slope + 3.0) < 1e-9
    assert r2 > 0.999999


def test_fit_convergence_rate_constant():
    slope, r2 = fit_convergence_rate(trajectory(range(20), [2.0] * 20))
    assert abs(slope) < 1e-12
    assert r2 == 1.0


def test_fit_convergence_rate_needs_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_convergence_rate(trajectory(range(5), [1.0] * 5))
    # below the floor, samples do not count
    with pytest.raises(InsufficientSamplesError):
        fit_convergence_rate(trajectory(range(20), [1e-16] * 20))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        trajectory([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        trajectory([0.0], [float("nan")])


def test_trajectory_memory_is_one_row_per_sample():
    # 30 one-row clusters: k = 30 conservation entries and p = 435 cluster
    # pairs per sample; a sample costs (3 + k + p) float64s as one array row
    rng = np.random.default_rng(53)
    k, n = 30, 2
    layout = Layout(scheme="row", cluster_sizes=[1] * k, agent_sizes=[[n]] * k)
    topo = Topology(cluster_graph=path(k), agent_graphs=(path(1),) * k)
    a = rng.uniform(-1.0, 1.0, size=(k, n))
    inst = ProblemInstance(a=a, b=a @ rng.uniform(-1.0, 1.0, size=n), topology=topo, layout=layout)
    part = partition_rows(inst)
    part.reassemble()  # build the cached reassembly untraced
    cfg = SimConfig(step_size=0.01, max_time=3.0, stationarity_tol=1e-300, record_every=1)
    tracemalloc.start()
    try:
        samples = integrate(part, topo, cfg).trajectory.samples
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    count = len(samples)
    assert count == 301
    pairs = k * (k - 1) // 2
    assert retained <= 1.2 * count * (3 + k + pairs) * 8, retained
    assert samples["consensus"].shape == (count, pairs)

import math

import numpy as np
import pytest
from scipy.linalg import expm

from duolayer import (
    InsufficientSamplesError,
    Layout,
    NonFiniteStateError,
    ProblemInstance,
    SimConfig,
    Topology,
    Trajectory,
    TrajectorySample,
    assemble_compact,
    build_graph,
    closeness_metric,
    equilibrium_certificate,
    fit_convergence_rate,
    integrate,
    partition_rows,
    residuals,
)
from duolayer.cli import random_instance
from duolayer.simulator import RECORD_BATCH
from helpers import oracle_closeness, oracle_residuals


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


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
        with pytest.raises(ValueError, match=f"{name} .*finite"):
            SimConfig(**{name: math.inf})
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


def test_integration_is_deterministic():
    rng = np.random.default_rng(31)
    inst, part = random_instance(rng, "column", 5)
    cfg = SimConfig(max_time=50.0, init_mode="random", rng_seed=7)
    r1 = integrate(part, inst.topology, cfg)
    r2 = integrate(part, inst.topology, cfg)
    assert r1.steps == r2.steps
    assert r1.final_state.tobytes() == r2.final_state.tobytes()
    assert np.array_equal(r1.trajectory.values(), r2.trajectory.values())


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
        rr = residuals(part, inst.topology, res.final_state)
        assert rr.overall < 1e-6
        assert rr.max_conservation < 1e-6
        assert rr.max_consensus < 1e-6
        finals.append(res.final_state)
    assert np.max(np.abs(finals[0] - finals[1])) > 1e-3


def test_v_measured_against_supplied_reference():
    part, topo = single_agent()
    cfg = SimConfig(max_time=20.0, stationarity_tol=1e-12)
    at_solution = integrate(part, topo, cfg, x_reference=[2.0])
    assert at_solution.trajectory.values()[-1] < 1e-15
    off = integrate(part, topo, cfg, x_reference=[0.0])
    assert abs(off.trajectory.values()[-1] - 2.0) < 1e-6


def test_divergence_raises_with_time():
    part, topo = single_agent()
    cfg = SimConfig(step_size=10.0, max_time=1e5, stationarity_tol=1e-300)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(part, topo, cfg)
    assert info.value.time > 0.0


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
    times = res.trajectory.times()
    assert times[0] == 0.0
    assert np.allclose(np.diff(times), 0.05)
    assert all(s.residuals is not None for s in res.trajectory.samples)


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
        samples = res.trajectory.samples
        assert len(samples) > 2 * RECORD_BATCH
        steps = list(range(0, res.steps + 1, 2))
        if res.steps % 2:
            steps.append(res.steps)
        assert [s.time for s in samples] == [k * 0.01 for k in steps]
        tol = 1e-12 * (1.0 + np.linalg.norm(inst.b))
        # step 0: a tolerance above any derivative stops before the first step
        start_only = SimConfig(**{**settings, "stationarity_tol": 1e300})
        for k, s in zip(steps, samples):
            cfg = SimConfig(max_time=k * 0.01, **settings) if k else start_only
            rerun = integrate(part, inst.topology, cfg)
            assert rerun.steps == k and rerun.final_time == s.time
            y = rerun.final_state
            want = oracle_residuals(part, y)
            assert np.allclose(s.residuals.conservation, want.conservation, rtol=0.0, atol=tol)
            assert np.allclose(s.residuals.consensus, want.consensus, rtol=0.0, atol=tol)
            assert abs(s.residuals.overall - want.overall) <= tol
            v = oracle_closeness(y, res.reference, part)
            assert abs(s.v - v) <= 1e-14 * v + 1e-300
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


def test_closeness_metric_row_hand_value():
    part, _ = single_agent()
    state = np.array([3.0, 0.0])
    # one cluster: V = 0.5 * (3 - 2)^2
    assert closeness_metric(state, [2.0], part) == 0.5
    with pytest.raises(ValueError):
        closeness_metric(state, [1.0, 2.0], part)


def test_closeness_metric_column_counts_agents():
    layout = Layout(scheme="column", cluster_sizes=[1], agent_sizes=[[1, 1]])
    topo = Topology(cluster_graph=path(1), agent_graphs=(path(2),))
    inst = ProblemInstance(
        a=np.array([[1.0], [1.0]]), b=np.array([1.0, 1.0]), topology=topo, layout=layout
    )
    part = __import__("duolayer").partition_columns(inst)
    y = np.array([2.0, 0.0, 0.0, 0.0])
    # agents hold 2 and 0 against reference 1: V = 0.5 * (1 + 1)
    assert closeness_metric(y, [1.0], part) == 1.0


def test_fit_convergence_rate_exponential():
    times = np.linspace(0.0, 5.0, 60)
    samples = tuple(
        TrajectorySample(time=float(t), v=float(np.exp(-3.0 * t))) for t in times
    )
    slope, r2 = fit_convergence_rate(Trajectory(samples))
    assert abs(slope + 3.0) < 1e-9
    assert r2 > 0.999999


def test_fit_convergence_rate_constant():
    samples = tuple(TrajectorySample(time=float(t), v=2.0) for t in range(20))
    slope, r2 = fit_convergence_rate(Trajectory(samples))
    assert abs(slope) < 1e-12
    assert r2 == 1.0


def test_fit_convergence_rate_needs_samples():
    samples = tuple(TrajectorySample(time=float(t), v=1.0) for t in range(5))
    with pytest.raises(InsufficientSamplesError):
        fit_convergence_rate(Trajectory(samples))
    # below the floor, samples do not count
    tiny = tuple(TrajectorySample(time=float(t), v=1e-16) for t in range(20))
    with pytest.raises(InsufficientSamplesError):
        fit_convergence_rate(Trajectory(tiny))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            (TrajectorySample(time=1.0, v=1.0), TrajectorySample(time=1.0, v=1.0))
        )
    with pytest.raises(ValueError):
        Trajectory((TrajectorySample(time=0.0, v=float("nan")),))

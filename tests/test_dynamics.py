import numpy as np
import pytest

from duolayer import (
    DerivativePlan,
    Layout,
    NetworkState,
    ProblemInstance,
    ShapeMismatchError,
    Topology,
    assemble_compact,
    build_graph,
    closeness_metric,
    partition_columns,
    partition_rows,
    reassembled_solution,
    residuals,
    sample_residuals,
    stack_state,
    unstack_state,
)
from duolayer.cli import random_instance
from helpers import oracle_closeness, oracle_residuals


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def topology(cluster_count, agent_counts):
    return Topology(
        cluster_graph=path(cluster_count),
        agent_graphs=tuple(path(c) for c in agent_counts),
    )


def derivative(part, topo, s):
    """The per-agent law at s, as a NetworkState of derivatives."""
    return unstack_state(part, DerivativePlan(part, topo).evaluate(stack_state(part, s)))


def make_row(a, b, cluster_sizes, agent_sizes):
    layout = Layout(scheme="row", cluster_sizes=cluster_sizes, agent_sizes=agent_sizes)
    topo = topology(len(cluster_sizes), [len(r) for r in agent_sizes])
    inst = ProblemInstance(a=a, b=b, topology=topo, layout=layout)
    return partition_rows(inst), topo


def make_col(a, b, cluster_sizes, agent_sizes):
    layout = Layout(scheme="column", cluster_sizes=cluster_sizes, agent_sizes=agent_sizes)
    topo = topology(len(cluster_sizes), [len(r) for r in agent_sizes])
    inst = ProblemInstance(a=a, b=b, topology=topo, layout=layout)
    return partition_columns(inst), topo


def test_single_agent_derivative():
    # one agent, no neighbors: dx = -A.T (A x - b) = A.T b at zero, dz = -b
    part, topo = make_row(np.array([[2.0]]), np.array([4.0]), [1], [[1]])
    state = NetworkState(x=((np.zeros(1),),), z=((np.zeros(1),),))
    d = derivative(part, topo, state)
    assert np.array_equal(d.x[0][0], [8.0])
    assert np.array_equal(d.z[0][0], [-4.0])


def test_two_agents_share_cluster_at_zero():
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    state = NetworkState(
        x=((np.zeros(1), np.zeros(1)),), z=((np.zeros(2), np.zeros(2)),)
    )
    d = derivative(part, topo, state)
    assert np.allclose(d.x[0][0], [0.5])
    assert np.allclose(d.x[0][1], [1.0])
    assert np.allclose(d.z[0][0], [-0.5, -1.0])
    assert np.allclose(d.z[0][1], [-0.5, -1.0])


def test_two_agents_coordination_differences():
    # hand-evaluated law with nonzero coordination states
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    state = NetworkState(
        x=((np.array([1.0]), np.array([2.0])),),
        z=((np.array([1.0, 0.0]), np.array([0.0, 1.0])),),
    )
    d = derivative(part, topo, state)
    assert np.allclose(d.x[0][0], [0.5])
    assert np.allclose(d.z[0][0], [-0.5, 0.0])
    assert np.allclose(d.x[0][1], [0.0])
    assert np.allclose(d.z[0][1], [0.5, 0.0])


def test_two_clusters_consensus_pull():
    # single agent per cluster: the x derivative adds the neighbor-cluster pull
    part, topo = make_row(np.eye(2), np.array([1.0, 1.0]), [1, 1], [[2], [2]])
    state = NetworkState(
        x=((np.array([1.0, 2.0]),), (np.array([3.0, 5.0]),)),
        z=((np.zeros(1),), (np.zeros(1),)),
    )
    d = derivative(part, topo, state)
    assert np.allclose(d.x[0][0], [2.0, 3.0])
    assert np.allclose(d.z[0][0], [0.0])
    assert np.allclose(d.x[1][0], [-2.0, -7.0])
    assert np.allclose(d.z[1][0], [4.0])


def test_column_scheme_hand_values():
    part, topo = make_col(
        np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]), [1, 1], [[2], [2]]
    )
    state = NetworkState(
        x=((np.array([1.0]),), (np.array([-1.0]),)),
        z=((np.array([1.0, 0.0]),), (np.array([0.0, 2.0]),)),
    )
    d = derivative(part, topo, state)
    assert np.allclose(d.x[0][0], [-13.0])
    assert np.allclose(d.z[0][0], [-0.5, 4.5])
    assert np.allclose(d.x[1][0], [29.0])
    assert np.allclose(d.z[1][0], [-1.5, -6.5])


def test_state_shape_validation():
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    wrong_agents = NetworkState(x=((np.zeros(1),),), z=((np.zeros(2),),))
    with pytest.raises(ShapeMismatchError):
        derivative(part, topo, wrong_agents)
    wrong_len = NetworkState(
        x=((np.zeros(2), np.zeros(1)),), z=((np.zeros(2), np.zeros(2)),)
    )
    with pytest.raises(ShapeMismatchError):
        derivative(part, topo, wrong_len)
    with pytest.raises(ShapeMismatchError):
        unstack_state(part, np.zeros(99))


def test_stack_unstack_round_trip():
    part, _ = make_row(np.ones((3, 4)), np.arange(3.0), [2, 1], [[2, 2], [1, 3]])
    rng = np.random.default_rng(5)
    dim = part.x_dim + part.z_dim
    y = rng.normal(size=dim)
    again = stack_state(part, unstack_state(part, y))
    assert np.array_equal(again, y)


def test_locality_of_non_neighbor_clusters():
    # path 0-1-2: cluster 2's states cannot influence cluster 0's derivative
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=3)
    part, topo = make_row(a, b, [1, 1, 1], [[2, 2], [4], [1, 3]])
    y = rng.normal(size=part.x_dim + part.z_dim)
    base = derivative(part, topo, unstack_state(part, y))

    state = unstack_state(part, y)
    bumped_x = [[v.copy() for v in row] for row in state.x]
    bumped_z = [[v.copy() for v in row] for row in state.z]
    bumped_x[2] = [v + rng.normal(size=v.shape) for v in bumped_x[2]]
    bumped_z[2] = [v + rng.normal(size=v.shape) for v in bumped_z[2]]
    bumped = derivative(part, topo, NetworkState(x=bumped_x, z=bumped_z))

    for j in range(2):
        assert np.array_equal(base.x[0][j], bumped.x[0][j])
        assert np.array_equal(base.z[0][j], bumped.z[0][j])
    # cluster 1 is adjacent to 2, so its derivative must move
    assert not all(
        np.array_equal(base.x[1][j], bumped.x[1][j]) for j in range(1)
    )


def test_matches_independent_drift_assembly():
    rng = np.random.default_rng(23)
    for scheme in ("row", "column"):
        for trial in range(5):
            inst, part = random_instance(rng, scheme, 6)
            plan = DerivativePlan(part, inst.topology)
            cs = assemble_compact(part, inst.topology)
            v = rng.normal(size=plan.dim)
            direct = plan.evaluate(v)
            oracle = cs.drift_matrix @ v + cs.forcing
            assert np.max(np.abs(direct - oracle)) < 1e-12


def test_zero_state_conservation_residual_is_offset_norm():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(5, 4))
    b = rng.uniform(-1, 1, size=5)
    part, topo = make_row(a, b, [3, 2], [[2, 2], [1, 3]])
    state = unstack_state(part, np.zeros(part.x_dim + part.z_dim))
    rr = residuals(part, topo, state)
    assert rr.scheme == "row"
    assert rr.conservation[0] == np.linalg.norm(b[:3])
    assert rr.conservation[1] == np.linalg.norm(b[3:])
    assert rr.overall == np.linalg.norm(b)
    assert rr.max_conservation == max(rr.conservation)


def test_row_consensus_residual_vanishes_on_copies():
    part, topo = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    same = np.array([1.0, -2.0])
    state = NetworkState(
        x=((same.copy(),), (same.copy(),)), z=((np.zeros(1),), (np.zeros(1),))
    )
    rr = residuals(part, topo, state)
    assert rr.consensus == (0.0,)
    assert rr.max_consensus == 0.0


def test_column_consensus_residual_vanishes_inside_cluster():
    part, topo = make_col(np.ones((2, 2)), np.ones(2), [1, 1], [[1, 1], [2]])
    state = NetworkState(
        x=((np.array([3.0]), np.array([3.0])), (np.array([7.0]),)),
        z=((np.zeros(1), np.zeros(1)), (np.zeros(2),)),
    )
    rr = residuals(part, topo, state)
    assert rr.scheme == "column"
    assert rr.consensus == (0.0, 0.0)
    assert len(rr.conservation) == 1


def test_reassembled_solution_row_is_cluster_average():
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    state = NetworkState(
        x=((np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),)),
        z=((np.zeros(1),), (np.zeros(1),)),
    )
    assert np.array_equal(reassembled_solution(part, state), [2.0, 3.0])


def test_reassembled_solution_column_concatenates_agent_means():
    part, _ = make_col(np.ones((2, 3)), np.ones(2), [2, 1], [[1, 1], [2]])
    state = NetworkState(
        x=((np.array([1.0, 3.0]), np.array([3.0, 5.0])), (np.array([7.0]),)),
        z=((np.zeros(1), np.zeros(1)), (np.zeros(2),)),
    )
    assert np.array_equal(reassembled_solution(part, state), [2.0, 4.0, 7.0])


def test_stacked_residuals_and_closeness_match_loop_oracles():
    rng = np.random.default_rng(41)
    cases = []
    for k in range(40):
        scheme = ("row", "column")[k % 2]
        inst, part = random_instance(
            rng, scheme, 6, tall=k % 4 >= 2, max_agents=1 if k % 5 == 0 else 4
        )
        cases.append((part, inst.topology, inst.b))
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=3)
    for make, layouts in (
        (make_row, (([3], [[1, 2, 1]]), ([3], [[4]]))),
        (make_col, (([4], [[2, 1]]), ([4], [[3]]))),
    ):
        for sizes in layouts:
            cases.append((*make(a, b, *sizes), b))
    single_cluster = {p.scheme for p, _, _ in cases if p.cluster_count == 1}
    single_agent = {p.scheme for p, _, _ in cases if 1 in p.agent_counts}
    assert single_cluster == single_agent == {"row", "column"}
    for part, topo, b in cases:
        tol = 1e-12 * (1.0 + np.linalg.norm(b))
        ys = rng.normal(size=(3, part.x_dim + part.z_dim))
        x_star = rng.normal(size=part.total_cols)
        conservation, consensus, overall = sample_residuals(part, ys)
        for k, y in enumerate(ys):
            state = unstack_state(part, y)
            want = oracle_residuals(part, state)
            got = residuals(part, topo, state)
            assert got.scheme == want.scheme == part.scheme
            for cons, agree, total in (
                (got.conservation, got.consensus, got.overall),
                (conservation[k], consensus[k], overall[k]),
            ):
                assert len(cons) == len(want.conservation)
                assert len(agree) == len(want.consensus)
                assert np.allclose(cons, want.conservation, rtol=0.0, atol=tol)
                assert np.allclose(agree, want.consensus, rtol=0.0, atol=tol)
                assert abs(total - want.overall) <= tol
            v = closeness_metric(state, x_star, part)
            assert abs(v - oracle_closeness(state, x_star, part)) <= tol


def test_sample_residuals_rejects_wrong_width():
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros((2, 5)))
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros(6))

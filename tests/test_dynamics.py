import numpy as np
import pytest

from duolayer import (
    DerivativePlan,
    Layout,
    ProblemInstance,
    ShapeMismatchError,
    SimConfig,
    Topology,
    assemble_compact,
    build_graph,
    closeness_metric,
    integrate,
    partition_columns,
    partition_rows,
    reassembled_solution,
    residuals,
    sample_residuals,
)
from duolayer.cli import random_instance
from duolayer.dynamics import flat_slices
from helpers import oracle_closeness, oracle_residuals


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def topology(cluster_count, agent_counts):
    return Topology(
        cluster_graph=path(cluster_count),
        agent_graphs=tuple(path(c) for c in agent_counts),
    )


def derivative(part, topo, y):
    """The per-agent law at the flat state y, cut into dx[i][j] and dz[i][j]."""
    d = DerivativePlan(part, topo).evaluate(np.asarray(y, dtype=float))
    x_slices, z_slices, _, _ = flat_slices(part)
    return [[d[sl] for sl in row] for row in x_slices], [[d[sl] for sl in row] for row in z_slices]


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
    dx, dz = derivative(part, topo, np.zeros(2))
    assert np.array_equal(dx[0][0], [8.0])
    assert np.array_equal(dz[0][0], [-4.0])


def test_two_agents_share_cluster_at_zero():
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    dx, dz = derivative(part, topo, np.zeros(6))
    assert np.allclose(dx[0][0], [0.5])
    assert np.allclose(dx[0][1], [1.0])
    assert np.allclose(dz[0][0], [-0.5, -1.0])
    assert np.allclose(dz[0][1], [-0.5, -1.0])


def test_two_agents_coordination_differences():
    # hand-evaluated law with nonzero coordination states;
    # flat layout [x_00, x_01, z_00 (2), z_01 (2)]
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    dx, dz = derivative(part, topo, [1.0, 2.0, 1.0, 0.0, 0.0, 1.0])
    assert np.allclose(dx[0][0], [0.5])
    assert np.allclose(dz[0][0], [-0.5, 0.0])
    assert np.allclose(dx[0][1], [0.0])
    assert np.allclose(dz[0][1], [0.5, 0.0])


def test_two_clusters_consensus_pull():
    # single agent per cluster: the x derivative adds the neighbor-cluster pull;
    # flat layout [x_00 (2), x_10 (2), z_00, z_10]
    part, topo = make_row(np.eye(2), np.array([1.0, 1.0]), [1, 1], [[2], [2]])
    dx, dz = derivative(part, topo, [1.0, 2.0, 3.0, 5.0, 0.0, 0.0])
    assert np.allclose(dx[0][0], [2.0, 3.0])
    assert np.allclose(dz[0][0], [0.0])
    assert np.allclose(dx[1][0], [-2.0, -7.0])
    assert np.allclose(dz[1][0], [4.0])


def test_column_scheme_hand_values():
    # flat layout [x_00, x_10, z_00 (2), z_10 (2)]
    part, topo = make_col(
        np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]), [1, 1], [[2], [2]]
    )
    dx, dz = derivative(part, topo, [1.0, -1.0, 1.0, 0.0, 0.0, 2.0])
    assert np.allclose(dx[0][0], [-13.0])
    assert np.allclose(dz[0][0], [-0.5, 4.5])
    assert np.allclose(dx[1][0], [29.0])
    assert np.allclose(dz[1][0], [-1.5, -6.5])


def test_state_shape_validation():
    # every public entry point that takes a state rejects a wrong-shaped one
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])
    assert part.x_dim + part.z_dim == 6
    for wrong in (np.zeros(5), np.zeros(7), np.zeros((1, 6)), np.zeros(())):
        with pytest.raises(ShapeMismatchError):
            residuals(part, topo, wrong)
        with pytest.raises(ShapeMismatchError):
            reassembled_solution(part, wrong)
        with pytest.raises(ShapeMismatchError):
            closeness_metric(wrong, [0.0, 0.0], part)
        with pytest.raises(ShapeMismatchError):
            integrate(part, topo, SimConfig(max_time=1.0), initial_state=wrong)


def test_locality_of_non_neighbor_clusters():
    # path 0-1-2: cluster 2's states cannot influence cluster 0's derivative
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=3)
    part, topo = make_row(a, b, [1, 1, 1], [[2, 2], [4], [1, 3]])
    y = rng.normal(size=part.x_dim + part.z_dim)
    base_x, base_z = derivative(part, topo, y)

    x_slices, z_slices, _, _ = flat_slices(part)
    bumped = y.copy()
    for sl in x_slices[2] + z_slices[2]:
        bumped[sl] += rng.normal(size=sl.stop - sl.start)
    bumped_x, bumped_z = derivative(part, topo, bumped)

    for j in range(2):
        assert np.array_equal(base_x[0][j], bumped_x[0][j])
        assert np.array_equal(base_z[0][j], bumped_z[0][j])
    # cluster 1 is adjacent to 2, so its derivative must move
    assert not all(
        np.array_equal(base_x[1][j], bumped_x[1][j]) for j in range(1)
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


def test_zero_start_conservation_residual_is_offset_norm():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(5, 4))
    b = rng.uniform(-1, 1, size=5)
    part, topo = make_row(a, b, [3, 2], [[2, 2], [1, 3]])
    rr = residuals(part, topo, np.zeros(part.x_dim + part.z_dim))
    assert rr.scheme == "row"
    assert rr.conservation[0] == np.linalg.norm(b[:3])
    assert rr.conservation[1] == np.linalg.norm(b[3:])
    assert rr.overall == np.linalg.norm(b)
    assert rr.max_conservation == max(rr.conservation)


def test_row_consensus_residual_vanishes_on_copies():
    # flat layout [x_00 (2), x_10 (2), z_00, z_10]
    part, topo = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    rr = residuals(part, topo, [1.0, -2.0, 1.0, -2.0, 0.0, 0.0])
    assert rr.consensus == (0.0,)
    assert rr.max_consensus == 0.0


def test_column_consensus_residual_vanishes_inside_cluster():
    # flat layout [x_00, x_01, x_10, z_00, z_01, z_10 (2)]
    part, topo = make_col(np.ones((2, 2)), np.ones(2), [1, 1], [[1, 1], [2]])
    rr = residuals(part, topo, [3.0, 3.0, 7.0, 0.0, 0.0, 0.0, 0.0])
    assert rr.scheme == "column"
    assert rr.consensus == (0.0, 0.0)
    assert len(rr.conservation) == 1


def test_reassembled_solution_row_is_cluster_average():
    # flat layout [x_00 (2), x_10 (2), z_00, z_10]
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    y = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
    assert np.array_equal(reassembled_solution(part, y), [2.0, 3.0])


def test_reassembled_solution_column_concatenates_agent_means():
    # flat layout [x_00 (2), x_01 (2), x_10, z_00, z_01, z_10 (2)]
    part, _ = make_col(np.ones((2, 3)), np.ones(2), [2, 1], [[1, 1], [2]])
    y = np.array([1.0, 3.0, 3.0, 5.0, 7.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(reassembled_solution(part, y), [2.0, 4.0, 7.0])


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
    # six clusters, so the row consensus covers 15 cluster pairs; its own
    # generator leaves the draws above and below unchanged
    many = np.random.default_rng(43)
    a6, b6 = many.uniform(-1, 1, size=(7, 4)), many.uniform(-1, 1, size=7)
    agents6 = [[4], [1, 3], [2, 2], [4], [1, 1, 2], [4]]
    cases.append((*make_row(a6, b6, [1, 1, 2, 1, 1, 1], agents6), b6))
    assert max(p.cluster_count for p, _, _ in cases if p.scheme == "row") >= 6
    single_cluster = {p.scheme for p, _, _ in cases if p.cluster_count == 1}
    single_agent = {p.scheme for p, _, _ in cases if 1 in p.agent_counts}
    assert single_cluster == single_agent == {"row", "column"}
    for part, topo, b in cases:
        tol = 1e-12 * (1.0 + np.linalg.norm(b))
        ys = rng.normal(size=(3, part.x_dim + part.z_dim))
        x_star = rng.normal(size=part.total_cols)
        conservation, consensus, overall = sample_residuals(part, ys)
        for k, y in enumerate(ys):
            want = oracle_residuals(part, y)
            got = residuals(part, topo, y)
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
            v = closeness_metric(y, x_star, part)
            assert abs(v - oracle_closeness(y, x_star, part)) <= tol


def test_sample_residuals_rejects_wrong_width():
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros((2, 5)))
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros(6))

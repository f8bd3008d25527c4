import tracemalloc

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
    integrate,
    partition_columns,
    partition_rows,
    reassembled_solution,
    sample_residuals,
    solve_least_squares,
)
from duolayer.dynamics import flat_slices
from duolayer.instances import random_instance
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
            sample_residuals(part, wrong[None])
        with pytest.raises(ShapeMismatchError):
            reassembled_solution(part, wrong[None])
        with pytest.raises(ShapeMismatchError):
            integrate(part, topo, SimConfig(max_time=1.0), initial_state=wrong)


def test_non_finite_initial_state_is_rejected_before_the_plan(monkeypatch):
    # a NaN or infinite start is a bad input, not a divergence at t = 0, and
    # is rejected before the plan, R or P is built
    part, topo = make_row(np.eye(2), np.array([1.0, 2.0]), [2], [[1, 1]])

    def unbuilt(*args):
        raise AssertionError("plan built for a non-finite start")

    monkeypatch.setattr("duolayer.simulator.DerivativePlan", unbuilt)
    for bad in (np.nan, np.inf, -np.inf):
        start = np.zeros(6)
        start[3] = bad
        with pytest.raises(ValueError, match="initial_state must be finite"):
            integrate(part, topo, SimConfig(max_time=1.0), initial_state=start)


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


def test_plan_holds_each_agents_rows_at_dim_4000():
    # the perfbench d4000 shape: m = n = 200, 10 clusters x 10 agents on
    # rings, row scheme.  The dense M would be 128 MB; each agent's block
    # reads its own x and z and its two ring neighbors' bands, 120 inputs
    # for 40 rows, so the plan's arrays hold about 4 MB.  The groups are
    # views of the flat attributes, so the attributes account for every
    # byte the plan holds
    rng = np.random.default_rng(5)
    n, clusters = 200, 10
    ring = build_graph(clusters, [(i, (i + 1) % clusters) for i in range(clusters)])
    a = 2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    sizes = [n // clusters] * clusters
    layout = Layout(scheme="row", cluster_sizes=sizes, agent_sizes=[sizes] * clusters)
    topo = Topology(cluster_graph=ring, agent_graphs=(ring,) * clusters)
    b = a @ rng.uniform(-1.0, 1.0, size=n)
    part = partition_rows(ProblemInstance(a=a, b=b, topology=topo, layout=layout))
    plan = DerivativePlan(part, topo)
    dim = part.x_dim + part.z_dim
    assert plan.dim == dim == 4000
    arrays = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
    assert sum(array.nbytes for array in arrays) < 8 * 2**20
    assert all(array.shape != (dim, dim) for array in arrays)
    assert [blocks.shape for _, _, blocks in plan.groups] == [(100, 40, 120)]
    for group in plan.groups:
        for view, flat in zip(group, (plan.rows, plan.cols, plan.blocks)):
            assert view.base is flat


def test_evaluate_matches_product_plus_shift_bit_for_bit():
    # the shift is added in place into the products; the arithmetic is that
    # of each agent's block times its inputs plus shift, for a flat state
    # and for each row of a block of them
    rng = np.random.default_rng(59)
    for scheme in ("row", "column"):
        for size in (4, 20):
            inst, part = random_instance(rng, scheme, size)
            plan = DerivativePlan(part, inst.topology)
            ys = rng.normal(size=(64, plan.dim))
            agents = [agent for group in plan.groups for agent in zip(*group)]
            assert sorted(np.concatenate([rows for rows, _, _ in agents])) == list(range(plan.dim))
            want = np.empty_like(ys)
            for rows, cols, block in agents:
                want[:, rows] = (block @ ys[:, cols].T).T + plan.shift[rows]
            assert plan.evaluate(ys).tobytes() == want.tobytes()
            for y in ys[:3]:
                want = np.empty_like(y)
                for rows, cols, block in agents:
                    want[rows] = block @ y[cols] + plan.shift[rows]
                assert plan.evaluate(y).tobytes() == want.tobytes()


def test_zero_start_conservation_residual_is_offset_norm():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(5, 4))
    b = rng.uniform(-1, 1, size=5)
    part, _ = make_row(a, b, [3, 2], [[2, 2], [1, 3]])
    conservation, _, overall = sample_residuals(part, np.zeros(part.x_dim + part.z_dim)[None])
    assert conservation.shape == (1, 2)
    assert conservation[0, 0] == np.linalg.norm(b[:3])
    assert conservation[0, 1] == np.linalg.norm(b[3:])
    assert overall[0] == np.linalg.norm(b)


def test_row_consensus_residual_vanishes_on_copies():
    # flat layout [x_00 (2), x_10 (2), z_00, z_10]
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    _, consensus, _ = sample_residuals(part, np.array([[1.0, -2.0, 1.0, -2.0, 0.0, 0.0]]))
    assert consensus.tolist() == [[0.0]]


def test_column_consensus_residual_vanishes_inside_cluster():
    # flat layout [x_00, x_01, x_10, z_00, z_01, z_10 (2)]
    part, _ = make_col(np.ones((2, 2)), np.ones(2), [1, 1], [[1, 1], [2]])
    conservation, consensus, _ = sample_residuals(part, np.array([[3.0, 3.0, 7.0, 0.0, 0.0, 0.0, 0.0]]))
    assert consensus.tolist() == [[0.0, 0.0]]
    assert conservation.shape == (1, 1)


def test_reassembled_solution_row_is_cluster_average():
    # flat layout [x_00 (2), x_10 (2), z_00, z_10]
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    y = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
    assert np.array_equal(reassembled_solution(part, y), [2.0, 3.0])
    assert np.array_equal(reassembled_solution(part, y[None]), [[2.0, 3.0]])


def test_reassembled_solution_column_concatenates_agent_means():
    # flat layout [x_00 (2), x_01 (2), x_10, z_00, z_01, z_10 (2)]
    part, _ = make_col(np.ones((2, 3)), np.ones(2), [2, 1], [[1, 1], [2]])
    y = np.array([1.0, 3.0, 3.0, 5.0, 7.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(reassembled_solution(part, y), [2.0, 4.0, 7.0])
    assert np.array_equal(reassembled_solution(part, y[None]), [[2.0, 4.0, 7.0]])


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_reassembled_solution_block_matches_flat_rows(scheme):
    rng = np.random.default_rng(53)
    for _ in range(10):
        inst, part = random_instance(rng, scheme, 6)
        ys = rng.normal(size=(5, part.x_dim + part.z_dim))
        block = reassembled_solution(part, ys)
        assert block.shape == (5, part.total_cols)
        for y, row in zip(ys, block):
            assert reassembled_solution(part, y).tobytes() == row.tobytes()


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
        x_star = solve_least_squares(*part.reassemble())
        conservation, consensus, overall = sample_residuals(part, ys)
        for k, y in enumerate(ys):
            want_cons, want_agree, want_total = oracle_residuals(part, y)
            one = sample_residuals(part, y[None])
            for cons, agree, total in (
                (one[0][0], one[1][0], one[2][0]),
                (conservation[k], consensus[k], overall[k]),
            ):
                assert len(cons) == len(want_cons)
                assert len(agree) == len(want_agree)
                assert np.allclose(cons, want_cons, rtol=0.0, atol=tol)
                assert np.allclose(agree, want_agree, rtol=0.0, atol=tol)
                assert abs(total - want_total) <= tol
            # V is recorded against the least-squares solution; a tolerance
            # above any derivative stops the run at its start
            run = integrate(part, topo, SimConfig(stationarity_tol=1e300), initial_state=y)
            v = run.trajectory.samples["v"][0]
            assert abs(v - oracle_closeness(y, x_star, part)) <= tol


def test_sample_residuals_rejects_wrong_width():
    part, _ = make_row(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros((2, 5)))
    with pytest.raises(ShapeMismatchError):
        sample_residuals(part, np.zeros(6))


def test_column_consensus_memory_stays_below_all_pairs():
    # 2 clusters x 40 one-row agents of 30 columns each: every agent pair of
    # a cluster at once would be a 16 x 780 x 30 temporary (3 MB)
    rng = np.random.default_rng(47)
    m, n_i, count = 40, 30, 16
    a = rng.uniform(-1, 1, size=(m, 2 * n_i))
    part, _ = make_col(a, a @ rng.uniform(-1, 1, size=2 * n_i), [n_i, n_i], [[1] * m] * 2)
    ys = rng.normal(size=(count, part.x_dim + part.z_dim))
    want = [oracle_residuals(part, y)[1] for y in ys[:2]]
    sample_residuals(part, ys[:1])  # build the cached reassembly untraced
    tracemalloc.start()
    try:
        _, consensus, _ = sample_residuals(part, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    all_pairs = count * (m * (m - 1) // 2) * n_i * 8
    assert peak < all_pairs / 2, peak
    assert np.allclose(consensus[:2], want, rtol=0.0, atol=1e-12)

import copy
import dataclasses
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from duolayer import (
    InconsistentSystemError,
    Layout,
    Lift,
    ProblemInstance,
    SaddleBlocks,
    StructureError,
    Topology,
    assemble_compact,
    build_graph,
    check_drift_spectrum,
    check_saddle_spectrum,
    equilibrium_certificate,
    lifted_laplacian,
    partition_columns,
    partition_rows,
    solve_least_squares,
    spectrum_verdict,
)
from duolayer.instances import random_composition, random_connected_graph, random_instance
from helpers import random_orthogonal, random_saddle_blocks, scaled_systems


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def topology(cluster_count, agent_counts):
    return Topology(
        cluster_graph=path(cluster_count),
        agent_graphs=tuple(path(c) for c in agent_counts),
    )


def single_agent_system():
    layout = Layout(scheme="row", cluster_sizes=[1], agent_sizes=[[1]])
    topo = topology(1, [1])
    inst = ProblemInstance(a=np.array([[2.0]]), b=np.array([4.0]), topology=topo, layout=layout)
    part = partition_rows(inst)
    return part, topo


def test_single_agent_compact_form():
    part, topo = single_agent_system()
    cs = assemble_compact(part, topo)
    assert np.array_equal(cs.drift_matrix, np.array([[-4.0, 0.0], [2.0, 0.0]]))
    assert np.array_equal(cs.forcing, np.array([8.0, -4.0]))
    verdict = check_drift_spectrum(cs)
    assert verdict.passed
    assert np.allclose(verdict.spectrum.eigenvalues, [-4.0, 0.0])


def test_compact_dimensions_row():
    rng = np.random.default_rng(2)
    inst, part = random_instance(rng, "row", 6)
    cs = assemble_compact(part, inst.topology)
    c = part.cluster_count
    n = part.total_cols
    z = sum(ct * m for ct, m in zip(part.agent_counts, part.cluster_rows))
    assert cs.dim_x == c * n == part.x_dim
    assert cs.dim == c * n + z
    assert cs.drift_matrix.shape == (cs.dim, cs.dim)
    assert cs.forcing.shape == (cs.dim,)


def test_compact_dimensions_column():
    rng = np.random.default_rng(4)
    inst, part = random_instance(rng, "column", 6)
    cs = assemble_compact(part, inst.topology)
    c = part.cluster_count
    m = part.total_rows
    x = sum(ct * n for ct, n in zip(part.agent_counts, part.cluster_cols))
    assert cs.dim_x == x == part.x_dim
    assert cs.dim == x + c * m
    assert cs.scheme == "column"


def test_assemble_compact_rejects_topology_mismatch():
    part, _ = single_agent_system()
    with pytest.raises(ValueError):
        assemble_compact(part, topology(2, [1, 1]))


def test_saddle_example_spectrum():
    blocks = SaddleBlocks(
        coupling=[[1.0]], primal_damping=[[0.0]], dual_damping=[[1.0]]
    )
    assert np.array_equal(blocks.matrix(), np.array([[-1.0, 1.0], [1.0, -1.0]]))
    verdict = check_saddle_spectrum(blocks)
    assert verdict.passed
    assert np.allclose(verdict.spectrum.eigenvalues, [-2.0, 0.0])


def test_defective_counterexample_is_flagged():
    verdict = spectrum_verdict([[0.0, 1.0], [0.0, 0.0]])
    assert verdict.real_ok and verdict.imag_ok
    assert not verdict.nondefective_ok
    assert not verdict.passed


def test_rotation_fails_imaginary_check():
    verdict = spectrum_verdict([[0.0, -1.0], [1.0, 0.0]])
    assert not verdict.imag_ok
    assert not verdict.passed


def test_positive_eigenvalue_fails_real_check():
    verdict = spectrum_verdict([[1.0, 0.0], [0.0, -1.0]])
    assert not verdict.real_ok


def test_verdict_to_dict_round_trips_to_json_types():
    verdict = spectrum_verdict(np.diag([-1.0, 0.0]))
    d = verdict.to_dict()
    assert d["passed"] is True
    assert d["eigenvalues"] == [[-1.0, 0.0], [0.0, 0.0]]
    assert d["rank"] == 1 and d["rank_squared"] == 1
    assert d["sigma_max"] == 1.0 and d["kernel_gap"] == 1.0
    assert d["kernel_margin"] == 1.0 and d["kernel_bound"] == 0.0
    assert d["structure_residual"] is None
    assert json.loads(json.dumps(d)) == d
    part, topo = single_agent_system()
    d = check_drift_spectrum(assemble_compact(part, topo)).to_dict()
    assert d["sigma_max"] is d["kernel_gap"] is d["kernel_margin"] is d["kernel_bound"] is None
    assert 0.0 <= d["structure_residual"] <= 1.0
    assert d["rank"] == d["rank_squared"] == 1 and d["scale"] == 5.0
    assert json.loads(json.dumps(d)) == d


def test_structured_route_matches_generic_route():
    # dims up to 4 * 40 + 4 * 40 = 320, wide and tall A, both schemes
    for seed in range(8):
        for scheme in ("row", "column"):
            for tall in (False, True):
                rng = np.random.default_rng([61, seed, tall])
                inst, part = random_instance(rng, scheme, int(rng.integers(2, 41)), tall=tall)
                cs = assemble_compact(part, inst.topology)
                assert cs.dim <= 320
                structured = check_drift_spectrum(cs)
                generic = spectrum_verdict(cs.drift_matrix)
                label = (seed, scheme, tall, cs.dim)
                assert structured.passed and generic.passed, label
                gap = np.max(np.abs(structured.spectrum.eigenvalues - generic.spectrum.eigenvalues))
                assert gap < 1e-12 * generic.scale, (label, gap)
                assert structured.spectrum.rank == generic.spectrum.rank, label
                assert structured.scale <= generic.scale * (1.0 + 1e-12), label


@pytest.mark.parametrize("scheme", ["row", "column"])
@pytest.mark.parametrize(
    "corruption, check",
    [
        ("coupling", "Q12 = -Q21.T Q22"),
        ("dual", "Q22 symmetric"),
        ("primal", "P positive"),
        ("primal-asymmetric", "P = -(Q11 + Q21.T Q21) symmetric"),
    ],
)
def test_structure_violations_raise(scheme, corruption, check):
    inst, part = random_instance(np.random.default_rng(5), scheme, 6, max_agents=3)
    cs = assemble_compact(part, inst.topology)
    dx = cs.dim_x
    assert cs.dim - dx >= 2
    delta = 1e-6 * check_drift_spectrum(cs).scale
    if corruption == "coupling":
        q12 = cs.q12.copy()
        q12[0, 0] += delta
        corrupted = dataclasses.replace(cs, q12=q12)
    elif corruption == "dual":
        # Q22[0, 1] += delta, injected as the one-term lift of the dense D
        d = cs.saddle.dual_damping.matrix()
        d[0, 1] -= delta
        corrupted = dataclasses.replace(cs, saddle=unvalidated(cs.saddle, dual_damping=Lift(((d, 1),))))
    elif corruption == "primal":
        # P = -(Q11 + Q21.T Q21) loses delta on its diagonal; its Laplacian
        # kernel turns negative
        q11 = cs.q11.copy()
        q11[np.arange(dx), np.arange(dx)] += delta
        corrupted = dataclasses.replace(cs, q11=q11)
    else:
        q11 = cs.q11.copy()
        q11[0, 1] += delta
        corrupted = dataclasses.replace(cs, q11=q11)
    with pytest.raises(ValueError, match=re.escape(f"check {check}")):
        check_drift_spectrum(corrupted)


def unvalidated(saddle, **factors):
    """saddle with factors replaced past SaddleBlocks' own validation, as a
    factor corrupted after it was built would reach the verdict.  A damping
    factor is given as a Lift, which checks only its shape."""
    corrupted = copy.copy(saddle)
    for name, value in factors.items():
        object.__setattr__(corrupted, name, value)
    return corrupted


def with_saddle(cs, saddle):
    """cs over another saddle triple, with the Q11 and Q12 that triple makes."""
    q11, q12 = saddle.upper_blocks()
    return dataclasses.replace(cs, saddle=saddle, q11=q11, q12=q12)


def saddle_reference(c, p, d):
    """The stacked drift from its blocks by np.block: -C.T @ C is the product
    of the negated copy of C.T, so its zeros keep the product's signs.  P
    and D may be Lifts, read as their dense arrays by matrix()."""
    p, d = (f.matrix() if isinstance(f, Lift) else f for f in (p, d))
    return np.block([[-c.T @ c - p, c.T @ d], [c, -d]])


def assert_same_bits(m, reference):
    assert m.shape == reference.shape
    assert np.array_equal(m.view(np.int64), reference.view(np.int64))


def mixed_block_system(scheme, single):
    """(partition, topology) of a small consistent system whose Q22 has
    blocks of 3 (row: a three-agent cluster) or of 2 (column: two
    clusters), with 1 x 1 blocks as well when single: a one-agent cluster's
    zero rows (row) or a one-node cluster graph (column)."""
    rng = np.random.default_rng(11)
    if scheme == "row":
        layout = Layout(scheme="row", cluster_sizes=[3, 2], agent_sizes=[[1, 1, 1], [3]])
        topo, m, n = topology(2, [3, 1]), 5, 3
    elif single:
        layout = Layout(scheme="column", cluster_sizes=[3], agent_sizes=[[2, 3]])
        topo, m, n = topology(1, [2]), 5, 3
    else:
        layout = Layout(scheme="column", cluster_sizes=[2, 1], agent_sizes=[[2, 3], [4, 1]])
        topo, m, n = topology(2, [2, 2]), 5, 3
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    inst = ProblemInstance(a=a, b=a @ rng.uniform(-1.0, 1.0, n), topology=topo, layout=layout)
    return (partition_rows if scheme == "row" else partition_columns)(inst), topo


@pytest.mark.parametrize("single", [False, True], ids=["multi-node-block", "1x1-block"])
@pytest.mark.parametrize("scheme", ["row", "column"])
def test_q12_check_covers_every_row_of_a_block_column(scheme, single):
    # Q12 = -Q21.T Q22 is checked one block of Q22 at a time: a column of
    # Q12 is judged with the block of Q22 that holds its column, also when
    # that block is a zero row of Q22
    part, topo = mixed_block_system(scheme, single)
    cs = assemble_compact(part, topo)
    dx = cs.dim_x
    blocks = {idx.shape[1]: idx for idx, _, _ in cs.dual_eigh}
    size = 1 if single else max(blocks)
    assert (size == 1) == single and size in blocks
    delta = 1e-6 * check_drift_spectrum(cs).scale
    for column in blocks[size][[0, -1], 0]:
        for row in range(dx):
            q12 = cs.q12.copy()
            q12[row, column] += delta
            with pytest.raises(StructureError, match="check Q12 = -Q21.T Q22"):
                check_drift_spectrum(dataclasses.replace(cs, q12=q12))


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_q22_edge_joining_two_blocks_is_judged(scheme):
    part, topo = mixed_block_system(scheme, False)
    cs = assemble_compact(part, topo)
    c, p, d = cs.saddle.coupling, cs.saddle.primal_damping, cs.saddle.dual_damping.matrix()
    rows = [row for idx, _, _ in cs.dual_eigh for row in idx]
    i, j = rows[0][0], rows[-1][0]
    # D plus the Laplacian of one edge between two of its blocks, as the
    # one-term lift of the dense sum: one block
    edge = np.zeros(len(d))
    edge[[i, j]] = 1.0, -1.0
    joined_d = d + 0.5 * np.outer(edge, edge)
    # in D alone, beside the stored Q12, the join breaks Q12 = -Q21.T Q22
    joined = dataclasses.replace(cs, saddle=SaddleBlocks(c, p, joined_d))
    assert len(rows) > 1 and [idx.shape for idx, _, _ in joined.dual_eigh] == [(1, len(d))]
    with pytest.raises(StructureError, match="check Q12 = -Q21.T Q22"):
        check_drift_spectrum(joined)
    # with a matching Q12 the joined system is a saddle: the generic verdict
    consistent = with_saddle(cs, SaddleBlocks(c, p, joined_d))
    structured = check_drift_spectrum(consistent)
    generic = spectrum_verdict(consistent.drift_matrix)
    assert structured.passed and generic.passed
    assert structured.spectrum.rank == generic.spectrum.rank
    gap = np.max(np.abs(structured.spectrum.eigenvalues - generic.spectrum.eigenvalues))
    assert gap < 1e-12 * generic.scale


@pytest.mark.parametrize("k", range(-4, 6))
def test_structured_verdict_passes_at_every_scale(k):
    # P = -(Q11 + Q21.T Q21) is recovered by cancellation, so its rounding
    # grows like |A|^2 and the PSD tolerance must grow with it.  The rank is
    # not compared: its cutoff is relative to rho, which grows like |A|^2 too.
    for label, _, cs in scaled_systems(k):
        assert check_drift_spectrum(cs).passed, label


@pytest.mark.parametrize("k", range(-6, 11))
def test_equilibrium_certificate_at_every_scale(k):
    # the rounding of Q v + f grows like |A|^2: an absolute stationarity
    # tolerance failed correct certificates from 10^7 up
    for label, part, cs in scaled_systems(k):
        _, z_hat = equilibrium_certificate(cs, part)
        assert z_hat.shape == (cs.dim - cs.dim_x,), label


@pytest.mark.parametrize("k", range(-6, 11))
def test_corrupted_certificate_raises_at_every_scale(k):
    # shifting b_stack along ker D leaves D z = C x - b_stack unsolvable; the
    # minimum-norm z drops the shift, so only the stationarity test sees it.
    # An absolute tolerance accepted all 40 such certificates at 10^-6.
    for label, part, cs in scaled_systems(k):
        kernel = np.linalg.eigh(cs.saddle.dual_damping.matrix())[1][:, 0]
        shift = 1e-3 * np.max(np.abs(cs.b_stack)) / np.max(np.abs(kernel)) * kernel
        corrupted = dataclasses.replace(cs, b_stack=cs.b_stack + shift)
        with pytest.raises(ArithmeticError, match="failed to be stationary"):
            equilibrium_certificate(corrupted, part)
            pytest.fail(f"corrupted certificate accepted: {label}")


def test_verdict_and_certificate_share_one_eigh(monkeypatch):
    # in either order: D is factored once per system, and the one lstsq left
    # is the certificate's solve of A x = b.  A factorization takes one
    # batched eigh per block size, so the eigh calls must match its block
    # sizes, and a replaced system shares the saddle and its factors.
    calls = []

    def counted(name, owner):
        wrapped = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted("eigh", np.linalg)
    counted("lstsq", np.linalg)
    for label, part, cs in scaled_systems():
        calls.clear()
        verdict = check_drift_spectrum(cs).to_dict()
        equilibrium_certificate(cs, part)
        factor = ["eigh"] * len(cs.dual_eigh)
        assert calls == factor + ["lstsq"], label
        fresh = dataclasses.replace(cs)
        equilibrium_certificate(fresh, part)
        assert check_drift_spectrum(fresh).to_dict() == verdict, label
        assert calls == factor + ["lstsq", "lstsq"] + factor, label
        for system in (cs, fresh):
            for arr in (arr for group in system.dual_eigh for arr in group):
                assert not arr.flags.writeable, label
        calls.clear()


def test_verdict_and_certificate_never_build_the_dense_drift(monkeypatch):
    # Q is kept as its factors and two computed blocks, and P and D as their
    # lifts: assembly, verdict and certificate build no dense lift.  Only a
    # read of drift_matrix assembles Q, bit for bit the blocks it is made of
    def refused(lift):
        raise AssertionError("a dense lift was built")

    monkeypatch.setattr(Lift, "matrix", refused)
    systems = list(scaled_systems())
    for label, part, cs in systems:
        assert check_drift_spectrum(cs).passed, label
        equilibrium_certificate(cs, part)
        assert "drift_matrix" not in vars(cs), label
    monkeypatch.undo()
    for label, _, cs in systems:
        q, dx = cs.drift_matrix, cs.dim_x
        assert_same_bits(q[:dx, :dx], cs.q11)
        assert_same_bits(q[:dx, dx:], cs.q12)
        assert_same_bits(q[dx:, :dx], cs.saddle.coupling)
        assert_same_bits(q[dx:, dx:], -cs.saddle.dual_damping.matrix())


@pytest.mark.parametrize("k", [-6, 0, 6])
def test_block_matvec_matches_the_dense_drift(k):
    rng = np.random.default_rng(40)
    for label, _, cs in scaled_systems(k):
        q = cs.drift_matrix
        v = rng.normal(size=cs.dim)
        size = np.abs(q) @ np.abs(v)
        assert np.max(np.abs(cs.matvec(v) - q @ v)) <= 1e-14 * np.max(size), label
        assert np.max(np.abs(cs.matvec(np.abs(v), absolute=True) - size)) <= 1e-14 * np.max(size), label


def test_certificate_balance_matches_least_squares():
    for label, part, cs in scaled_systems():
        x_hat, z_hat = equilibrium_certificate(cs, part)
        reference = solve_least_squares(
            cs.saddle.dual_damping.matrix(), cs.saddle.coupling @ x_hat - cs.b_stack
        )
        assert np.linalg.norm(z_hat - reference) <= 1e-12 * np.linalg.norm(reference), label


def test_compact_system_arrays_are_read_only():
    inst, part = random_instance(np.random.default_rng(3), "column", 6)
    cs = assemble_compact(part, inst.topology)
    factor = cs.dual_eigh
    arrays = [cs.q11, cs.q12, cs.drift_matrix] + [arr for group in factor for arr in group]
    assert len(arrays) >= 6
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    assert cs.dual_eigh is factor


@pytest.mark.parametrize("seed", [1234, 1954, 4455])
@pytest.mark.parametrize("scheme", ["row", "column"])
def test_square_uniform_instances_pass(seed, scheme):
    # square uniform A puts genuine singular values of Q near 1e-5 relative;
    # a rank test on Q @ Q squared them under the 1e-10 cutoff and called
    # these non-defective drifts defective
    inst, part = random_instance(np.random.default_rng(seed), scheme, 40)
    cs = assemble_compact(part, inst.topology)
    # the kernel fields come from the generic route's certificate
    verdict = spectrum_verdict(cs.drift_matrix)
    sp = verdict.spectrum
    assert verdict.passed, verdict.to_dict()
    assert sp.rank == sp.rank_squared
    assert sp.kernel_gap < 1e-4
    assert sp.kernel_margin > 1e3 * sp.kernel_bound
    structured = check_drift_spectrum(cs)
    assert structured.passed, structured.to_dict()
    assert structured.spectrum.rank == structured.spectrum.rank_squared == sp.rank
    gap = np.max(np.abs(structured.spectrum.eigenvalues - sp.eigenvalues))
    assert gap < 1e-12 * verdict.scale


def square_instance(scheme, n, clusters, agents):
    """(partition, topology) of a seeded m = n instance with clusters x
    agents: dim (clusters + agents) * n."""
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    topo = Topology(
        cluster_graph=random_connected_graph(rng, clusters),
        agent_graphs=tuple(random_connected_graph(rng, agents) for _ in range(clusters)),
    )
    layout = Layout(
        scheme=scheme,
        cluster_sizes=random_composition(rng, n, clusters),
        agent_sizes=[random_composition(rng, n, agents) for _ in range(clusters)],
    )
    inst = ProblemInstance(a=a, b=a @ rng.uniform(-1.0, 1.0, n), topology=topo, layout=layout)
    return (partition_rows if scheme == "row" else partition_columns)(inst), topo


def dim_1600_row_system():
    """(partition, compact system) of the seeded m = n = 100 row instance with
    8 clusters x 8 agents: dim 1600, D made of 100 blocks of 8."""
    part, topo = square_instance("row", 100, 8, 8)
    return part, assemble_compact(part, topo)


def test_dim_1600_row_instance_passes_within_budget():
    # m = n = 100, 8 clusters x 8 agents: kernel of dimension 100 and a
    # smallest nonzero singular value 1.7e-5 relative to the largest
    _, cs = dim_1600_row_system()
    assert cs.dim == 1600
    started = time.perf_counter()
    verdict = check_drift_spectrum(cs)
    elapsed = time.perf_counter() - started
    assert verdict.passed, {k: v for k, v in verdict.to_dict().items() if k != "eigenvalues"}
    assert verdict.spectrum.rank == verdict.spectrum.rank_squared == 1500
    # about 0.3 s on a 2-vCPU host, 0.24 s of it the eigvalsh of S; Q12 is
    # checked block by block (the generic route takes about 3 s)
    assert elapsed < 15.0, f"took {elapsed:.1f}s"


def held_arrays(obj):
    """Every array obj holds, through attributes, tuples and lists, once each."""
    found, stack = {}, [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found[id(value)] = value
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.extend(vars(value).values())
    return list(found.values())


def test_dim_1600_assembly_peak_memory():
    # only Q11 and Q12 are computed, C.T D block by block, P and D stay
    # lifts of the graph Laplacians, and the dense Q is not stored: beside
    # what the system keeps, assembly holds about one dim_x x dim_z
    # temporary (the negated C.T).  np.block and its quarter-size blocks
    # peaked 14.6 MiB above it.
    for scheme in ("row", "column"):
        part, topo = square_instance(scheme, 100, 8, 8)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cs = assemble_compact(part, topo)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        # q11, q12, C, b_stack and the lifts: each L_k and D's blocks
        held = held_arrays(cs)
        dim_x, dim_z = cs.dim_x, cs.dim - cs.dim_x
        assert cs.dim == 1600, scheme
        # m = n, so C (dim_z x dim_x) and q12 (dim_x x dim_z) are square too
        dense = (cs.q11, cs.q12, cs.saddle.coupling)
        others = [arr.shape for arr in held if not any(arr is d for d in dense)]
        assert not {(dim_x, dim_x), (dim_z, dim_z)} & set(others), (scheme, others)
        assert "drift_matrix" not in vars(cs), scheme
        kept = sum(arr.nbytes for arr in held)
        quarter = dim_x * dim_z * 8
        assert peak - kept <= 1.5 * quarter, f"{scheme}: {(peak - kept) / 2**20:.1f} MiB above the system"


def test_dim_1600_factor_eigensolves_only_graph_sized_blocks(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    part, cs = dim_1600_row_system()
    assert check_drift_spectrum(cs).passed
    equilibrium_certificate(cs, part)
    # one batched eigh of the 100 agent-layer blocks, no 800 x 800 one
    assert shapes == [(100, 8, 8)]
    assert max(arr.shape[-1] for group in cs.dual_eigh for arr in group) == 8


@pytest.mark.parametrize("k", [-6, 0, 6])
def test_dual_factor_matches_dense_eigh(k):
    for label, _, cs in scaled_systems(k):
        d = -cs.drift_matrix[cs.dim_x :, cs.dim_x :]
        dense = np.linalg.eigvalsh(d)
        tol = 1e-13 * np.max(np.abs(dense))
        factor = cs.dual_eigh
        covered = np.sort(np.concatenate([idx.ravel() for idx, _, _ in factor]))
        assert np.array_equal(covered, np.arange(len(d))), label
        lam = np.sort(np.concatenate([lam.ravel() for _, lam, _ in factor]))
        assert np.max(np.abs(lam - dense)) <= tol, label
        # the blocks rebuild D, which is therefore zero outside them
        rebuilt = np.zeros_like(d)
        for idx, lam, vecs in factor:
            eye = np.eye(idx.shape[1])
            assert np.max(np.abs(vecs.transpose(0, 2, 1) @ vecs - eye)) < 1e-14 * len(eye), label
            rebuilt[idx[:, :, None], idx[:, None, :]] = (vecs * lam[:, None, :]) @ vecs.transpose(0, 2, 1)
        assert np.max(np.abs(rebuilt - d)) <= tol, label


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_dense_dual_is_one_block_with_the_same_verdict(scheme):
    inst, part = random_instance(np.random.default_rng(7), scheme, 12)
    cs = assemble_compact(part, inst.topology)
    c, p, d = cs.saddle.coupling, cs.saddle.primal_damping, cs.saddle.dual_damping.matrix()
    w = np.random.default_rng(8).uniform(0.5, 1.0, size=len(d))
    spread = np.outer(w, w)
    # a dense PSD D keeps the saddle structure: one block, and the verdict of
    # the generic route
    dense_d = d + 0.1 * spread
    dense = with_saddle(cs, SaddleBlocks(c, p, dense_d))
    assert [idx.shape for idx, _, _ in dense.dual_eigh] == [(1, len(d))]
    structured = check_drift_spectrum(dense)
    generic = spectrum_verdict(dense.drift_matrix)
    assert structured.passed and generic.passed
    assert structured.spectrum.rank == generic.spectrum.rank
    gap = np.max(np.abs(structured.spectrum.eigenvalues - generic.spectrum.eigenvalues))
    assert gap < 1e-12 * generic.scale
    x_hat, z_hat = equilibrium_certificate(dense, part)
    reference = solve_least_squares(dense_d, c @ x_hat - cs.b_stack)
    assert np.linalg.norm(z_hat - reference) <= 1e-12 * np.linalg.norm(reference)
    # D alone made dense, beside the stored Q12, breaks Q12 = -Q21.T Q22,
    # which is checked first
    stale = dataclasses.replace(cs, saddle=SaddleBlocks(c, p, dense_d))
    with pytest.raises(StructureError, match="check Q12 = -Q21.T Q22"):
        check_drift_spectrum(stale)
    # a dense indefinite D with a matching Q12: D's own PSD check fails
    bad_d = d - 0.1 * spread
    indefinite = with_saddle(cs, unvalidated(cs.saddle, dual_damping=Lift(((bad_d, 1),))))
    with pytest.raises(StructureError, match="check D = -Q22 positive semi-definite"):
        check_drift_spectrum(indefinite)


@pytest.mark.parametrize("extra_zeros", [0, 1])
@pytest.mark.parametrize("jordan", [2, 3])
def test_hidden_jordan_block_fails_and_semisimple_twin_passes(jordan, extra_zeros):
    n = 30
    zeros = jordan + extra_zeros
    # 20 draws each; (2, 1) at seed 18 leaves M - mu I exactly singular
    for seed in range(20):
        rng = np.random.default_rng(seed)
        stable = -np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n - zeros))
        semisimple = np.diag(np.concatenate([stable, np.zeros(zeros)]))
        defective = semisimple.copy()
        for i in range(n - zeros, n - zeros + jordan - 1):
            defective[i, i + 1] = 1.0
        # well-conditioned similarity: condition number below e^1.4
        s = (random_orthogonal(rng, n) * np.exp(rng.uniform(-0.7, 0.7, size=n))) @ random_orthogonal(rng, n)
        s_inv = np.linalg.inv(s)
        bad = spectrum_verdict(s @ defective @ s_inv)
        assert not bad.nondefective_ok and not bad.passed, seed
        assert bad.spectrum.rank == n - 1 - extra_zeros
        assert bad.spectrum.rank_squared < bad.spectrum.rank
        good = spectrum_verdict(s @ semisimple @ s_inv)
        assert good.passed, (seed, good.to_dict())
        assert good.spectrum.rank == good.spectrum.rank_squared == n - zeros


def test_block_stacking_matches_scipy_block_diag():
    # the assembled drift equals np.block of the reference blocks bit for
    # bit, signed zeros included: eigvalsh's Householder signs follow them
    rng = np.random.default_rng(17)
    draws = [random_instance(rng, scheme, 8, max_agents=3) for scheme in ("row", "column")]
    draws += [
        random_instance(np.random.default_rng([seed, k]), scheme, 12, max_agents=4)
        for seed in range(20)
        for k, scheme in enumerate(("row", "column"))
    ]
    systems = [(part, inst.topology) for inst, part in draws]
    systems += [square_instance(scheme, 40, 4, 4) for scheme in ("row", "column")]
    systems.append(square_instance("row", 100, 8, 8))
    sizes = set()
    for part, topo in systems:
        scheme = part.scheme
        cs = assemble_compact(part, topo)
        sizes.add(cs.dim)
        a_stack = block_diag(*[block for row in part.blocks for block in row])
        if scheme == "row":
            widths, cluster_width = part.cluster_rows, part.total_cols
        else:
            widths, cluster_width = part.cluster_cols, part.total_rows
        agent_lap = block_diag(
            *[lifted_laplacian(g, w) for g, w in zip(topo.agent_graphs, widths)]
        )
        cluster_lap = lifted_laplacian(topo.cluster_graph, cluster_width)
        x_damping, z_lap = (cluster_lap, agent_lap) if scheme == "row" else (agent_lap, cluster_lap)
        assert np.array_equal(cs.saddle.coupling, a_stack)
        assert np.array_equal(cs.saddle.primal_damping.matrix(), x_damping)
        assert np.array_equal(cs.saddle.dual_damping.matrix(), z_lap)
        assert_same_bits(cs.drift_matrix, saddle_reference(a_stack, x_damping, z_lap))
    assert {320, 1600} <= sizes
    # dense D (one block), the seeded saddle triples and the empty shapes
    saddle_rng = np.random.default_rng(18)
    triples = [random_saddle_blocks(saddle_rng) for _ in range(20)]
    d = triples[0].dual_damping
    assert len(d.blocks) == 1 and d.shape[0] > 1
    lap = lifted_laplacian(path(3), 1)
    triples += [
        SaddleBlocks(np.zeros((0, 3)), lap, np.zeros((0, 0))),  # r = 0
        SaddleBlocks(np.zeros((3, 0)), np.zeros((0, 0)), lap),  # s = 0
        SaddleBlocks(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    ]
    for blocks in triples:
        c, p, d = blocks.coupling, blocks.primal_damping, blocks.dual_damping
        assert_same_bits(blocks.matrix(), saddle_reference(c, p, d))


def dense_dampings(part, topo):
    """(P, D) of a partition as dense arrays: graph.lifted_laplacian of each
    graph, stacked by scipy's block_diag."""
    widths, cluster_width = (
        (part.cluster_rows, part.total_cols) if part.scheme == "row" else (part.cluster_cols, part.total_rows)
    )
    agent_lap = block_diag(*[lifted_laplacian(g, w) for g, w in zip(topo.agent_graphs, widths)])
    cluster_lap = lifted_laplacian(topo.cluster_graph, cluster_width)
    return (cluster_lap, agent_lap) if part.scheme == "row" else (agent_lap, cluster_lap)


def assert_lift_matches(lift, dense):
    """lift is dense, bit for bit; its blocks cover every index once, in
    ascending sizes, hold dense's entries bit for bit, and dense is zero
    outside them."""
    assert_same_bits(lift.matrix(), dense)
    sizes = [idx.shape[1] for idx, _ in lift.blocks]
    assert sizes == sorted(set(sizes))
    covered = np.concatenate([idx.ravel() for idx, _ in lift.blocks] + [np.zeros(0, dtype=np.intp)])
    assert covered.dtype == np.intp and np.array_equal(np.sort(covered), np.arange(len(dense)))
    inside = np.zeros(dense.shape, dtype=bool)
    for idx, sub in lift.blocks:
        assert_same_bits(sub, dense[idx[:, :, None], idx[:, None, :]])
        inside[idx[:, :, None], idx[:, None, :]] = True
    assert not np.any(dense[~inside])


def test_lifts_match_the_dense_reference():
    # the systems of test_block_stacking_matches_scipy_block_diag, then
    # one-agent clusters and a one-node cluster graph
    rng = np.random.default_rng(17)
    draws = [random_instance(rng, scheme, 8, max_agents=3) for scheme in ("row", "column")]
    draws += [
        random_instance(np.random.default_rng([seed, k]), scheme, 12, max_agents=4)
        for seed in range(20)
        for k, scheme in enumerate(("row", "column"))
    ]
    systems = [(part, inst.topology) for inst, part in draws]
    systems += [square_instance(scheme, 40, 4, 4) for scheme in ("row", "column")]
    systems.append(square_instance("row", 100, 8, 8))
    systems += [mixed_block_system(scheme, single) for scheme in ("row", "column") for single in (0, 1)]
    sizes = set()
    for part, topo in systems:
        saddle = assemble_compact(part, topo).saddle
        p, d = dense_dampings(part, topo)
        assert_lift_matches(saddle.primal_damping, p)
        assert_lift_matches(saddle.dual_damping, d)
        sizes.update(idx.shape[1] for idx, _ in saddle.dual_damping.blocks)
        c = saddle.coupling
        assert_same_bits(saddle.upper_blocks()[0], -c.T @ c - p)
    assert {1, 2, 3, 4, 8} <= sizes
    # dense factors are one-term lifts (m, 1): the seeded saddle triples and
    # the empty shapes
    saddle_rng = np.random.default_rng(18)
    lap = lifted_laplacian(path(3), 1)
    triples = [random_saddle_blocks(saddle_rng) for _ in range(20)]
    triples += [
        SaddleBlocks(np.zeros((0, 3)), lap, np.zeros((0, 0))),
        SaddleBlocks(np.zeros((3, 0)), np.zeros((0, 0)), lap),
        SaddleBlocks(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    ]
    for blocks in triples:
        for lift in (blocks.primal_damping, blocks.dual_damping):
            ((m, width),) = lift.terms
            assert width == 1
            assert_lift_matches(lift, m)
    # scattered blocks of several sizes, lifted with width 2 beside a
    # one-node term and the same block unlifted
    m = np.zeros((5, 5))
    for i, j, weight in ((0, 3, 1.0), (1, 4, 2.0)):
        m[[i, j, i, j], [i, j, j, i]] = weight, weight, -weight, -weight
    lift = Lift(((m, 2), (np.zeros((1, 1)), 3), (m, 1)))
    assert_lift_matches(lift, block_diag(np.kron(m, np.eye(2)), np.zeros((3, 3)), m))
    # one block per term copy, not per connected block of m's pattern
    assert [idx.tolist() for idx, _ in lift.blocks] == [
        [[10], [11], [12]],
        [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9], [13, 14, 15, 16, 17]],
    ]


def test_lift_blocks_mixed_sizes_column_scheme():
    # column scheme: P stacks L_i (x) I_{w_i} per cluster, so cluster i gives
    # w_i blocks of its agent count k_i, strided by w_i
    layout = Layout(scheme="column", cluster_sizes=[2, 3, 1], agent_sizes=[[1, 1, 1], [3], [2, 1]])
    paths = [path(n) for n in (3, 1, 2)]
    topo = Topology(cluster_graph=paths[0], agent_graphs=tuple(paths))
    a = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 6))
    part = partition_columns(ProblemInstance(a=a, b=a.sum(axis=1), topology=topo, layout=layout))
    p = assemble_compact(part, topo).saddle.primal_damping
    assert [idx.tolist() for idx, _ in p.blocks] == [[[6], [7], [8]], [[9, 10]], [[0, 2, 4], [1, 3, 5]]]


def test_lift_validation():
    lap = lifted_laplacian(path(2), 1)
    for width in (0, -1, 1.5, True, np.bool_(True)):
        with pytest.raises(ValueError, match="width >= 1"):
            Lift(((lap, width),))
    with pytest.raises(ValueError, match="square"):
        Lift(((np.zeros((2, 3)), 1),))
    assert Lift(((lap, np.int64(2)),)).shape == (4, 4)
    # numpy never builds the dense lift implicitly
    lift = Lift(((lap, 2),))
    with pytest.raises(TypeError, match=r"\.matrix\(\)"):
        np.asarray(lift)


def test_saddle_blocks_validation():
    with pytest.raises(ValueError):
        SaddleBlocks(coupling=[[1.0]], primal_damping=[[0.0, 0.0]], dual_damping=[[1.0]])
    with pytest.raises(ValueError):
        SaddleBlocks(
            coupling=[[1.0, 0.0]],
            primal_damping=[[0.0, 1.0], [0.0, 0.0]],  # not symmetric
            dual_damping=[[1.0]],
        )
    with pytest.raises(ValueError):
        SaddleBlocks(
            coupling=[[1.0]], primal_damping=[[0.0]], dual_damping=[[-1.0]]
        )


def test_psd_check_outside_gershgorin_discs():
    # PSD but not diagonally dominant: settled by the eigenvalue fallback
    SaddleBlocks(
        coupling=[[1.0, 0.0]],
        primal_damping=[[1.0, 2.0], [2.0, 4.0]],  # eigenvalues 0 and 5
        dual_damping=[[1.0]],
    )
    with pytest.raises(ValueError, match="positive semi-definite"):
        SaddleBlocks(
            coupling=[[1.0, 0.0]],
            primal_damping=[[1.0, 2.0], [2.0, 1.0]],  # eigenvalues -1 and 3
            dual_damping=[[1.0]],
        )


def test_random_saddle_blocks_pass_and_symmetrize():
    rng = np.random.default_rng(8)
    for _ in range(20):
        blocks = random_saddle_blocks(rng)
        assert check_saddle_spectrum(blocks).passed
        # scaling the dual rows by D makes the block matrix symmetric NSD
        m = blocks.matrix()
        s = blocks.primal_damping.shape[0]
        r = blocks.dual_damping.shape[0]
        scale = np.block(
            [
                [np.eye(s), np.zeros((s, r))],
                [np.zeros((r, s)), blocks.dual_damping.matrix()],
            ]
        )
        sym = scale @ m
        assert np.allclose(sym, sym.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).max() < 1e-10


def test_raw_gaussian_saddle_spectra_stay_left_and_real():
    # unconditioned draws: only the sign and realness assertions, since the
    # rank comparison is measurement-limited for ill-conditioned damping
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        c = rng.normal(size=(r, s))
        g = rng.normal(size=(s, s))
        h = rng.normal(size=(r, r))
        blocks = SaddleBlocks(coupling=c, primal_damping=g.T @ g, dual_damping=h.T @ h)
        verdict = check_saddle_spectrum(blocks)
        assert verdict.real_ok
        assert verdict.imag_ok


def test_drift_spectrum_rejects_corrupted_laplacian():
    # a corrupted Laplacian never reaches the verdict: the SaddleBlocks a
    # CompactSystem holds rejects it by its symmetry and PSD checks
    layout = Layout(scheme="row", cluster_sizes=[2], agent_sizes=[[1, 1]])
    topo = topology(1, [2])
    inst = ProblemInstance(
        a=np.array([[2.0, 1.0], [0.0, 1.0]]), b=np.array([1.0, 1.0]), topology=topo, layout=layout
    )
    good = assemble_compact(partition_rows(inst), topo).saddle
    skew = good.dual_damping.matrix()
    skew[0, -1] += 1.0
    with pytest.raises(ValueError, match="dual damping is not symmetric"):
        SaddleBlocks(
            coupling=good.coupling, primal_damping=good.primal_damping, dual_damping=skew
        )
    indefinite = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues -1 and 1
    assert indefinite.shape == good.primal_damping.shape
    with pytest.raises(ValueError, match="primal damping is not positive semi-definite"):
        SaddleBlocks(
            coupling=good.coupling, primal_damping=indefinite, dual_damping=good.dual_damping
        )


def test_drift_spectra_pass_for_random_instances():
    rng = np.random.default_rng(13)
    for scheme in ("row", "column"):
        for _ in range(5):
            inst, part = random_instance(rng, scheme, 6)
            assert check_drift_spectrum(assemble_compact(part, inst.topology)).passed


def test_equilibrium_certificate_is_stationary():
    rng = np.random.default_rng(21)
    for scheme in ("row", "column"):
        inst, part = random_instance(rng, scheme, 5)
        cs = assemble_compact(part, inst.topology)
        x_hat, z_hat = equilibrium_certificate(cs, part)
        assert x_hat.shape == (cs.dim_x,)
        assert z_hat.shape == (cs.dim - cs.dim_x,)
        v = np.concatenate([x_hat, z_hat])
        assert np.max(np.abs(cs.drift_matrix @ v + cs.forcing)) < 1e-8


def test_certificate_replicates_solution_across_clusters():
    part, topo = single_agent_system()
    cs = assemble_compact(part, topo)
    x_hat, z_hat = equilibrium_certificate(cs, part)
    assert np.allclose(x_hat, [2.0])
    assert np.allclose(z_hat, [0.0])


def test_inconsistent_system_raises():
    layout = Layout(scheme="row", cluster_sizes=[1, 1], agent_sizes=[[1], [1]])
    topo = topology(2, [1, 1])
    inst = ProblemInstance(
        a=np.array([[1.0], [1.0]]), b=np.array([0.0, 1.0]), topology=topo, layout=layout
    )
    part = partition_rows(inst)
    cs = assemble_compact(part, topo)
    with pytest.raises(InconsistentSystemError):
        equilibrium_certificate(cs, part)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e6])
def test_inconsistent_system_raises_at_every_scale(scale):
    # two one-agent clusters: D = 0, so the factor is two 1 x 1 blocks with
    # lam = 0.  The consistency test is relative to ||A|| ||y|| + ||b||; an
    # absolute one let [[1], [1]] x = [0, 1] through at 1e-9.
    layout = Layout(scheme="row", cluster_sizes=[1, 1], agent_sizes=[[1], [1]])
    topo = topology(2, [1, 1])
    a = scale * np.array([[1.0], [1.0]])
    for b, consistent in (([0.0, 1.0], False), ([1.0, 1.0], True)):
        inst = ProblemInstance(a=a, b=scale * np.array(b), topology=topo, layout=layout)
        part = partition_rows(inst)
        cs = assemble_compact(part, topo)
        assert [(idx.tolist(), lam.tolist()) for idx, lam, _ in cs.dual_eigh] == [
            ([[0], [1]], [[0.0], [0.0]])
        ]
        if consistent:
            x_hat, z_hat = equilibrium_certificate(cs, part)
            assert np.allclose(x_hat, [1.0, 1.0]) and np.array_equal(z_hat, [0.0, 0.0])
        else:
            with pytest.raises(InconsistentSystemError):
                equilibrium_certificate(cs, part)


def test_kernel_offset_is_annihilated():
    rng = np.random.default_rng(30)
    inst, part = random_instance(rng, "row", 4)
    cs = assemble_compact(part, inst.topology)
    x_hat, z_hat = equilibrium_certificate(cs, part)
    v = np.concatenate([x_hat, z_hat])
    # shift the certificate along the drift kernel: still a stationary point
    _, sigma, vt = np.linalg.svd(cs.drift_matrix)
    null = vt[sigma < 1e-10 * sigma[0]]
    assert null.shape[0] >= 1
    reached = v + 3.0 * null[0]
    offset = reached - v
    assert np.allclose(offset, 3.0 * null[0])
    assert np.max(np.abs(cs.drift_matrix @ offset)) < 1e-8


def test_column_certificate_tiles_per_cluster():
    layout = Layout(scheme="column", cluster_sizes=[1, 1], agent_sizes=[[2, 2], [4]])
    topo = Topology(
        cluster_graph=path(2), agent_graphs=(path(2), path(1))
    )
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    x_true = np.array([2.0, -3.0])
    inst = ProblemInstance(a=a, b=a @ x_true, topology=topo, layout=layout)
    part = partition_columns(inst)
    cs = assemble_compact(part, topo)
    x_hat, _ = equilibrium_certificate(cs, part)
    # cluster 0 has two agents sharing one column entry, cluster 1 has one
    assert np.allclose(x_hat, [2.0, 2.0, -3.0])

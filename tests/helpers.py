"""Shared random generators and reference oracles for the test suite.

The saddle-triple generator rejects draws whose singular-value ladders have
entries near the 1e-10 relative rank cutoff, for M (between 1e-12 and 1e-6)
and for M @ M (between 1e-12 and 1e-8), so every accepted draw has an
unambiguous numerical rank (about 0.3% of draws are redrawn).  The M @ M
band dates from a non-defectiveness check that compared the ranks of M and
M @ M; it is kept so that the accepted draws, and every test seeded from
them, stay the same.

The residual and closeness oracles cut a flat [x; z] state into agent
blocks with flat_slices and loop over agents and pairs one at a time; the
package's stacked implementations are checked against them.

stepwise_integrate is the integrator with one flat plan.evaluate and one
finiteness test per step, after a stride phase of one stride per turn that
judges each stride by the flat evaluates of its two ends.  integrate tests
on batched evaluates, which round differently, so it matches the oracle
bit for bit when no tested state's derivative max-norm lies within
rounding of its bound (stationarity_tol or a stride's floor); that holds
on every draw the tests compare.

scaled_instance and scaled_systems draw random_instance systems with A and
b scaled by a power of ten, for the tests that must hold at every scale.
"""

import dataclasses
from functools import reduce

import numpy as np

from duolayer import (
    DerivativePlan,
    NonFiniteStateError,
    SaddleBlocks,
    SimResult,
    Trajectory,
    assemble_compact,
    partition_columns,
    partition_rows,
    solve_least_squares,
)
from duolayer.dynamics import as_flat_state, flat_slices, sample_residuals, tiled_reference
from duolayer.instances import random_instance
from duolayer.simulator import (
    RECORD_BATCH,
    SAMPLE_FIELDS,
    STRIDE_MAX,
    _stride_floor,
    rk4_propagator,
    stride_propagator,
)


def scaled_instance(seed, scheme, size, k):
    """(instance, partition) of random_instance(default_rng(seed), scheme,
    size) with A and b scaled by 10**k."""
    inst, _ = random_instance(np.random.default_rng(seed), scheme, size)
    scaled = dataclasses.replace(inst, a=inst.a * 10.0**k, b=inst.b * 10.0**k)
    return scaled, (partition_rows if scheme == "row" else partition_columns)(scaled)


def scaled_systems(k=0):
    """(label, part, compact system) for 40 draws, A and b scaled by 10**k."""
    for seed in range(20):
        for scheme in ("row", "column"):
            inst, part = scaled_instance(seed, scheme, 12, k)
            yield (k, seed, scheme), part, assemble_compact(part, inst.topology)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def conditioned_psd(rng, n, zero_prob=0.3):
    """PSD matrix with eigenvalues either exactly 0 or inside [0.3, 3]."""
    eigs = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=n))
    mask = rng.random(n) < zero_prob
    if mask.all():
        mask[0] = False
    eigs[mask] = 0.0
    q = random_orthogonal(rng, n)
    return (q * eigs) @ q.T


def _clean_gap(m, lo, hi):
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return True
    return not np.any((sv > lo * sv[0]) & (sv < hi * sv[0]))


def random_saddle_blocks(rng, max_dim=5):
    """Random (C, P, D) triple whose block matrix has unambiguous ranks."""
    while True:
        r = int(rng.integers(1, max_dim + 1))
        s = int(rng.integers(1, max_dim + 1))
        u = random_orthogonal(rng, r)
        v = random_orthogonal(rng, s)
        k = min(r, s)
        sig = np.zeros((r, s))
        sig[:k, :k] = np.diag(np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=k)))
        c = u @ sig @ v.T
        p = conditioned_psd(rng, s)
        d = conditioned_psd(rng, r)
        m = np.block([[-c.T @ c - p, c.T @ d], [c, -d]])
        if _clean_gap(m, 1e-12, 1e-6) and _clean_gap(m @ m, 1e-12, 1e-8):
            return SaddleBlocks(coupling=c, primal_damping=p, dual_damping=d)


def agent_x_blocks(part, y):
    """x[i][j]: agent j of cluster i's solution state in the flat state y."""
    x_slices, _, _, _ = flat_slices(part)
    return [[y[sl] for sl in row] for row in x_slices]


def oracle_residuals(part, y):
    """(conservation, consensus, overall) of a flat state, one agent and one
    pair at a time, in the order and shapes of one sample_residuals row."""
    x = agent_x_blocks(part, y)
    a_full, b_full = part.reassemble()
    if part.scheme == "row":
        conservation = []
        for i in range(part.cluster_count):
            terms = [
                part.blocks[i][j] @ x[i][j] - part.offsets[i][j]
                for j in range(part.agent_counts[i])
            ]
            conservation.append(float(np.linalg.norm(reduce(np.add, terms))))
        stacked = [np.concatenate(x[i]) for i in range(part.cluster_count)]
        consensus = [
            float(np.linalg.norm(stacked[i] - stacked[k]))
            for i in range(len(stacked))
            for k in range(i + 1, len(stacked))
        ]
        solution = reduce(np.add, stacked) / part.cluster_count
        overall = float(np.linalg.norm(a_full @ solution - b_full))
        return tuple(conservation), tuple(consensus), overall
    consensus = []
    for i in range(part.cluster_count):
        pair = [
            float(np.linalg.norm(x[i][j] - x[i][k]))
            for j in range(part.agent_counts[i])
            for k in range(j + 1, part.agent_counts[i])
        ]
        consensus.append(max(pair) if pair else 0.0)
    terms, means = [], []
    for i in range(part.cluster_count):
        a_i = np.vstack(part.blocks[i])
        mean_i = reduce(np.add, x[i]) / part.agent_counts[i]
        means.append(mean_i)
        terms.append(a_i @ mean_i - np.concatenate(part.offsets[i]))
    conservation = (float(np.linalg.norm(reduce(np.add, terms))),)
    overall = float(np.linalg.norm(a_full @ np.concatenate(means) - b_full))
    return conservation, tuple(consensus), overall


def oracle_closeness(y, x_star, part):
    """V of a flat state, one cluster (row) or one agent (column) at a time."""
    x = agent_x_blocks(part, y)
    total = 0.0
    if part.scheme == "row":
        for i in range(part.cluster_count):
            diff = np.concatenate(x[i]) - x_star
            total += float(diff @ diff)
    else:
        start = 0
        for i, n_i in enumerate(part.cluster_cols):
            ref = x_star[start : start + n_i]
            start += n_i
            for x_ij in x[i]:
                diff = x_ij - ref
                total += float(diff @ diff)
    return 0.5 * total


def stepwise_integrate(part, topo, cfg, *, initial_state=None):
    """integrate with one stride, or one step, one finiteness test and one
    flat plan.evaluate, per loop turn: the same start, stride length,
    strides, hand-over, stop tests, sample batches and errors."""
    plan = DerivativePlan(part, topo)
    h = cfg.step_size
    if h is None:
        h = 0.1 if plan.norm == 0.0 else min(0.9 * 2.0 / plan.norm, 0.1)
    if initial_state is not None:
        y = np.array(as_flat_state(part, initial_state))
    elif cfg.init_mode == "zeros":
        y = np.zeros(plan.dim)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        y = rng.uniform(-cfg.init_amplitude, cfg.init_amplitude, size=plan.dim)
    tiled = tiled_reference(part, solve_least_squares(*part.reassemble()))
    chunks, pending, times = [], np.empty((RECORD_BATCH, plan.dim)), []

    def flush():
        block = pending[: len(times)]
        diff = block[:, : tiled.shape[0]] - tiled
        vs = 0.5 * np.einsum("ij,ij->i", diff, diff)
        finite = np.isfinite(vs)
        if not finite.all():
            raise NonFiniteStateError(times[int(np.argmin(finite))])
        columns = (times, vs, *sample_residuals(part, block))
        chunk = np.empty(
            len(times), dtype=[(f, float, np.shape(c)[1:]) for f, c in zip(SAMPLE_FIELDS, columns)]
        )
        for field, column in zip(SAMPLE_FIELDS, columns):
            chunk[field] = column
        chunks.append(chunk)
        times.clear()

    def record(t, vec):
        pending[len(times)] = vec
        times.append(t)
        if len(times) == RECORD_BATCH:
            flush()

    t, steps, stop_reason = 0.0, 0, "max_time"
    every, tol, max_time = cfg.record_every, cfg.stationarity_tol, cfg.max_time
    stride = max(d for d in range(1, STRIDE_MAX + 1) if every % d == 0)
    with np.errstate(over="ignore", invalid="ignore"):
        propagator, gain = rk4_propagator(plan, h)
        record(t, y)
        d = plan.evaluate(y)
        if stride > 1 and not float(np.max(np.abs(d))) < tol:
            # one stride per turn, taken while it ends before max_time, its
            # start is not stationary and its end's flat derivative max-norm
            # is not below the floor bound
            power, stride_gain, powers = stride_propagator(propagator, gain, stride)
            gain_max = float(np.max(np.abs(gain)))
            slack = 2.0 * (plan.dim + 1) * np.finfo(float).eps
            offset = float(np.max(np.abs(plan.shift))) + tol + np.finfo(float).tiny
            floors = _stride_floor(powers, plan.dim, plan.inputs, gain_max, plan.norm, h, tol, slack, offset)
            while (steps + stride) * h < max_time:
                following = power @ y
                following += stride_gain
                bound = floors(np.array([np.max(np.abs(y)), np.max(np.abs(following))]))[0]
                moving = not float(np.max(np.abs(plan.evaluate(y)))) < tol
                floored = not float(np.max(np.abs(plan.evaluate(following)))) < bound
                if not (np.isfinite(bound) and moving and floored):
                    break
                steps += stride
                if steps % every == 0:
                    record(steps * h, following)
                y = following
            t = steps * h
            d = plan.evaluate(y)
        stride_steps = steps
        while t < cfg.max_time:
            if float(np.max(np.abs(d))) < cfg.stationarity_tol:
                stop_reason = "stationary"
                break
            y = propagator @ y
            y += gain
            steps += 1
            t = steps * h
            if not np.all(np.isfinite(y)):
                flush()
                raise NonFiniteStateError(t)
            d = plan.evaluate(y)
            if steps % cfg.record_every == 0:
                record(t, y)
        if steps % cfg.record_every:
            record(t, y)
        flush()
    return SimResult(
        trajectory=Trajectory(np.concatenate(chunks)),
        final_state=y,
        final_time=t,
        step_size=h,
        stop_reason=stop_reason,
        steps=steps,
        stride_steps=stride_steps,
    )

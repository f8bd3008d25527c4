"""Fixed-step integration of the network flows with convergence tracking.

The integrator propagates exclusively through the per-agent update law (one
DerivativePlan built once per run); the independently assembled drift form
is never consulted, so trajectories exercise the agent-level code path.
States, the initial and the final one included, are flat [x; z] vectors laid
out by dynamics.flat_slices.  Recorded samples are copied into a buffer of
RECORD_BATCH rows and evaluated a batch at a time (V by one einsum, the
residuals by one sample_residuals call), so recording memory stays bounded
by the buffer, whatever the run length; samples keep V and the residuals,
not the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DerivativePlan,
    ResidualReport,
    as_flat_state,
    sample_residuals,
    tiled_reference,
)
from .graph import Topology
from .linalg import as_vector, solve_least_squares

# Samples with V below this floor are excluded from rate fitting.
V_FLOOR = 1e-14
# Recorded samples evaluated together; bounds the recording buffer to
# RECORD_BATCH flat states.
RECORD_BATCH = 64


class NonFiniteStateError(RuntimeError):
    """The integration produced NaN/Inf; carries the offending time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t={time:.6g}")
        self.time = time


class InsufficientSamplesError(ValueError):
    """Too few usable samples to fit a convergence rate."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    step_size None means auto: h = 0.9 * 2 / rho with rho a Gershgorin bound
    on the drift spectral radius, capped at 0.1.  init_mode is "zeros" or
    "random" (uniform in [-amplitude, amplitude], seeded by rng_seed).
    step_size, max_time, stationarity_tol and init_amplitude must be finite;
    record_every and rng_seed must be integers, rng_seed >= 0; no field
    accepts a bool.
    """

    step_size: float | None = None
    max_time: float = 100.0
    stationarity_tol: float = 1e-10
    record_every: int = 10
    rng_seed: int = 0
    init_mode: str = "zeros"
    init_amplitude: float = 1.0

    def __post_init__(self):
        for name in ("step_size", "max_time", "stationarity_tol", "init_amplitude"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a number, not a bool")
        for name in ("record_every", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite, or None for auto")
        if not 0 < self.max_time < math.inf:
            raise ValueError("max_time must be positive and finite")
        if not 0 < self.stationarity_tol < math.inf:
            raise ValueError("stationarity_tol must be positive and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.init_mode not in ("zeros", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if not 0 <= self.init_amplitude < math.inf:
            raise ValueError("init_amplitude must be >= 0 and finite")


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    v: float
    residuals: ResidualReport | None = None


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples with strictly increasing times and finite V."""

    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        times = [s.time for s in self.samples]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if any(not math.isfinite(s.v) for s in self.samples):
            raise ValueError("V values must be finite")

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    def values(self) -> np.ndarray:
        return np.array([s.v for s in self.samples])


@dataclass(frozen=True)
class SimResult:
    trajectory: Trajectory
    final_state: np.ndarray  # flat [x; z]
    final_time: float  # steps * step_size
    step_size: float
    stop_reason: str  # "stationary" | "max_time"
    steps: int
    reference: np.ndarray  # solution V was measured against


def closeness_metric(y, x_star, part) -> float:
    """Half squared distance of the flat state's solution states to a
    reference solution.

    Row scheme: sums over the clusters' stacked states against the full
    x_star.  Column scheme: sums over every agent against its cluster's slice
    of x_star.  Both are 0.5 * ||x - tiled x_star||^2 over the x block.
    """
    tiled = tiled_reference(part, x_star)
    diff = as_flat_state(part, y)[: tiled.shape[0]] - tiled
    return 0.5 * float(diff @ diff)


def _step_from_matrix(matrix: np.ndarray) -> float:
    rho = float(np.max(np.sum(np.abs(matrix), axis=1))) if matrix.size else 0.0
    if rho == 0.0:
        return 0.1
    return min(0.9 * 2.0 / rho, 0.1)


def integrate(
    part,
    topo: Topology,
    cfg: SimConfig,
    *,
    initial_state=None,
    x_reference=None,
) -> SimResult:
    """Propagate the per-agent flow with classical fixed-step RK4.

    initial_state is a flat [x; z] vector (copied, never modified); when it
    is None the start is drawn by cfg.init_mode.  Stops at max_time or as
    soon as the derivative max-norm falls below stationarity_tol.  The
    result's final_state is flat too.  V is measured against x_reference
    when given, else against the minimum-norm least-squares solution of the
    reassembled system.  Samples are evaluated from the flat state in
    batches of RECORD_BATCH, so recording memory stays bounded; a
    non-finite V raises NonFiniteStateError with the time of the first such
    sample, also when the state itself overflows later in the same batch.
    """
    plan = DerivativePlan(part, topo)
    h = cfg.step_size if cfg.step_size is not None else _step_from_matrix(plan.matrix)
    if initial_state is not None:
        y = np.array(as_flat_state(part, initial_state))
    elif cfg.init_mode == "zeros":
        y = np.zeros(plan.dim)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        y = rng.uniform(-cfg.init_amplitude, cfg.init_amplitude, size=plan.dim)
    if x_reference is None:
        ref = solve_least_squares(*part.reassemble())
    else:
        ref = as_vector(x_reference)
    tiled = tiled_reference(part, ref)
    dim_x = tiled.shape[0]

    samples = []
    pending = np.empty((RECORD_BATCH, plan.dim))
    times = []

    def flush() -> None:
        block = pending[: len(times)]
        diff = block[:, :dim_x] - tiled
        vs = 0.5 * np.einsum("ij,ij->i", diff, diff)
        finite = np.isfinite(vs)
        if not finite.all():
            raise NonFiniteStateError(times[int(np.argmin(finite))])
        conservation, consensus, overall = sample_residuals(part, block)
        for k, t_k in enumerate(times):
            samples.append(
                TrajectorySample(
                    time=t_k,
                    v=float(vs[k]),
                    residuals=ResidualReport(
                        scheme=part.scheme,
                        conservation=tuple(conservation[k].tolist()),
                        consensus=tuple(consensus[k].tolist()),
                        overall=float(overall[k]),
                    ),
                )
            )
        times.clear()

    def record(t: float, vec: np.ndarray) -> None:
        pending[len(times)] = vec
        times.append(t)
        if len(times) == RECORD_BATCH:
            flush()

    t = 0.0
    steps = 0
    stop_reason = "max_time"
    half = 0.5 * h
    sixth = h / 6.0
    # overflow during a divergent run is reported via NonFiniteStateError,
    # so the intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        record(t, y)
        d = plan.evaluate(y)
        while t < cfg.max_time:
            if float(np.max(np.abs(d))) < cfg.stationarity_tol:
                stop_reason = "stationary"
                break
            k1 = d
            k2 = plan.evaluate(y + half * k1)
            k3 = plan.evaluate(y + half * k2)
            k4 = plan.evaluate(y + h * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            steps += 1
            t = steps * h
            if not np.all(np.isfinite(y)):
                # an earlier sample's V may already have overflowed
                flush()
                raise NonFiniteStateError(t)
            d = plan.evaluate(y)
            if steps % cfg.record_every == 0:
                record(t, y)
        if steps % cfg.record_every:
            record(t, y)
        flush()
    return SimResult(
        trajectory=Trajectory(tuple(samples)),
        final_state=y,
        final_time=t,
        step_size=h,
        stop_reason=stop_reason,
        steps=steps,
        reference=ref,
    )


def _fit_line(t: np.ndarray, values: np.ndarray) -> tuple:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    slope, intercept = np.polyfit(t, values, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((values - pred) ** 2))
    ss_tot = float(np.sum((values - np.mean(values)) ** 2))
    if ss_tot == 0.0:
        # all values identical: the constant fit is exact
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_convergence_rate(traj: Trajectory) -> tuple:
    """Slope and R^2 of a line fit to ln V(t) over the decaying window.

    The window runs over all samples with V above the 1e-14 floor; at least
    ten of them are required.
    """
    t = traj.times()
    v = traj.values()
    mask = v > V_FLOOR
    if int(np.count_nonzero(mask)) < 10:
        raise InsufficientSamplesError(
            f"need >= 10 samples with V > {V_FLOOR:g}, "
            f"have {int(np.count_nonzero(mask))}"
        )
    slope, _, r2 = _fit_line(t[mask], np.log(v[mask]))
    return slope, r2

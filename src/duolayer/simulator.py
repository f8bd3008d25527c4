"""Fixed-step integration of the network flows with convergence tracking.

The integrator propagates exclusively through the per-agent update law (one
DerivativePlan built once per run); the independently assembled drift form
is never consulted, so trajectories exercise the agent-level code path.
The law is linear and time-invariant, y' = M y + c with M = plan.matrix and
c = plan.shift, so one classical RK4 step is exactly the affine map
y -> R y + g; both are built once per run from the plan, and each step is
one product plus one plan.evaluate for the stationarity test.
States, the initial and the final one included, are flat [x; z] vectors laid
out by dynamics.flat_slices.  Recorded samples are copied into a buffer of
RECORD_BATCH rows and evaluated a batch at a time (V by one einsum, the
residuals by one sample_residuals call), so recording memory stays bounded
by the buffer, whatever the run length.  Each batch becomes one chunk of a
structured array with the SAMPLE_FIELDS columns; the state is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DerivativePlan,
    as_flat_state,
    sample_residuals,
    tiled_reference,
)
from .graph import Topology
from .linalg import solve_least_squares

# Samples with V below this floor are excluded from rate fitting.
V_FLOOR = 1e-14
# Fewest samples above V_FLOOR that a rate fit accepts.
MIN_FIT_SAMPLES = 10
# Recorded samples evaluated together; bounds the recording buffer to
# RECORD_BATCH flat states.
RECORD_BATCH = 64
# Columns of a recorded sample; conservation (k,) and consensus (p,) are rows
# of the arrays sample_residuals returns.
SAMPLE_FIELDS = ("time", "v", "conservation", "consensus", "overall")


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
class Trajectory:
    """Recorded samples with strictly increasing times and finite V.

    samples is a read-only (S,) structured array; integrate fills every
    SAMPLE_FIELDS column, and the fits read only time and v.
    """

    samples: np.ndarray

    def __post_init__(self):
        times = self.samples["time"]
        if np.any(times[1:] <= times[:-1]):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.samples["v"])):
            raise ValueError("V values must be finite")
        view = self.samples.view()
        view.flags.writeable = False
        object.__setattr__(self, "samples", view)


@dataclass(frozen=True)
class SimResult:
    trajectory: Trajectory
    final_state: np.ndarray  # flat [x; z]
    final_time: float  # steps * step_size
    step_size: float
    stop_reason: str  # "stationary" | "max_time"
    steps: int


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


def rk4_propagator(plan: DerivativePlan, h: float) -> tuple:
    """(R, g) with R y + g one classical RK4 step of size h of plan's flow.

    For y' = M y + c the four stages collapse to
    R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 and
    g = h (I + hM/2 + (hM)^2/6 + (hM)^3/24) c.  R is built by Horner's rule,
    adding I in place on the diagonal, so at most two dim x dim arrays are
    live beside the plan; it costs one extra dim^2 array and about 3 dim^3
    flops.  This suits the dense plan; a sparse plan would not keep R, which
    fills in at four graph hops.
    """
    m = plan.matrix
    diagonal = slice(None, None, plan.dim + 1)
    phi = m * (h / 4.0)
    phi.flat[diagonal] += 1.0
    for k in (3.0, 2.0):
        phi = m @ phi
        phi *= h / k
        phi.flat[diagonal] += 1.0
    # phi = I + hM/2 + (hM)^2/6 + (hM)^3/24
    gain = h * (phi @ plan.shift)
    phi = m @ phi
    phi *= h
    phi.flat[diagonal] += 1.0
    return phi, gain


def integrate(
    part,
    topo: Topology,
    cfg: SimConfig,
    *,
    initial_state=None,
) -> SimResult:
    """Propagate the per-agent flow with classical fixed-step RK4.

    Each step applies rk4_propagator's affine map once, then evaluates the
    plan at the new state for the stationarity test.  initial_state is a
    flat [x; z] vector (copied, never modified); when it is None the start
    is drawn by cfg.init_mode.  Stops at max_time or as soon as the
    derivative max-norm falls below stationarity_tol.  The result's
    final_state is flat too.  V is measured against the
    minimum-norm least-squares solution of the reassembled system.  Samples
    are evaluated from the flat state in batches of RECORD_BATCH, so
    recording memory stays bounded; a non-finite V raises
    NonFiniteStateError with the time of the first such sample, also when
    the state itself overflows later in the same batch.
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
    tiled = tiled_reference(part, solve_least_squares(*part.reassemble()))
    dim_x = tiled.shape[0]

    chunks = []
    pending = np.empty((RECORD_BATCH, plan.dim))
    times = []

    def flush() -> None:
        block = pending[: len(times)]
        diff = block[:, :dim_x] - tiled
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

    def record(t: float, vec: np.ndarray) -> None:
        pending[len(times)] = vec
        times.append(t)
        if len(times) == RECORD_BATCH:
            flush()

    t = 0.0
    steps = 0
    stop_reason = "max_time"
    # overflow during a divergent run is reported via NonFiniteStateError,
    # so the intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        propagator, gain = rk4_propagator(plan, h)
        record(t, y)
        d = plan.evaluate(y)
        while t < cfg.max_time:
            if float(np.max(np.abs(d))) < cfg.stationarity_tol:
                stop_reason = "stationary"
                break
            y = propagator @ y
            y += gain
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
        trajectory=Trajectory(np.concatenate(chunks)),
        final_state=y,
        final_time=t,
        step_size=h,
        stop_reason=stop_reason,
        steps=steps,
    )


def fit_log_decay(times, values) -> tuple:
    """Least-squares line through ln V(t) over the samples with V > V_FLOOR.

    Returns (slope, intercept, r_squared).  Raises InsufficientSamplesError
    when fewer than MIN_FIT_SAMPLES samples clear the floor.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > V_FLOOR
    kept = int(np.count_nonzero(mask))
    if kept < MIN_FIT_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_FIT_SAMPLES} samples with V > {V_FLOOR:g}, have {kept}"
        )
    t, ln_v = t[mask], np.log(v[mask])
    slope, intercept = np.polyfit(t, ln_v, 1)
    ss_res = float(np.sum((ln_v - (slope * t + intercept)) ** 2))
    ss_tot = float(np.sum((ln_v - np.mean(ln_v)) ** 2))
    # all values identical: the constant fit is exact
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_convergence_rate(traj: Trajectory) -> tuple:
    """Slope and R^2 of fit_log_decay over the trajectory's samples."""
    slope, _, r2 = fit_log_decay(traj.samples["time"], traj.samples["v"])
    return slope, r2

"""Fixed-step integration of the network flows with convergence tracking.

The integrator propagates exclusively through the per-agent update law (one
DerivativePlan built once per run); the independently assembled drift form
is never consulted, so trajectories exercise the agent-level code path.
The law is linear and time-invariant, y' = M y + c with M the operator
whose rows the plan stores agent by agent and c = plan.shift, so one
classical RK4 step is exactly the affine map y -> R y + g; both are built
once per run from the plan, and each step is one matrix-vector product.
Steps run in blocks of up to RECORD_BATCH; the stationarity and
finiteness tests run once per block, over all of its states, and stop
where one test per step would, bit for bit (see integrate).  A step's
increment bounds the derivative from below, since
y_{k+1} - y_k = h phi(hM) (M y_k + c) with ||phi(hM)|| <= p(h ||M||), a
cubic; with an allowance for rounding (_skip_threshold) that floor clears
stationarity_tol for almost every state, and only the states it leaves
open, those of the last blocks before the stop, go through one batched
plan.evaluate.  So a block costs its steps plus O(RECORD_BATCH dim) work.

When samples are s = record_every steps apart, 2 <= s <= STRIDE_MAX, the
run first strides from sample to sample by s steps at once, u -> P u + g_s
with P = R^s (stride_propagator), one matrix-vector product per sample.
The derivative d(y) = M y + c obeys d(R y + g) = R d(y), so the states
between a stride's ends have a derivative of at least the end's divided by
max_{1<=m<s} ||R^m|| (_stride_floor).  A stride is taken when its start is
not stationary and its end's derivative clears that floor, both read from
one batched plan.evaluate of a block's stride states.  The run hands over
to the single steps at the first stride that does not clear, so the stop,
the sample times and the errors are those of the single steps, and only
the states' last bits differ.  The plan stays live throughout.

States, the initial and the final one included, are flat [x; z] vectors laid
out by dynamics.flat_slices.  Recorded samples are copied into a buffer of
RECORD_BATCH rows and evaluated a batch at a time (V by one einsum, the
residuals by one sample_residuals call), so recording memory stays bounded
by the buffer, whatever the run length.  Each batch becomes one chunk of a
structured array with the SAMPLE_FIELDS columns; the state is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DerivativePlan,
    as_flat_state,
    sample_residuals,
    tiled_reference,
)
from .graph import Topology
from .linalg import is_finite_number, solve_least_squares

# Samples with V below this floor are excluded from rate fitting.
V_FLOOR = 1e-14
# Fewest samples above V_FLOOR that a rate fit accepts.
MIN_FIT_SAMPLES = 10
# Recorded samples evaluated together, and steps tested together; bounds the
# recording and the step buffers to RECORD_BATCH (+ 1) flat states each.
RECORD_BATCH = 64
# Longest stride: integrate steps by R^s between samples when record_every
# is s with 2 <= s <= STRIDE_MAX, and one step at a time otherwise.  P's
# build costs s - 1 dim^3 products and a stride saves s - 1 matrix-vector
# products, so a run gains only once its strides outnumber the ratio of the
# two, whatever s; the longer strides also hand over earlier.  On dim-320
# runs of about 2,000 steps, s = 10 gained nothing.
STRIDE_MAX = 5
# Rows of R^m that stride_propagator multiplies by R at a time, in place.
STRIDE_ROWS = 128
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
    step_size, max_time, stationarity_tol and init_amplitude must be finite
    as floats (an integer too large for a float is rejected);
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
        if self.step_size is not None and not (is_finite_number(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be positive and finite, or None for auto")
        if not (is_finite_number(self.max_time) and self.max_time > 0):
            raise ValueError("max_time must be positive and finite")
        if not (is_finite_number(self.stationarity_tol) and self.stationarity_tol > 0):
            raise ValueError("stationarity_tol must be positive and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.init_mode not in ("zeros", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if not (is_finite_number(self.init_amplitude) and self.init_amplitude >= 0):
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
    stride_steps: int  # steps taken by strides before the hand-over


def _auto_step(rho: float) -> float:
    """0.9 * 2 / rho capped at 0.1, for a Gershgorin bound rho on the drift
    spectral radius (0.1 when rho is 0)."""
    if rho == 0.0:
        return 0.1
    return min(0.9 * 2.0 / rho, 0.1)


def rk4_propagator(plan: DerivativePlan, h: float) -> tuple:
    """(R, g) with R y + g one classical RK4 step of size h of plan's flow.

    For y' = M y + c the four stages collapse to
    R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 and
    g = h (I + hM/2 + (hM)^2/6 + (hM)^3/24) c.  R is built by Horner's rule
    from hM/4, laid out dense from the plan's blocks, adding I in place on
    the diagonal; each product by M is plan.product, one group of agents at
    a time, so it costs one extra dim^2 array beside the plan's blocks and
    the agents' gathered inputs, and at most 3 dim^2 plan.inputs
    multiply-adds.
    """
    dim = plan.dim
    diagonal = slice(None, None, dim + 1)
    phi = np.zeros((dim, dim))
    for rows, cols, blocks in plan.groups:
        phi[rows[:, :, None], cols[:, None, :]] = blocks * (h / 4.0)
    phi.flat[diagonal] += 1.0
    for k in (3.0, 2.0):
        phi = plan.product(phi)
        phi *= h / k
        phi.flat[diagonal] += 1.0
    # phi = I + hM/2 + (hM)^2/6 + (hM)^3/24
    gain = h * (phi @ plan.shift)
    phi = plan.product(phi)
    phi *= h
    phi.flat[diagonal] += 1.0
    return phi, gain


def _skip_threshold(
    norm_m: float, h: float, dim: int, gain_max: float, tol: float, slack: float, offset: float
) -> tuple:
    """(slope, intercept) of integrate's skip rule, from scalars only.

    A state y whose step y' = R y + g has
    max|y' - y| > slope max|y| + intercept has a flat derivative max-norm
    above 2 (tol + band), band = slack (norm_m max|y| + offset), so it is
    not stationary.  Here (R, g) is rk4_propagator(plan, h),
    norm_m = ||M||_inf, gain_max = max|g|, offset >= max|c| and
    dim = plan.dim, with M plan's operator and c = plan.shift; no dim x dim
    array is read.  integrate's docstring derives the rule.  Where p
    overflows, slope is inf and nothing is skipped.
    """
    eps = np.finfo(float).eps
    x = h * norm_m
    p = 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    u = (dim + 2) * eps
    # the floor (max|y' - y| - err) / scale, err = allowance_slope max|y|
    # + allowance_intercept, must exceed 2 (tol + band)
    scale = h * p * (1.0 + 8.0 * u)
    allowance_slope = 16.0 * u * (1.0 + x * p)
    allowance_intercept = 16.0 * u * (gain_max + h * p * offset + np.finfo(float).tiny)
    slope = allowance_slope + 2.0 * scale * slack * norm_m
    intercept = allowance_intercept + 2.0 * scale * (tol + slack * offset)
    return slope, intercept


def stride_propagator(propagator: np.ndarray, gain: np.ndarray, s: int) -> tuple:
    """(P, g_s, norms) with P y + g_s equal to s steps y -> R y + g, for
    (R, g) = rk4_propagator(plan, h): P = R^s, g_s = sum_{i<s} R^i g, and
    norms[m] = ||R^m||_inf as computed, m = 0..s (norms[0] = 1).

    P is built in a copy of R by s - 1 products R^{m+1} = R^m R, each in
    place, STRIDE_ROWS rows at a time: a row of R^m R is that row of R^m
    times R, so each block of rows goes through one block buffer, which
    also takes the blocks of |R^m| for the row sums.  R and P are the only
    dim x dim arrays.  g_s takes s - 1 matrix-vector products by Horner's
    rule.
    """
    dim = len(gain)
    power = propagator.copy()
    spans = [slice(lo, min(lo + STRIDE_ROWS, dim)) for lo in range(0, dim, STRIDE_ROWS)]
    block = np.empty((min(STRIDE_ROWS, dim), dim))

    def row_norm(a: np.ndarray) -> float:
        sums = [np.sum(np.abs(a[rows], out=block[: rows.stop - rows.start]), axis=1) for rows in spans]
        return float(np.max(np.concatenate(sums), initial=0.0))

    norms = [1.0, row_norm(power)]
    for _ in range(s - 1):
        for rows in spans:
            part = block[: rows.stop - rows.start]
            np.matmul(power[rows], propagator, out=part)
            power[rows] = part
        norms.append(row_norm(power))
    stride_gain = gain.copy()
    for _ in range(s - 1):
        stride_gain = propagator @ stride_gain
        stride_gain += gain
    return power, stride_gain, norms


def _stride_floor(
    norms: list,
    dim: int,
    inputs: int,
    gain_max: float,
    norm_m: float,
    h: float,
    tol: float,
    slack: float,
    offset: float,
):
    """integrate's test of a stride by its end's derivative, from scalars
    only.

    norms are stride_propagator's ||R^m||_inf, m = 0..s, gain_max is
    max|g|, inputs is the most inputs an agent of the plan reads,
    norm_m = ||M||_inf, and h, tol, slack and offset are those of
    _skip_threshold's rule.  The result is a function of the row max-norms
    N_0..N_n of stride states u_0..u_n, u_{i+1} = P u_i + g_s.  For each
    stride i < n it gives the bound T_i, linear in N_i and N_{i+1}, that
    the flat derivative max-norm of u_{i+1} must not fall below for the
    s - 1 states that steps from u_i take before u_{i+1} to have a
    derivative floor above 2 (tol + band), so that none of them is
    stationary; integrate's docstring derives it.  T_i is inf where N_i or
    N_{i+1} exceeds the reach beyond which a state between, or the
    derivative of u_{i+1}, might overflow.
    """
    s = len(norms) - 1
    eps = np.finfo(float).eps
    u, u_plan = (dim + 2) * eps, (inputs + 2) * eps
    # K = max_{m<=s} ||R^m||, S = sum_{m<s} ||R^m|| and G = max_{1<=m<s}
    # ||R^m||, the last two widened by their rounding; err(N) =
    # err_slope N + err_intercept bounds the rounding drift of a stride's end
    # and of the stepped states from the exact iterates
    big = max(norms)
    kappa = s * big**3 * u
    total = (sum(norms[:s]) + s * kappa) * (1.0 + 2.0 * u)
    peak = (max(norms[1:s]) + kappa) * (1.0 + 2.0 * u)
    err_slope = 2.0 * kappa
    err_intercept = 2.0 * kappa * ((s + 2) * gain_max + np.finfo(float).tiny)
    x = h * norm_m
    # ||M phi_k - phi_k M|| <= 2 ||M|| lead for the Horner stages phi_k of
    # rk4_propagator, ||phi_k|| <= p; R is the last stage
    p = 1.0 + x / 4.0
    lead = 2.0 * eps * p
    for k in (3.0, 2.0, 1.0):
        stage = 1.0 + x / k * p
        lead = x / k * (lead + u_plan * p) + 2.0 * eps * stage
        gain_p, p = p, stage
    # ||M F(y) + c - R (M y + c)|| <= commute max|y| + lag, F(y) = R y + g
    commute = 2.0 * norm_m * lead
    lag = (
        norm_m * u * (h * gain_p * offset + gain_max)
        + (x * u_plan * gain_p + 2.0 * eps * p) * offset
        + np.finfo(float).tiny
    )
    # max|y| <= state_slope N_i + state_intercept for the states between
    state_slope, state_intercept = big + err_slope, total * gain_max + err_intercept
    # T = band(N_{i+1}) / 2 + (1 + G) ||M|| err(N_i) + S (commute Y + lag)
    #     + 2 G (tol + band(Y)), Y the bound on the states between
    y_weight = total * commute + 2.0 * peak * slack * norm_m
    start_slope = (1.0 + peak) * norm_m * err_slope + y_weight * state_slope
    end_slope = 0.5 * slack * norm_m
    intercept = (
        0.5 * slack * offset
        + (1.0 + peak) * norm_m * err_intercept
        + y_weight * state_intercept
        + total * lag
        + 2.0 * peak * (tol + slack * offset)
    )
    # the states of a stride from u_i stay below big N_i + total gain_max
    reach = min(
        (np.finfo(float).max / 2.0 - total * gain_max) / big,
        np.finfo(float).max / 4.0 / max(norm_m, 1.0),
    )

    def bounds(state_norms: np.ndarray) -> np.ndarray:
        start, end = state_norms[:-1], state_norms[1:]
        inside = (start <= reach) & (end <= reach)
        return np.where(inside, start_slope * start + end_slope * end + intercept, np.inf)

    return bounds


def integrate(
    part,
    topo: Topology,
    cfg: SimConfig,
    *,
    initial_state=None,
) -> SimResult:
    """Propagate the per-agent flow with classical fixed-step RK4.

    Each step applies rk4_propagator's affine map once: y -> R y + g, one
    matrix-vector product.  Steps run in blocks of up to RECORD_BATCH, and
    a block ends early at the step that reaches max_time.  A block tests
    its start and every step but its last, which is the next block's start
    or the state that reaches max_time and is not tested; the first block's
    start is the run's, which the flat evaluate has already passed and
    which gets the same answer again, or the stride phase's hand-over
    state (below).  After each block
    come one finiteness test of its states and one row max-norm of the
    states and of their increments y_{k+1} - y_k.  The block is cut at its
    first non-finite state, or at its first tested state whose derivative
    max-norm is below stationarity_tol.

    Most states are judged without their derivative: a state's increment
    gives a floor under max|M y + c|, with M the plan's operator and
    c = plan.shift.  Exactly, R = I + hM phi(hM) and g = h phi(hM) c with
    phi(X) = I + X/2 + X^2/6 + X^3/24, so y' - y = h phi(hM) (M y + c) for
    y' = R y + g, and ||phi(hM)||_inf <= p(x) = 1 + x/2 + x^2/6 + x^3/24
    with x = h ||M||_inf.  With the computed phi of R's Horner build
    (R = I + hM phi + E_R, g = h phi c + E_g) and the rounding e of the
    step itself,

        y' - y = h phi (M y + c) + h (M phi - phi M) y + E_R y + E_g + e.

    To first order in u = (dim + 2) eps, ||phi - phi(hM)|| <= 3 u p, so the
    commutator is at most 6 u x p ||y||; ||E_R|| <= u (1 + 2 x p) by
    ||R||_inf <= 1 + x p; ||E_g|| <= u (h p max|c| + max|g|); and
    ||e|| <= u ((1 + x p) ||y|| + max|g|).  Gradual underflow adds at most
    2 (dim + 2) eps tiny, tiny the smallest normal float.  The allowance

        err = 16 u ((1 + x p) max|y| + max|g| + h p offset + tiny),

    with offset = max|c| + tol + tiny >= max|c| (the band's, below), is
    about twice their sum, which also covers the rounding of ||M||, p and
    y' - y.  Dividing by h ||phi|| <= h p (1 + 8 u) gives the floor
    max|M y + c| >= (max|y' - y| - err) / (h p (1 + 8 u)), from scalars
    only (_skip_threshold).  A state whose floor exceeds twice tol + band
    (band below) is not stationary, and nothing more is computed for it;
    the factor 2 also absorbs the rounding of that test.  The other tested
    states, in practice those of the last blocks before the stop and a
    state whose successor is not finite, go through one batched
    plan.evaluate and its row max-norm.

    The batched and the flat evaluate round differently.  In the max-norm
    they differ by at most (dim + 1) eps (||M|| ||y|| + ||c||), infinity
    norms.  A state whose batched max-norm lies within twice that bound of
    stationarity_tol is decided by the flat evaluate.  The band also adds
    2 (dim + 1) eps (tol + tiny), with tiny the smallest normal float, which
    keeps it wider than the rounding of tol +- band and than the error of
    products that underflow.  A skipped state's flat max-norm is at least
    its floor less half the band, so above tol.  So the steps, stop, final
    state and samples equal those of one flat evaluate per step, bit for
    bit.

    Strides.  With s = record_every, 2 <= s <= STRIDE_MAX, a run whose
    start is not stationary first strides: u_{i+1} = P u_i + g_s with
    (P, g_s) = stride_propagator(R, g, s), one matrix-vector product per
    recorded sample, in blocks of up to RECORD_BATCH strides that end
    before max_time; P is not built when even the first stride would reach
    max_time.  A stride is cleared when its s states, u_i and the s - 1
    that steps from u_i would take before u_{i+1}, are none of them
    stationary or non-finite.  The run hands over to the steps above, from
    the stride's start, at the first stride that is not cleared or that
    would end at or past max_time, so the stop, the sample times and the
    errors stay those of one flat evaluate per step, and only the states'
    last bits differ.  s = 1 takes no strides.

    A stride is judged by its ends' derivatives.  u_i is tested as a single
    step's state is.  For the states between, take the exact map
    F(y) = R y + g of the computed R and g and d(y) = M y + c; then
    d(F(y)) = R d(y) + E(y) with E(y) = (M R - R M) y + M g + c - R c,
    which vanishes for the exact polynomials in hM.  R's Horner stages
    phi_k = I + (h / k') M phi_{k-1} (k' = 4, 3, 2, 1; R the last) take
    products by M that sum at most `inputs` terms, the most inputs an agent
    reads, so each rounds by u_plan ||M|| ||phi_{k-1}||,
    u_plan = (inputs + 2) eps, and the scaling and the added I by
    2 eps ||phi_k||; with ||phi_k|| <= p_k and x = h ||M||,
    ||M phi_k - phi_k M|| <= 2 ||M|| l_k, where
    l_k = (x / k') (l_{k-1} + u_plan p_{k-1}) + 2 eps p_k.  With g's own
    rounding, ||E(y)|| <= commute max|y| + lag.  Along the exact iterates
    y_m = F^m(u_i), d(y_s) = R^{s-m} d(y_m) + sum_{j<s-m} R^j E(y_{s-1-j}),
    so in the infinity norm, for 1 <= m < s,

        ||d(y_m)|| >= (||d(y_s)|| - S (commute Y + lag)) / G,

    with S = sum_{m<s} ||R^m||, G = max_{1<=m<s} ||R^m|| and Y a bound on
    max|y_m|.  With K = max_{m<=s} ||R^m|| and gamma = max|g|, the s - 1
    products that build P, the Horner sum g_s and the stride's own product
    round by at most s K^3 u (max|u_i| + (s + 2) gamma) to first order, and
    the s steps from u_i by u (K max|y| + gamma) each, carried by at most
    K.  err(N) = 2 s K^3 u (N + (s + 2) gamma + tiny) covers both: the
    stride end u_{i+1} is within err(N_i) of y_s, N_i = max|u_i|, and so is
    each stepped state z_m of y_m, and max|z_m| <= Y = K N_i + S gamma
    + err(N_i).  S and G, read off the computed powers, are widened by
    their rounding, s K^3 u and u relative.  d(u_{i+1}) and d(y_s) differ
    by at most ||M|| err(N_i), and so do d(z_m) and d(y_m); a flat max-norm
    and the exact one differ by at most half the band.  So every z_m has a
    derivative floor above 2 (tol + band(Y)), and is not stationary, once
    the flat max-norm of u_{i+1} is not below

        T_i = band(N_{i+1}) / 2 + (1 + G) ||M|| err(N_i)
              + S (commute Y + lag) + 2 G (tol + band(Y)),

    linear in N_i and N_{i+1} (_stride_floor).  N_i and N_{i+1} must lie
    below (max float / 2 - S gamma) / K and max float / (4 max(||M||, 1)),
    so that no state in between and no derivative of u_{i+1} overflows.
    One batched plan.evaluate of a block's n + 1 stride states gives both
    max-norms of each of its n strides, and one within the band of tol or
    of T_i is decided by the flat evaluate, so every stride is judged as by
    one flat evaluate of each of its ends.  P is built in place before the
    recording and step buffers, so R and P are the only dim x dim arrays
    at the build and beside a batch's flush, next to the plan's blocks.

    initial_state is a flat [x; z] vector (copied, never modified); when it
    is None the start is drawn by cfg.init_mode.  The flat evaluate tests
    the start.  The result's final_state is flat too.  V is measured
    against the minimum-norm least-squares solution of the reassembled
    system.  Samples are evaluated from the flat state in batches of
    RECORD_BATCH, so recording memory stays bounded.  A non-finite V raises
    NonFiniteStateError with the time of the first such sample, also when
    the state itself overflows later in the same batch; otherwise a
    non-finite state raises it with that state's time.
    """
    plan = DerivativePlan(part, topo)
    # ||M||_inf: the Gershgorin bound of the auto step and the scale of the
    # evaluate rounding bound
    norm_m = plan.norm
    h = cfg.step_size if cfg.step_size is not None else _auto_step(norm_m)
    if initial_state is not None:
        y = np.array(as_flat_state(part, initial_state))
    elif cfg.init_mode == "zeros":
        y = np.zeros(plan.dim)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        y = rng.uniform(-cfg.init_amplitude, cfg.init_amplitude, size=plan.dim)
    tiled = tiled_reference(part, solve_least_squares(*part.reassemble()))
    dim_x = tiled.shape[0]
    tol, every, max_time = cfg.stationarity_tol, cfg.record_every, cfg.max_time
    # a state's rounding band is slack * (||M|| ||y|| + offset)
    slack = 2.0 * (plan.dim + 1) * np.finfo(float).eps
    offset = float(np.max(np.abs(plan.shift), initial=0.0)) + tol + np.finfo(float).tiny

    def stationary(d: np.ndarray) -> bool:
        return float(np.max(np.abs(d))) < tol

    chunks, times = [], []

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

    def below(rows: np.ndarray, d_max: np.ndarray, bounds, state_norms: np.ndarray) -> np.ndarray:
        """Whether the flat derivative max-norm of each states[rows[k]] is
        below bounds[k], from the batched evaluate's max-norms d_max of those
        states: it decides a state whose d_max is more than the rounding
        band away from the bound, and the flat evaluate decides the others."""
        band = slack * (norm_m * state_norms + offset)
        low = d_max < bounds - band
        for k in np.flatnonzero(~low & ~(d_max > bounds + band)):
            bound = np.broadcast_to(bounds, d_max.shape)[k]
            low[k] = float(np.max(np.abs(plan.evaluate(states[rows[k]])))) < bound
        return low

    def batched_norms(block: np.ndarray) -> np.ndarray:
        d = plan.evaluate(block)
        return np.max(np.abs(d, out=d), axis=1)

    t = 0.0
    steps = stride_steps = 0
    stop_reason = "max_time"
    stride = every if 2 <= every <= STRIDE_MAX else 1
    # overflow during a divergent run is reported via NonFiniteStateError,
    # so the intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        propagator, gain = rk4_propagator(plan, h)
        gain_max = float(np.max(np.abs(gain), initial=0.0))
        jump_slope, jump_intercept = _skip_threshold(norm_m, h, plan.dim, gain_max, tol, slack, offset)
        if stationary(plan.evaluate(y)):
            stop_reason = "stationary"
        striding = stop_reason == "max_time" and stride > 1 and stride * h < max_time
        if striding:
            power, stride_gain, powers = stride_propagator(propagator, gain, stride)
        # the recording and step buffers are made after R and P, whose
        # builds peak higher.  states[0] is a block's start, states[1:] its
        # steps or strides; rows holds a view of each row, so a step indexes
        # no array.  work holds |states|, then the increments
        # |states[k + 1] - states[k]|, then the states to evaluate.
        pending = np.empty((RECORD_BATCH, plan.dim))
        record(t, y)
        states = np.empty((RECORD_BATCH + 1, len(y)))
        rows = list(states)
        states[0] = y
        work = np.empty_like(states)
        if striding:
            floors = _stride_floor(powers, len(gain), plan.inputs, gain_max, norm_m, h, tol, slack, offset)
            # a block whose RECORD_BATCH strides are all taken is followed
            # by the next; the strides computed are those that end before
            # max_time
            taken = RECORD_BATCH
            while taken == RECORD_BATCH:
                first, n = steps, 0
                while n < RECORD_BATCH and (first + (n + 1) * stride) * h < max_time:
                    np.matmul(power, rows[n], out=rows[n + 1])
                    rows[n + 1] += stride_gain
                    n += 1
                norms = np.max(np.abs(states[: n + 1], out=work[: n + 1]), axis=1)
                d_max = batched_norms(states[: n + 1])
                # a stride is taken when its start is not stationary and its
                # end's derivative is not below its floor
                ends = floors(norms)
                starts = np.arange(n)
                cleared = (
                    np.isfinite(ends)
                    & ~below(starts, d_max[:-1], tol, norms[:-1])
                    & ~below(starts + 1, d_max[1:], ends, norms[1:])
                )
                taken = n if cleared.all() else int(np.argmin(cleared))
                for i in range(1, taken + 1):
                    record((first + i * stride) * h, rows[i])
                steps = first + taken * stride
                states[0] = rows[taken]
            del power
            stride_steps = steps
            t = steps * h
        while stop_reason == "max_time" and t < max_time:
            first = steps
            for n in range(1, RECORD_BATCH + 1):
                np.matmul(propagator, rows[n - 1], out=rows[n])
                rows[n] += gain
                if (first + n) * h >= max_time:
                    break
            norms = np.max(np.abs(states[: n + 1], out=work[: n + 1]), axis=1)
            increments = np.subtract(states[1 : n + 1], states[:n], out=work[:n])
            jumps = np.max(np.abs(increments, out=increments), axis=1)
            finite = np.isfinite(norms[1:])
            if finite.all():
                tested = taken = n
            else:
                # states up to the first non-finite one, which may be the
                # block's last; the last tested has no finite successor, so
                # no floor, and is the last taken
                tested = int(np.argmin(finite)) + 1
                taken = tested - 1
                jumps[taken] = np.nan
            skip = jumps[:tested] > jump_slope * norms[:tested] + jump_intercept
            if not skip.all():
                check = np.flatnonzero(~skip)
                d_max = batched_norms(np.take(states, check, axis=0, out=work[: len(check)]))
                low = below(check, d_max, tol, norms[check])
                if low.any():
                    taken = int(check[np.argmax(low)])
                    stop_reason = "stationary"
            for k in range(first + every - first % every, first + taken + 1, every):
                record(k * h, rows[k - first])
            steps = first + taken
            t = steps * h
            if taken < n and stop_reason == "max_time":
                # an earlier sample's V may already have overflowed
                flush()
                raise NonFiniteStateError((steps + 1) * h)
            states[0] = rows[taken]
        y = states[0].copy()
        if steps % every:
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

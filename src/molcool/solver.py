"""Mean-excitation dynamics of the cavity mode against the thermal bath.

In the slow-sweep regime the full state stays of quenched Boltzmann form
and the only dynamical quantity is eta(s) = <n>(s) + 1, obeying the
linear relaxation law (s = t/tau_open, g = gamma*tau_open)

    d(eta)/ds = -g*eta + g*(nu(theta(s)) + 1).

Two independent routes integrate it: a fixed-step explicit 4th-order
stepper (`evolve_eta_ode`) and the exact exponential-kernel solution
evaluated by Gauss-Legendre quadrature (`evolve_eta_closed_form`).  The cycle
engine cross-checks one against the other on every run.  A route returns
its samples s and eta alone; the cycle's record derives the observables.

Both routes and the oracle read one sample grid (`_grid`) and one
occupation evaluator (`occupation_at`).  The stepper is classical RK4
on each interval's substep edges and midpoints, offsets j h/2 from its
sample, with no loop over substeps or samples.  For this linear law
one substep of size h is exactly

    eta + alpha (u0 - g eta) + (h/6) (Q (um - u0) + (u1 - u0)),

with z = g h, alpha = (h/6)(6 - 3z + z^2 - z^3/4), Q = 4 - 2z + z^2/2
and u = g (nu + 1) at the substep's start, midpoint and end, so the m
substeps of a sample interval compose to eta + A (u0 - g eta) + G_k, with
A = alpha sum_j R^j, R = 1 - g alpha, and G_k the interval's forcing
beyond its first u0 carried forward by powers of R (one matrix product
for all intervals).  The deviation e = eta - eta0 from the start value
then goes through one affine map per sample interval, e_{k+1} = c_k e_k
+ x_k, with c_k = 1 - g A and x_k = A (u0_k - g eta0) + G_k.
`_kink_cuts` lists, for both routes, each sample interval with a kink of
the profile (`FrequencyProfile.kinks`) strictly inside, with its ends and
its kinks, in one pass over the kinks.  The stepper splits the substep a
kink falls in there, since a substep across a jump in the forcing's
derivatives costs RK4 its order, and such an interval writes its own c_k
and x_k (`_split_at_kinks`).  `_scan` composes all the maps as a prefix
scan in ceil(log2 n) numpy doubling passes (Blelloch, "Prefix sums and
their applications", 1990).  Every other c_k is one c, and from the
hold's first interval on, past every kink, every x_k is one value.  The
factor the pass of stride 2^p reads there is c^(2^p), built by repeated
squaring, and after each pass every x from a boundary on, which moves up
by the pass's stride from the hold's first interval, is one value: `_scan`
carries both as floats, works each pass only below the boundary and
writes the tail once, with the same bits.  On a grid with no kink
strictly inside an interval, which covers both reference commands, c is
one float throughout and no factor array is built.  In this form
constant forcing adds exactly nothing, a fixed point stays put exactly
and g = 0 freezes eta.  It is still RK4, with RK4's O(h^4) error against the
kernel route's quadrature error, so the cross-check keeps its
independence.

Both routes apply one run guard, `_substeps`, before allocating, and
`run_cycle` calls it for every segment before either route runs.  It
refuses a grid or a g D (below) the routes do not resolve, and sets the
stepper's m substeps per interval, h at most `STEP_SIZE` and g h at most
`_MAX_GH` = 0.088: far inside RK4's stability limit 2.785 (Hairer and
Wanner, Solving ODEs II, IV.2), so every R and c_k is in (0, 1].  RK4's
error on a jump in the forcing, decaying as exp(-g s), is O((g h)^4);
0.088 is the largest two-digit bound that keeps constant and
reversed-sine openings at theta0 = 0.032, r = 2 and g from 1.5e3 to
8.47e3 within 1e-7 of the kernel route.  Up to g = 880 at D = 1/2000,
`STEP_SIZE` alone sets m = 5.  The kernel
route integrates each sample interval by a fixed 8-node
Gauss-Legendre rule per smooth piece, split at the kinks inside it,
every interval before the hold in one call: 8 nodes per interval, fewer
than the stepper's 10 stage points.  `_rule_tables` builds the rule's
rows, nodes v and kernel weights g exp(-g (D - v)) over a piece of an
interval of width D, and `_rule` sums them against the forcing.  A whole
interval's row depends on D alone, so one table holds a row per width
class, gathered per interval; an interval with a kink inside also gets a
row per piece, whose sum replaces its whole row's integral.  A fixed rule
has no error estimate of its own.  Only the kernel's weight
g exp(-g (D - v)) can vary faster than a sample width D, and the rule's
relative error on it, against its integral 1 - exp(-g D), depends on
g D alone: it reaches 1e-13 at g D = 4.23775 with the nodes
as `_rule_tables` forms them (4.23784 with them exact).  `_substeps`
refuses a run whose g D, over the width horizon/n, passes `_MAX_GD`.
The recurrence
eta[k+1] = decay_k eta[k] + integral_k over the whole horizon is one
Python generator (each step needs the last), `_propagate`, that one
`np.fromiter` reads into an array, with the same multiply and add per
step: its operands come through memoryviews, so no sample passes through
a Python list, whose float objects would keep their allocator's arenas
resident past the route.  The intervals' widths take a handful of
values, the width classes (about 14 on a linspace grid), found by
`np.sort`, an adjacent-difference mask and `np.searchsorted`.  Each step
reads its class id and indexes its class's decay, one Python float; a
ramp step adds its own interval's integral, and a held step its class's
held integral, one Python float too.  The kernel route calls no
`np.unique`, the stepper calls it with an index output only, and neither
calls `np.union1d`: in numpy 2 those take a hashing path whose
masked-array check imports `numpy.ma`, which a run does not need.

Both routes do the work of a held stretch once.  From the profile's
`hold_start` on, `omega_at` returns the same bits at every s, so the
forcing there is one number.  The stepper evaluates it only up to the
first interval that starts in the hold; a held interval's forcing
differences are exact zeros, so its drive is one value for all of them.
The kernel route integrates each width class once, from `hold_start`,
when the hold starts inside the horizon: held integrands differ in the
width alone, so any held start gives the same bits.  Every sample comes
out with the bits it would have with the forcing evaluated at every
point.  A ramp that ends at the held forcing's equilibrium q = nu + 1,
or a run held from s = 0 that starts there, is held at q bit for bit:
the recurrence would carry it off q by rounding, a few ulps, so
`_propagate` yields q for the rest of the horizon.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .profiles import FrequencyProfile, _omega_core
from .thermo import _nu_core, thermal_eta
from .units import DimensionlessParams

SAMPLES_PER_UNIT = 2000  # both routes' output samples per tau_open
STEP_SIZE = 1e-4         # the fixed-step route's largest substep
_MAX_GH = 0.088          # the fixed-step route's largest g h
_MAX_STAGE_POINTS = 200_000_000  # a run's substep edges and midpoints, hold included
# np.polynomial.legendre.leggauss(8)'s positive nodes, each paired with its
# mirror -x, and weights, written out: importing numpy.polynomial costs 0.7 MB
_GL_NODES = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
                      0.9602898564975362])
_GL_WEIGHTS = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
               0.10122853629037706)
# the g D up to which the rule's relative error on the kernel is at most 1e-13
_MAX_GD = 4.2377
# the rule adds its node values, each at most the forcing g (nu + 1), in pairs
_MAX_FORCING = sys.float_info.max / 2


@dataclass(eq=False)
class EtaTrajectory:
    """What an eta route computes: eta at the samples s (profile-local, from
    0 to the horizon), and the substep it took, `step_size`, which is None
    from the kernel route.  The observables are derived from eta once, by
    `record.TimeSeriesRecord.from_trajectory`."""

    s: np.ndarray
    eta: np.ndarray
    step_size: float | None = None


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a recovery-time search; `s` is None when not recovered."""

    recovered: bool
    s: float | None
    horizon: float


def _check_run(horizon, samples_per_unit) -> int:
    """Sample intervals over `horizon`: samples_per_unit per unit, and at
    least one, so a run shorter than one interval still has two samples.
    A count past float range is refused."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    intervals = horizon * samples_per_unit
    if intervals == math.inf:
        raise SolverError(
            f"a sample grid of inf intervals (horizon {horizon:g} at {samples_per_unit:g} "
            "per unit) would exceed memory limits"
        )
    return max(1, int(round(intervals)))


def _grid(horizon, samples_per_unit, hold_start) -> tuple[np.ndarray, int]:
    """(s, n_ramp): every route's samples over `horizon`, np.linspace over
    `_check_run`'s intervals, and the index of the first interval that
    starts at or after `hold_start` (the interval count when none does)."""
    s = np.linspace(0.0, horizon, _check_run(horizon, samples_per_unit) + 1)
    return s, int(np.searchsorted(s[:-1], hold_start))


def _substeps(horizon: float, g: float) -> int:
    """m, the equal RK4 substeps per sample interval of a run over `horizon`
    at coupling g, once the run passes its guards, before either eta route
    allocates anything.

    Refused, in this order: a sample grid `_check_run` refuses; a g D past
    `_MAX_GD` over the sample width D = horizon/n, which the kernel
    quadrature does not resolve; and more than `_MAX_STAGE_POINTS` substep
    edges and midpoints, 2 m n + 1, which bounds every per-sample array.
    A run holds about 140 B per sample when its opening holds from s = 1
    (horizon 1000 at m = 5 peaks at 309 MB), and 465 B per sample when a
    ramp lasts the whole horizon at m = 5 (README).  m is
    the least count whose substep h = D/m is at most `STEP_SIZE` and puts
    g h at most `_MAX_GH`.
    """
    n_intervals = _check_run(horizon, SAMPLES_PER_UNIT)
    width = horizon / n_intervals
    g_d = g * width
    if not g_d <= _MAX_GD:
        raise SolverError(
            f"coupling too stiff for the kernel quadrature: g D = {g_d:.4g} per sample "
            f"interval, past {_MAX_GD:g}, where the 8-point rule's relative error on the "
            "kernel reaches 1e-13"
        )
    m = max(1, math.ceil(max(width / STEP_SIZE, g_d / _MAX_GH) - 1e-9))
    n_points = 2.0 * m * n_intervals + 1.0  # a float, which `:.3g` prints at any size
    if n_points > _MAX_STAGE_POINTS:
        raise SolverError(
            f"a substep grid of {n_points:.3g} points (horizon {horizon:g} at step "
            f"{horizon / (m * n_intervals):g}) would exceed memory limits "
            f"({_MAX_STAGE_POINTS} allowed)"
        )
    return m


def occupation_at(d: DimensionlessParams, profile: FrequencyProfile, s):
    """nu(theta0 r omega(s)/omega1): the bath occupation the schedule sets
    at profile-local s, a float or float array, finite and >= 0 as on every
    grid the package builds.  It runs `omega_at`'s and `nu_of`'s cores
    without their checks, for the same bits."""
    return _nu_core(d.theta0 * d.freq_ratio_r * _omega_core(profile, s, d.freq_ratio_r))


def _start_eta(d: DimensionlessParams, eta0: float | None) -> float:
    """A route's start value: `eta0`, or, when it is None, the thermal eta
    at the closed frequency, theta0 r, where the opening starts."""
    if eta0 is None:
        return thermal_eta(d.theta0 * d.freq_ratio_r)
    if not (math.isfinite(eta0) and eta0 > 1.0):
        raise ValueError(f"eta0 must exceed 1 (the ground-state limit), got {eta0}")
    return float(eta0)


def _checked_eta(s: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """`eta`, once every sample is finite and above the ground-state limit 1."""
    bad = np.flatnonzero(~((eta > 1.0) & (eta < math.inf)))
    if bad.size:
        k = bad[0]
        fault = "at or below the ground-state limit" if math.isfinite(eta[k]) else "not finite"
        raise SolverError(f"model violation: eta reached {eta[k]} at s = {s[k]:.6g} ({fault})")
    return eta


def _substep_coefficients(g, h):
    """alpha and Q of one RK4 substep of size h of eta' = u - g eta, which is
    exactly eta + alpha (u0 - g eta) + (h/6) (Q (um - u0) + (u1 - u0))."""
    z = g * h
    return h / 6.0 * (6.0 - 3.0 * z + z * z - z * z * z / 4.0), 4.0 - 2.0 * z + z * z / 2.0


def _kink_cuts(profile, s) -> list[tuple[int, np.ndarray]]:
    """(k, cut) for every sample interval k of the grid `s` with one of the
    profile's kinks strictly inside, k ascending: cut is s[k], the kinks
    inside, ascending, and s[k+1].  The kinks ascend, so each interval's are
    one run of them, grouped in one pass."""
    kinks = np.array(profile.kinks, dtype=float)
    k_of = np.searchsorted(s, kinks, side="right") - 1
    inside = (k_of < s.size - 1) & (s[k_of] < kinks)
    if not inside.any():
        return []
    k_of, kinks = k_of[inside], kinks[inside]
    first = np.flatnonzero(np.append(True, k_of[1:] != k_of[:-1]))
    return [(k, np.concatenate([s[k : k + 1], run, s[k + 1 : k + 2]]))
            for k, run in zip(k_of[first].tolist(), np.split(kinks, first[1:]))]


def _split_at_kinks(cuts, m, step, g, eta0, forcing, c, x) -> None:
    """Write (c_k, x_k) into c[k] and x[k] for every (k, cut) of
    `_kink_cuts`: the interval's m substeps (edges cut[0] + j step, then
    its end cut[-1]), the one a kink falls in split there, composed so that
    its deviation from eta0 goes e -> c_k e + x_k.  One interval at a time,
    each reading the forcing once at its own stage points: `x_sub @ later`
    is a BLAS dot, whose summation order a batched product need not repeat,
    so the loop keeps every interval's bits."""
    for k, cut in cuts:
        # return_inverse keeps off np.unique's hash path, which imports numpy.ma
        edges = np.unique(np.concatenate([cut[0] + step * np.arange(m), cut]),
                          return_inverse=True)[0]
        h = np.diff(edges)
        alpha, q = _substep_coefficients(g, h)
        r = 1.0 - g * alpha
        starts = edges[:-1]
        u0, um, u1 = np.split(forcing(np.concatenate([starts, starts + 0.5 * h, edges[1:]])), 3)
        x_sub = alpha * (u0 - g * eta0) + h / 6.0 * (q * (um - u0) + (u1 - u0))
        # each substep's x is carried to the interval's end by the substeps after it
        later = np.append(np.cumprod(r[:0:-1])[::-1], 1.0)
        c[k], x[k] = np.prod(r), x_sub @ later


def _scan(c, x, held: int) -> None:
    """Compose the affine maps e -> c[i] e + x[i] from e = 0, x in place,
    where every x[i] from i = `held` on is one value and c is one float
    shared by every map or an array of factors, one per map, the same from
    `held` on.

    Afterwards x[i] is the deviation after map i; an array c is scratch.
    Doubling passes (Hillis and Steele; Blelloch 1990): after the pass of
    stride d, x[i] composes maps i-2d+1..i, so ceil(log2 n) passes finish
    it.  The factor the pass multiplies x[i] by composes the d maps up to
    i, built by repeated squaring, so where those maps are all held it is
    the held factor's c^d: one float, `tail`, carries it and is squared
    after each pass.  Past `live`, at first `held`, every x[i] is one value
    v: a pass of stride d adds c^d v to v there, and `live` moves up by d.
    So each pass fills only the slots it newly reads with v (and an array
    c with c^d), works on x[d : live + d] and writes the tail once, at the
    end, with the bits of passes over the whole arrays.
    """
    n = x.size
    factors = isinstance(c, np.ndarray)
    buf = np.empty(n)
    live = held
    v = float(x[held]) if held < n else 0.0
    # with held = n the tail is empty and its factor unread
    tail = float(c[min(held, n - 1)]) if factors else c
    stride = 1
    while stride < n:
        end = min(n, live + stride)
        x[live:end] = v
        factor = tail
        if factors:
            c[live:end] = tail
            factor = c[stride:end]
        x[stride:end] += np.multiply(factor, x[: end - stride], out=buf[: end - stride])
        if factors:
            c[stride:end] *= c[: end - stride]
        v += tail * v
        live += stride
        tail *= tail
        stride *= 2
    x[live:] = v


def evolve_eta_ode(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    eta0: float | None = None,
    horizon: float = 10.0,
) -> EtaTrajectory:
    """Fixed-step explicit 4th-order integration of the eta relaxation law.

    Every inter-sample interval is split into the m equal substeps that
    `_substeps` sets, h at most `STEP_SIZE` and g h at most `_MAX_GH`, so
    sample times are hit exactly and every substep is stable.  An
    interval with one of the profile's kinks strictly inside
    also splits the substep the kink falls in there, so that RK4 only
    steps over smooth forcing.  Output sampling (`SAMPLES_PER_UNIT` per
    tau_open) is decoupled from the integration step.  The samples come
    from one numpy scan of the per-interval affine maps, not from a loop
    over them.  It refuses what `evolve_eta_closed_form` refuses, a g D
    past `_MAX_GD` too.  `eta0=None` starts from the thermal eta at the
    closed frequency.
    """
    g = d.gamma_tau_g
    # the substep count is checked before any grid is allocated
    m = _substeps(horizon, g)
    eta0 = _start_eta(d, eta0)

    def forcing(t):
        return g * (occupation_at(d, profile, t) + 1.0)

    s, n_ramp = _grid(horizon, SAMPLES_PER_UNIT, profile.hold_start)
    n_intervals = s.size - 1
    h = horizon / (m * n_intervals)
    # the stages of the intervals before the hold, j h/2 from each sample;
    # u[-1] sits at the first held interval's start, or at the horizon
    points = np.empty(2 * m * n_ramp + 1)
    np.add(s[:n_ramp, None], 0.5 * h * np.arange(2 * m), out=points[:-1].reshape(n_ramp, 2 * m))
    points[-1] = s[n_ramp]
    u = forcing(points)
    alpha, q = _substep_coefficients(g, h)
    r = 1.0 - g * alpha
    # m substeps from sample k: eta + A (u0[k] - g eta) + drive[k], with
    # A = alpha sum_j r^j and drive[k] the substeps' forcing beyond u0[k],
    # each carried to the sample's end by its power of r
    u0 = u[0:-1:2].reshape(n_ramp, m)
    um = u[1::2].reshape(n_ramp, m)
    u1 = u[2::2].reshape(n_ramp, m)
    # e[k] = eta[k] - eta0 obeys e[k+1] = c[k] e[k] + x[k], c[k] = 1 - g A
    # and x[k] = A (u0[k] - g eta0) + drive[k]; x is built in e's tail and
    # scanned there
    e = np.empty(n_intervals + 1)
    e[0] = 0.0
    x = e[1:]
    weights = r ** np.arange(m - 1, -1, -1, dtype=float)
    a_m = alpha * float(weights.sum())
    c = 1.0 - g * a_m  # every interval's factor, unless a kink splits it
    drive = (alpha * (u0 - u0[:, :1]) + h / 6.0 * (q * (um - u0) + (u1 - u0))) @ weights
    x[:n_ramp] = a_m * (u0[:, 0] - g * eta0) + drive
    # a held interval's forcing differences are all exactly 0, so its drive is 0
    x[n_ramp:] = a_m * (u[-1] - g * eta0)
    cuts = _kink_cuts(profile, s)
    if cuts:
        c = np.full(n_intervals, c)
        _split_at_kinks(cuts, m, h, g, eta0, forcing, c, x)
    _scan(c, x, n_ramp)
    return EtaTrajectory(s, _checked_eta(s, np.add(e, eta0, out=e)), h)


def evolve_eta_closed_form(
    d: DimensionlessParams,
    profile: FrequencyProfile,
    eta0: float | None = None,
    horizon: float = 10.0,
) -> EtaTrajectory:
    """Exact exponential-kernel solution of the eta relaxation law.

    Sample to sample (`SAMPLES_PER_UNIT` per tau_open) the linear law
    propagates exactly as

        eta(s + D) = exp(-g D) eta(s)
                     + integral over [0, D] of g exp(-g (D - v)) (nu(theta(s + v)) + 1) dv,

    each interval integral by the 8-point rule (`_rule`, a whole interval
    by its width class's row, each piece of one with a kink inside by its
    own).  No finite-difference stepping is involved, which makes this
    route the authoritative one in cross-checks.  It refuses what
    `evolve_eta_ode` refuses (`_substeps`), before allocating any.
    `eta0=None` starts from the thermal eta at the closed frequency.
    """
    g = d.gamma_tau_g
    _substeps(horizon, g)
    s, n_ramp = _grid(horizon, SAMPLES_PER_UNIT, profile.hold_start)
    eta0 = _start_eta(d, eta0)
    widths = np.diff(s)

    def forcing(t):
        return occupation_at(d, profile, t) + 1.0

    # the width classes, found by a sort, off np.unique's hash path
    ordered = np.sort(widths)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    width_id = np.searchsorted(distinct, widths)
    # one row per width class, a whole interval from 0 to its width
    tables = _rule_tables(g, np.zeros(distinct.size), distinct, distinct)
    decays = [math.exp(-x) for x in (g * distinct).tolist()]  # one per width class
    eta = np.empty(s.size)
    eta[0] = eta0
    # every interval before the hold by its class's row, in one call; then
    # each one with a kink inside by one row per piece between its ends and
    # the kinks, its pieces added up in order from 0
    integrals = _rule(forcing, s[:n_ramp], [t.take(width_id[:n_ramp], axis=0) for t in tables])
    cuts = _kink_cuts(profile, s)
    if cuts:
        split = [k for k, _ in cuts]
        rows = np.repeat(split, [cut.size - 1 for _, cut in cuts])
        lo = np.concatenate([cut[:-1] - cut[0] for _, cut in cuts])
        hi = np.concatenate([cut[1:] - cut[0] for _, cut in cuts])
        pieces = _rule(forcing, s[rows], _rule_tables(g, lo, hi, widths[rows]))
        integrals[split] = np.bincount(rows, weights=pieces)[split]
    held, q = [], math.nan
    if n_ramp < widths.size:
        # the hold starts inside the horizon: each width class's held integral
        q = float(occupation_at(d, profile, profile.hold_start)) + 1.0
        held = _rule(forcing, np.full(distinct.size, profile.hold_start), tables).tolist()
    _propagate(eta, width_id, decays, integrals, held, q)
    return EtaTrajectory(s, _checked_eta(s, eta))


def _rule_tables(g, lo, hi, width):
    """(half, nodes, kernel): row i of the 8-node Gauss-Legendre rule (Golub
    and Welsch, Math. Comp. 23, 221, 1969) for g exp(g (v - width[i]))
    f(start + v) over v in [lo[i], hi[i]], whatever the start: its
    half-width (hi - lo)/2 as a column, nodes v = lo + (hi - lo)/2 (1 + x_j)
    and the kernel weights there."""
    half = 0.5 * (hi - lo)[:, None]
    nodes = lo[:, None] + np.concatenate([half * (1.0 + _GL_NODES), half * (1.0 - _GL_NODES)], 1)
    return half, nodes, g * np.exp(g * (nodes - width[:, None]))


def _rule(forcing, start, tables):
    """The integrals of `_rule_tables`' rows with f = `forcing`, row i from
    start[i].  Each row sums its node pairs w_j (f(x_j) + f(-x_j)) one
    after another, elementwise, so its bits do not depend on the rows
    beside it, as a matrix product's would."""
    half, nodes, kernel = tables
    values = kernel * forcing(start[:, None] + nodes)
    pairs = values[:, :4] + values[:, 4:]
    return half[:, 0] * sum(w * pairs[:, j] for j, w in enumerate(_GL_WEIGHTS))


def _propagate(eta, width_id, decays, integrals, held, q) -> None:
    """eta[k+1] = decays[c] eta[k] + integrals[k] over the ramp's
    integrals.size intervals, then + held[c] over the held ones, with
    c = width_id[k], in place in the float64 array eta from eta[0].  A ramp
    that ends at the held equilibrium q stays there: the held steps would
    carry it off q by rounding.  decays and held are Python floats, one
    per width class; width_id and integrals are read through memoryviews
    and the steps' values yielded to one `np.fromiter`, so no sample is
    held in a Python list."""
    n_ramp = integrals.size
    ids = memoryview(width_id)

    def steps(value):
        for c, integral in zip(ids[:n_ramp], memoryview(integrals)):
            value = decays[c] * value + integral
            yield value
        if value == q:
            yield from itertools.repeat(q)  # np.fromiter stops at the horizon
        for c in ids[n_ramp:]:
            value = decays[c] * value + held[c]
            yield value

    eta[1:] = np.fromiter(steps(float(eta[0])), float, width_id.size)


RECOVERY_TARGET = 0.997  # T_ratio a run must climb back to


def recovery_time(traj) -> RecoveryResult:
    """First s at or after the T_ratio minimum where T_ratio >= `RECOVERY_TARGET`.

    Works on records (`record.TimeSeriesRecord`), or any object with `s`
    and `T_ratio` sample arrays.  The sub-sample crossing is the root of
    the straight line through the two bracketing samples.  When the
    trajectory never crosses the target the result carries
    `recovered=False` and the horizon that was searched.
    """
    s = np.asarray(traj.s, dtype=float)
    ratio = np.asarray(traj.T_ratio, dtype=float)
    if s.size < 2:
        raise ValueError("trajectory needs at least two samples")
    horizon = float(s[-1])
    i_min = int(np.argmin(ratio))
    if ratio[i_min] >= RECOVERY_TARGET:
        # the target at or below the minimum: the crossing is the minimum itself
        return RecoveryResult(True, float(s[i_min]), horizon)
    above = np.nonzero(ratio[i_min:] >= RECOVERY_TARGET)[0]
    if above.size == 0:
        return RecoveryResult(False, None, horizon)
    # ratio[j - 1] < RECOVERY_TARGET <= ratio[j]: the line through the pair crosses once
    j = i_min + int(above[0])
    s0, s1 = float(s[j - 1]), float(s[j])
    r0, r1 = float(ratio[j - 1]), float(ratio[j])
    return RecoveryResult(True, s0 + (RECOVERY_TARGET - r0) / (r1 - r0) * (s1 - s0), horizon)

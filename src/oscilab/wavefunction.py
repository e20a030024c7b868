"""Position-space representation: eigenfunction rows, packets, quadrature.

The raw Hermite recurrence H_{k+1} = 2x H_k - 2k H_{k-1} overflows near
n ~ 150 at moderate x, so the eigenfunctions run the recurrence on the
Gaussian-weighted, orthonormal functions directly, which stay bounded for
any level. `generating_sum_check` keeps the raw recurrence for the Hermite
generating identity, where k stays small.

The coherent packet is available as the eigenfunction series of a state, the
time-0 amplitudes its caller built, and as the label's closed form, a Gaussian
with a complex center whose exponent has a real part never above 0, so it is
finite at any |chi|. `packet_sweep` returns both, on one (S, N) array of
grids, one per time, with the series' squared norm and width, for the
`wavefunction` command and the `wave-packet-nondiffusion` criterion to
compare; the tests check them against each other and against the textbook
references of `tests/oracle.py` (single eigenfunctions, the packet written
through the mean coordinate, each slice's moments).

The series never builds an eigenfunction table. It adds c_k phi_k into a
(2, S, N) float accumulator, k ascending, as each row leaves the recurrence,
so it holds a few grid-sized rows instead of (n_max + 1) of them, and the
sum is plain elementwise numpy in a fixed order: no BLAS call, and the same
bits at any BLAS thread count. It takes a stack of S slices, each with its
own time and grid, and runs the recurrence once over all their points
(`psi_series_grid` gives the passes, the workspace and the ufunc buffer). A
point gets the same operations either way, so a slice of a stack equals its
own call to the bit. The closed form takes the same stacks, with the same
guarantee.
"""

from __future__ import annotations

import math

import numpy as np

from .coherent import CoherentLabel
from .fock import OscillatorParams, StateVector, Value, check_n_max, level_phases
from .observables import averages_closedform_batch

__all__ = [
    "WaveSample",
    "generating_sum_check",
    "psi_series_grid",
    "psi_closed_grid",
    "packet_sweep",
]

DEFAULT_GRID_HALFWIDTH = 10.0  # in units of the oscillator length
DEFAULT_GRID_POINTS = 2001

# Points per pass of the series recurrence. A pass keeps eight float rows of
# its points live in one workspace, each row padded to whole cache lines:
# 1.3 MB at this size, within a 2 MiB L2 cache. Measured on such a core: 9
# slices of 2001 points at n_max 589 ran 10-20% faster in one pass than one
# slice per pass, and 25 slices at n_max 64 ran 15-45% slower in one pass
# than in passes of 5 to 10.
_SERIES_PASS_POINTS = 20_000


class WaveSample(Value):
    """Complex amplitude at one position (length**-1/2); perfbench counts them."""

    __slots__ = ("x", "value")

    def __init__(self, x: float, value: complex):
        v = complex(value)
        if not (math.isfinite(x) and math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("sample must be finite")
        self._init(float(x), v)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float array of `shape` whose first element starts a
    64-byte cache line."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _eigenfunction_rows(
    n_max: int, xs: np.ndarray, params: OscillatorParams, scratch: np.ndarray
):
    """Yield phi_0..phi_n_max on `xs`, one contiguous float row at a time.

    Runs the recurrence on the weighted functions themselves,
        phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1},
    with xi = x sqrt(M omega / hbar), so no factorials or bare Hermite
    values ever appear. `scratch`, a (4, *xs.shape) float array, holds xi
    (`xs` may be scratch[0] itself) and three rotating rows, so a yielded
    row is valid only until the generator resumes.
    """
    xi, prev, cur, new = scratch
    multiply, subtract = np.multiply, np.subtract
    multiply(xs, math.sqrt(params.mass * params.omega / params.hbar), out=xi)
    prefactor = (params.mass * params.omega / (math.pi * params.hbar)) ** 0.25
    multiply(-0.5, xi, out=prev)  # prefactor * exp(-0.5 * xi * xi)
    multiply(prev, xi, out=prev)
    np.exp(prev, out=prev)
    multiply(prefactor, prev, out=prev)
    yield prev
    if n_max == 0:
        return
    multiply(math.sqrt(2.0), xi, out=cur)
    multiply(cur, prev, out=cur)
    yield cur
    for k in range(1, n_max):
        multiply(math.sqrt(2.0 / (k + 1)), xi, out=new)
        multiply(new, cur, out=new)
        multiply(math.sqrt(k / (k + 1.0)), prev, out=prev)  # phi_{k-1} is spent
        subtract(new, prev, out=new)
        yield new
        prev, cur, new = cur, new, prev


def eigenfunction_table(n_max: int, x, params: OscillatorParams) -> np.ndarray:
    """Orthonormal eigenfunctions phi_0..phi_n_max stacked along axis 0, the
    rows of the recurrence above. No command builds the table; it stays for
    the tests and because perfbench's traced metrics name it."""
    n_max = check_n_max(n_max)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.empty((n_max + 1, xs.size), dtype=float)
    rows = _eigenfunction_rows(n_max, xs, params, _aligned((4, xs.size)))
    for k, row in enumerate(rows):
        table[k] = row
    return table


def generating_sum_check(x: float, t: float, k_max: int) -> float:
    """Truncation residual of sum_k t^k H_k(x) / k! against exp(2xt - t^2)."""
    k_max = int(k_max)
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    x = float(x)
    t = float(t)
    h_prev, h = 1.0, 2.0 * x
    coeff = 1.0  # t^k / k!
    total = 1.0  # k = 0 term
    for k in range(1, k_max + 1):
        coeff *= t / k
        total += coeff * h
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return abs(total - math.exp(2.0 * x * t - t * t))


def _slices(t, x) -> tuple[np.ndarray, np.ndarray]:
    """(S,) times and (S, N) points of S slices, t of length S and x of
    shape (S, N), slice s on the points x[s] at t[s]. Any other pairing
    raises ValueError."""
    ts = np.asarray(t, dtype=float)
    xs = np.asarray(x, dtype=float)
    if ts.ndim != 1 or xs.ndim != 2 or xs.shape[0] != ts.size:
        raise ValueError(
            f"times of shape {ts.shape} need x of shape ({ts.size}, N), "
            f"got {xs.shape}"
        )
    return ts, xs


def psi_series_grid(base: StateVector, x, t, params: OscillatorParams) -> np.ndarray:
    """The state `base` as its eigenfunction series on a stack of S slices,
    slice s being `base` propagated by t[s] as `propagate_fock` propagates
    it: t of length S and x of shape (S, N) give an (S, N) array.

    One pass of the recurrence covers every point of as many slices as fit
    in _SERIES_PASS_POINTS points, and at least one. Each eigenfunction row
    is multiplied by (Re c_k(t_s), Im c_k(t_s)) and added into a (2, S, N)
    float accumulator as the recurrence yields it, k ascending. No
    (n_max + 1) x N table is built (19 MB as complex at n_max 589 on 2001
    points), and the sum is a fixed-order elementwise loop rather than a
    BLAS product, so every point gets the same operations whatever the
    stack around it, and its bits do not depend on the BLAS build or thread
    count.

    A pass's xi, three recurrence rows, accumulator and term come from one
    workspace per call (concurrent calls share nothing) whose rows each
    start on a 64-byte cache line: a row is padded to whole lines (2001
    points to 2008) with its last point, which keeps the padded lanes
    finite, and only the first N lanes are read back. Every element keeps
    its operations, so its bits; unaligned rows cost loads that straddle
    two lines (12.4 against 11.1 ms at 9 x 2001 points, n_max 589).

    The multiply broadcasts the (2, S, 1) coefficients over the (S, N) rows,
    and numpy's ufunc iterator copies both operands through its buffer
    whenever that buffer (8192 elements by default) spans more than one row:
    36 us a level at 9 x 2001 points, against 12 us with a buffer of at most
    one row (2-vCPU Xeon, numpy 2.4). So the loop runs with the buffer cut to
    the row length, rounded down to a multiple of 16 as numpy 1 requires and
    never above the caller's size, which every exit restores. Only the
    copying changes: each element gets the same multiply and add.
    """
    ts, xs = _slices(t, x)
    slices, npoints = xs.shape
    series = np.empty(xs.shape, dtype=complex)
    per_pass = max(1, _SERIES_PASS_POINTS // max(1, npoints))
    width = -(-npoints // 8) * 8  # whole 64-byte lines of floats
    # a pass's xi, three recurrence rows, accumulator and term
    space = _aligned((8, min(per_pass, slices), width))
    multiply, add = np.multiply, np.add
    caller_bufsize = np.getbufsize()
    bufsize = min(caller_bufsize, max(16, npoints // 16 * 16))
    for start in range(0, slices, per_pass):
        block = slice(start, start + per_pass)
        # row s is propagate_fock's coeffs of base at ts[s], to the bit
        coeffs = base.coeffs * level_phases(params, ts[block], base.n_max)
        # parts[k] is the (2, slices, 1) stack of Re and Im c_k(t_s)
        parts = np.stack([coeffs.real, coeffs.imag]).transpose(2, 0, 1)[..., np.newaxis]
        work = space[:, :len(coeffs)]
        # the padded lanes repeat each slice's last point, so stay finite;
        # no lane is read back past the slice's own points
        points = work[0]
        points[:, :npoints] = xs[block]
        points[:, npoints:] = xs[block, -1:]
        acc, term = work[4:6], work[6:]
        acc.fill(0.0)
        # Above the pass's last nonzero coefficient every term is +-0 phi_k,
        # and adding that to a finite accumulator never changes it, so the
        # recurrence stops there with the same bits.
        nonzero = np.flatnonzero(parts.reshape(parts.shape[0], -1).any(axis=1))
        top = int(nonzero[-1]) if nonzero.size else 0
        rows = _eigenfunction_rows(top, points, params, work[:4])
        # scoped by hand: numpy < 2 ties no context manager to the buffer size
        np.setbufsize(bufsize)
        try:
            for part, row in zip(parts, rows):
                multiply(part, row, out=term)
                add(acc, term, out=acc)
        finally:
            np.setbufsize(caller_bufsize)
        out = series[block]
        out.real, out.imag = acc[..., :npoints]
    return series


def psi_closed_grid(label: CoherentLabel, x, t, params: OscillatorParams) -> np.ndarray:
    """Closed-form coherent packet on arrays of positions, the Gaussian with
    complex center chi(t) = a + ib written as
        N exp(-i omega t / 2) exp(-u^2 + i b (2u + a)),
    u = x sqrt(M omega / 2 hbar) - a, N = (M omega / pi hbar)^(1/4): the
    exponent's real part is never positive, so no cell overflows, and -u^2
    takes u clipped to +-1e154, where exp(-u^2) is long 0, so it cannot either.

    Takes the stacks of `psi_series_grid`. The exponential is numpy's
    complex one, and its product with each slice's factor, N times the
    ground level's phase from `level_phases`, is taken in real arithmetic,
    so a slice is its own 1-slice call to the bit, at every SIMD level. No
    multivalued logarithm is involved, so sweeps over t never hit a branch cut.
    """
    ts, xs = _slices(t, x)
    hbar, mass, omega = params.hbar, params.mass, params.omega
    prefactor = (mass * omega / (math.pi * hbar)) ** 0.25
    closed = averages_closedform_batch(label, ts, params)
    a, b = closed["a_avg_re"][:, np.newaxis], closed["a_avg_im"][:, np.newaxis]
    u = xs * math.sqrt(mass * omega / (2.0 * hbar)) - a
    gauss = np.empty(xs.shape, dtype=complex)
    gauss.real, gauss.imag = -np.square(np.clip(u, -1e154, 1e154)), b * (2.0 * u + a)
    np.exp(gauss, out=gauss)
    phase = level_phases(params, ts, 0)
    fr, fi = prefactor * phase.real, prefactor * phase.imag
    values = np.empty_like(gauss)
    values.real = fr * gauss.real - fi * gauss.imag
    values.imag = fr * gauss.imag + fi * gauss.real
    return values


def packet_sweep(
    label: CoherentLabel, base: StateVector, times, params: OscillatorParams,
    halfwidth: float = DEFAULT_GRID_HALFWIDTH, npoints: int = DEFAULT_GRID_POINTS,
):
    """(points, series, closed, norm2, variance) of the packet at the 1-d times.

    Slice s lies on the trapezoid grid of `npoints` points spanning the mean
    at times[s] +/- `halfwidth` oscillator lengths. The S grids are one
    C-contiguous (S, N) array from one broadcast `linspace`, the series of
    `base`, the label's time-0 state, and the label's complex-centre closed
    form come from one stacked call each. One pass over the stack takes each
    slice's squared norm, the sum of weights * |series|^2, and its variance,
    normalized by that norm so that a slightly leaky truncation does not skew
    it; a zero slice (its grid wholly past the series seed's underflow,
    |xi| > 38.6) gets norm 0 and, from 0/0, variance nan.
    Before building anything it refuses a grid that would square past the
    float range, and after, the first grid, in time order, that is not
    strictly increasing.
    """
    if npoints < 2:
        raise ValueError(f"need at least 2 points, got {npoints}")
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"halfwidth must be finite and positive, got {halfwidth!r}")
    centers = averages_closedform_batch(label, times, params)["mean_x"]
    span = halfwidth * params.length_scale
    per_length = math.sqrt(params.mass * params.omega / params.hbar)  # x to xi
    for center in centers.tolist():
        # the widest coordinate difference, in length and in oscillator lengths
        widest = 2.0 * (abs(center) + span) * max(1.0, per_length)
        if not math.isfinite(widest * widest):
            raise ValueError(
                f"the grid of halfwidth {halfwidth!r} around centre {center!r} is too "
                "wide: its squared coordinate differences pass the float range"
            )
    points = np.ascontiguousarray(
        np.linspace(centers - span, centers + span, npoints, axis=-1)
    )
    increasing = (points[:, 1:] > points[:, :-1]).all(axis=-1)
    if not increasing.all():
        raise ValueError(
            f"the grid of halfwidth {halfwidth!r} around centre "
            f"{centers.tolist()[int(increasing.argmin())]!r} is not strictly "
            f"increasing: its {npoints} points collapse onto too few floats"
        )
    step = points[:, 1:2] - points[:, :1]
    weights = np.repeat(step, npoints, axis=1)
    weights[:, [0, -1]] = 0.5 * step
    series = psi_series_grid(base, points, times, params)
    closed = psi_closed_grid(label, points, times, params)
    density = weights * np.abs(series) ** 2
    norm2 = density.sum(axis=-1)
    with np.errstate(invalid="ignore"):  # a zero slice's 0/0
        mean = (points * density).sum(axis=-1) / norm2
        variance = ((points - mean[:, np.newaxis]) ** 2 * density).sum(axis=-1) / norm2
    return points, series, closed, norm2, variance

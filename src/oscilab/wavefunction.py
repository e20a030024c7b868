"""Position-space representation: Hermite numerics, eigenfunctions, packets.

Two evaluation strategies coexist on purpose. The standalone `hermite` uses
the raw polynomial recurrence H_{k+1} = 2x H_k - 2k H_{k-1}, which overflows
near n ~ 150 at moderate x. Eigenfunctions therefore run the recurrence on
the Gaussian-weighted, orthonormal functions directly, which stay bounded
for any level.

The coherent packet is available as a truncated eigenfunction series and in
two algebraically identical closed forms: a Gaussian with a complex center,
and the historical form written through the mean coordinate and momentum.
Their pointwise agreement is asserted in tests rather than assumed.

The series never builds an eigenfunction table. It adds c_k phi_k into a
(2, N) float accumulator, k ascending, as each row leaves the recurrence, so
it holds a few grid-sized rows instead of (n_max + 1) of them, and the sum
is plain elementwise numpy in a fixed order: no BLAS call, and the same bits
at any BLAS thread count. It also takes a stack of S slices, each with its
own time and grid, and runs the recurrence once over all their points, in
passes bounded to stay in cache. A point gets the same operations in the
same order either way, so a slice of a stack equals its own call to the bit.
The closed forms take the same stacks, with the same guarantee, and
`packet_sweep` runs both on a grid per time for the `wavefunction` command
and the `wave-packet-nondiffusion` criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import CoherentLabel, coherent_coefficients
from .fock import DimensionMismatchError, OscillatorParams, level_phases
from .observables import averages_closedform_batch

__all__ = [
    "CLOSED_FORMS",
    "SpatialGrid",
    "WaveSample",
    "hermite",
    "eigenfunction",
    "eigenfunction_table",
    "generating_sum_check",
    "psi_series",
    "psi_series_grid",
    "psi_closed",
    "psi_closed_grid",
    "quadrature_norm",
    "packet_moments",
    "packet_sweep",
    "trapezoid_grid",
    "default_packet_grid",
    "gauss_hermite_grid",
]

# The complex-center Gaussian and the Schrodinger mean-coordinate form.
CLOSED_FORMS = ("complex_center", "schrodinger")

DEFAULT_GRID_HALFWIDTH = 10.0  # in units of the oscillator length
DEFAULT_GRID_POINTS = 2001

# Points per pass of the series recurrence. A pass keeps eight float rows of
# its points live, 1.3 MB at this size, within a 2 MiB L2 cache. Measured on
# such a core: 9 slices of 2001 points at n_max 589 ran 10-20% faster in one
# pass than one slice per pass, and 25 slices at n_max 64 ran 15-45% slower
# in one pass than in passes of 5 to 10.
_SERIES_PASS_POINTS = 20_000


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Quadrature nodes and positive weights on a strictly increasing axis."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be 1-d arrays")
        if pts.size != wts.size:
            raise DimensionMismatchError(
                f"{pts.size} points but {wts.size} weights"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("grid entries must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing")
        if np.any(wts <= 0):
            raise ValueError("weights must be positive")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class WaveSample:
    """Complex amplitude at one position (units length**-1/2)."""

    x: float
    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not (
            math.isfinite(self.x)
            and math.isfinite(v.real)
            and math.isfinite(v.imag)
        ):
            raise ValueError("sample must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "value", v)


def _as_axis(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    Accepts a scalar or an array of positions. No overflow trap: for large
    n * x the values exceed double range and return inf.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    xs, scalar = _as_axis(x)
    h_prev = np.ones_like(xs)
    if n == 0:
        return float(h_prev[0]) if scalar else h_prev
    h = 2.0 * xs
    for k in range(1, n):
        h, h_prev = 2.0 * xs * h - 2.0 * k * h_prev, h
    return float(h[0]) if scalar else h


def _eigenfunction_rows(n_max: int, xs: np.ndarray, params: OscillatorParams):
    """Yield phi_0..phi_n_max on `xs`, one contiguous float row at a time.

    Runs the recurrence on the weighted functions themselves,
        phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1},
    with xi = x sqrt(M omega / hbar), so no factorials or bare Hermite
    values ever appear. Three scratch rows rotate, so a yielded row is
    valid only until the generator resumes.
    """
    xi = xs * math.sqrt(params.mass * params.omega / params.hbar)
    prefactor = (params.mass * params.omega / (math.pi * params.hbar)) ** 0.25
    prev = prefactor * np.exp(-0.5 * xi * xi)
    yield prev
    if n_max == 0:
        return
    cur = math.sqrt(2.0) * xi * prev
    yield cur
    new = np.empty_like(xi)
    multiply, subtract = np.multiply, np.subtract
    for k in range(1, n_max):
        multiply(math.sqrt(2.0 / (k + 1)), xi, out=new)
        multiply(new, cur, out=new)
        multiply(math.sqrt(k / (k + 1.0)), prev, out=prev)  # phi_{k-1} is spent
        subtract(new, prev, out=new)
        yield new
        prev, cur, new = cur, new, prev


def eigenfunction_table(n_max: int, x, params: OscillatorParams) -> np.ndarray:
    """Orthonormal eigenfunctions phi_0..phi_n_max stacked along axis 0.

    The rows come from the weighted-function recurrence above, so no
    factorials or bare Hermite values ever appear.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    xs, _ = _as_axis(x)
    table = np.empty((n_max + 1, xs.size), dtype=float)
    for k, row in enumerate(_eigenfunction_rows(n_max, xs, params)):
        table[k] = row
    return table


def eigenfunction(n: int, x, params: OscillatorParams):
    """Oscillator eigenfunction phi_n(x), normalized to unit square integral."""
    xs, scalar = _as_axis(x)
    values = eigenfunction_table(int(n), xs, params)[-1]
    return float(values[0]) if scalar else values


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


def _slices(t, x) -> tuple[np.ndarray, np.ndarray, bool]:
    """(S,) times, (S, N) points and whether t is a single time: a scalar t
    with a scalar or 1-d x (S = 1), or S slices, t of length S and x of
    shape (S, N), slice s on the points x[s] at t[s]. Any other pairing
    raises DimensionMismatchError."""
    ts = np.asarray(t, dtype=float)
    xs = np.asarray(x, dtype=float)
    if ts.ndim == 0:
        if xs.ndim > 1:
            raise DimensionMismatchError(
                f"a single time takes a scalar or 1-d x, got shape {xs.shape}"
            )
        return ts.reshape(1), xs.reshape(1, -1), True
    if ts.ndim != 1 or xs.ndim != 2 or xs.shape[0] != ts.size:
        raise DimensionMismatchError(
            f"times of shape {ts.shape} need x of shape ({ts.size}, N), "
            f"got {xs.shape}"
        )
    return ts, xs, False


def psi_series_grid(
    label: CoherentLabel, x, t, params: OscillatorParams, n_max: int
) -> np.ndarray:
    """Coherent packet as the truncated eigenfunction series, on arrays of x.

    A scalar t takes a scalar or 1-d x and returns the (N,) series. A stack
    of S slices takes t of length S and x of shape (S, N) and returns an
    (S, N) array; see `_slices` for the pairings.

    One pass of the recurrence covers every point of as many slices as fit
    in _SERIES_PASS_POINTS points, and at least one. Each eigenfunction row
    is multiplied by (Re c_k(t_s), Im c_k(t_s)) and added into a (2, S, N)
    float accumulator as the recurrence yields it, k ascending. No
    (n_max + 1) x N table is built (19 MB as complex at n_max 589 on 2001
    points), and the sum is a fixed-order elementwise loop rather than a
    BLAS product, so every point gets the same operations whatever the
    stack around it, and its bits do not depend on the BLAS build or thread
    count.
    """
    ts, xs, single = _slices(t, x)
    series = np.empty(xs.shape, dtype=complex)
    per_pass = max(1, _SERIES_PASS_POINTS // max(1, xs.shape[1]))
    base = coherent_coefficients(label, n_max).coeffs
    multiply, add = np.multiply, np.add
    for start in range(0, ts.size, per_pass):
        block = slice(start, start + per_pass)
        # row s is dynamical_coherent_state(label, ts[s], ...).coeffs to the bit
        coeffs = base * level_phases(params, ts[block], n_max)
        # parts[k] is the (2, slices, 1) stack of Re and Im c_k(t_s)
        parts = np.stack([coeffs.real, coeffs.imag]).transpose(2, 0, 1)[..., np.newaxis]
        points = xs[block]
        acc = np.zeros((2, *points.shape))
        term = np.empty_like(acc)
        # Above the pass's last nonzero coefficient every term is +-0 phi_k,
        # and adding that to a finite accumulator never changes it, so the
        # recurrence stops there with the same bits.
        nonzero = np.flatnonzero(parts.reshape(parts.shape[0], -1).any(axis=1))
        top = int(nonzero[-1]) if nonzero.size else 0
        rows = _eigenfunction_rows(top, points, params)
        for part, row in zip(parts, rows):
            multiply(part, row, out=term)
            add(acc, term, out=acc)
        out = series[block]
        out.real, out.imag = acc
    return series[0] if single else series


def psi_series(
    label: CoherentLabel,
    x: float,
    t: float,
    params: OscillatorParams,
    n_max: int,
) -> WaveSample:
    value = psi_series_grid(label, x, t, params, n_max)[0]
    return WaveSample(float(x), complex(value))


def psi_closed_grid(
    label: CoherentLabel, x, t, params: OscillatorParams, form: str
) -> np.ndarray:
    """Closed-form coherent packet on arrays of positions.

    form="complex_center": Gaussian whose squared shift has the complex
    center chi(t) sqrt(2 hbar / M omega), taken literally.
    form="schrodinger": the same packet written through the mean coordinate
    and momentum, a plane-wave factor on a real-centered Gaussian.

    Takes the (t, x) pairings of `psi_series_grid`. Each slice's scalar
    factors are Python numbers, from `averages_closedform_batch`, and only
    the Gaussian and plane-wave arrays are broadcast, so a slice is its own
    single-time call to the bit (numpy complex factors round otherwise).

    All complex exponentials are evaluated directly from their real and
    imaginary parts; no multivalued logarithm is involved, so sweeps over t
    never hit a branch cut.
    """
    if form not in CLOSED_FORMS:
        raise ValueError(f"form must be one of {CLOSED_FORMS}, got {form!r}")
    ts, xs, single = _slices(t, x)
    hbar, mass, omega = params.hbar, params.mass, params.omega
    prefactor = (mass * omega / (math.pi * hbar)) ** 0.25
    closed = averages_closedform_batch(label, ts, params)
    factor = np.empty((ts.size, 1), dtype=complex)  # one scalar per slice
    if form == "complex_center":
        scale = math.sqrt(2.0 * hbar / (mass * omega))
        amp = prefactor * math.exp(-0.5 * label.nbar)
        shift = np.empty_like(factor)
        rows = zip(ts.tolist(), closed["a_avg_re"].tolist(), closed["a_avg_im"].tolist())
        for s, (t_s, re, im) in enumerate(rows):
            chit = complex(re, im)
            shift[s] = chit * scale
            factor[s] = amp * np.exp(-0.5j * omega * t_s + 0.5 * chit * chit)
        values = factor * np.exp(-(mass * omega / (2.0 * hbar)) * (xs - shift) ** 2)
    else:
        wave = np.empty_like(factor)
        xb, pb = closed["mean_x"], closed["mean_p"]
        for s, (t_s, x_s, p_s) in enumerate(zip(ts.tolist(), xb.tolist(), pb.tolist())):
            phase = np.exp(-1j * (0.5 * omega * t_s + 0.5 * p_s * x_s / hbar))
            factor[s], wave[s] = prefactor * phase, 1j * (p_s / hbar)
        plane = np.exp(wave * xs)
        gauss = np.exp(-(mass * omega / (2.0 * hbar)) * (xs - xb[:, np.newaxis]) ** 2)
        values = factor * plane * gauss
    return values[0] if single else values


def psi_closed(
    label: CoherentLabel,
    x: float,
    t: float,
    params: OscillatorParams,
    form: str,
) -> WaveSample:
    value = psi_closed_grid(label, x, t, params, form)[0]
    return WaveSample(float(x), complex(value))


def _grid_amplitudes(amplitudes, grid: SpatialGrid) -> np.ndarray:
    """Complex amplitudes aligned with the grid points, checked finite."""
    if len(amplitudes) != len(grid):
        raise DimensionMismatchError(
            f"{len(amplitudes)} amplitudes on a grid of {len(grid)} points"
        )
    values = np.asarray(amplitudes, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("amplitudes must be finite")
    return values


def quadrature_norm(amplitudes, grid: SpatialGrid) -> float:
    """Sum of weights * |amplitude|^2, approximating the square integral.

    `amplitudes` is a complex array aligned with `grid.points`, in order.
    """
    values = _grid_amplitudes(amplitudes, grid)
    return float(np.sum(grid.weights * np.abs(values) ** 2))


def packet_moments(amplitudes, grid: SpatialGrid) -> tuple[float, float, float]:
    """(squared norm, mean position, position variance) of |amplitude|^2.

    `amplitudes` is a complex array aligned with `grid.points`. Mean and
    variance are normalized by the squared norm, so a slightly leaky
    truncation does not skew them.
    """
    density = grid.weights * np.abs(_grid_amplitudes(amplitudes, grid)) ** 2
    norm2 = float(np.sum(density))
    if norm2 <= 0.0:
        raise ValueError("cannot take moments of a zero-norm sample set")
    mean = float(np.sum(grid.points * density) / norm2)
    var = float(np.sum((grid.points - mean) ** 2 * density) / norm2)
    return norm2, mean, var


def trapezoid_grid(lo: float, hi: float, npoints: int) -> SpatialGrid:
    """Uniform grid with trapezoid weights on [lo, hi]."""
    npoints = int(npoints)
    if npoints < 2:
        raise ValueError(f"need at least 2 points, got {npoints}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    points = np.linspace(lo, hi, npoints)
    step = points[1] - points[0]
    weights = np.full(npoints, step)
    weights[0] = weights[-1] = 0.5 * step
    return SpatialGrid(points, weights)


def default_packet_grid(
    params: OscillatorParams,
    center: float = 0.0,
    halfwidth: float = DEFAULT_GRID_HALFWIDTH,
    npoints: int = DEFAULT_GRID_POINTS,
) -> SpatialGrid:
    """Trapezoid grid spanning center +/- halfwidth oscillator lengths."""
    if halfwidth <= 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    span = halfwidth * params.length_scale
    return trapezoid_grid(center - span, center + span, npoints)


def packet_sweep(
    label: CoherentLabel, times, params: OscillatorParams, n_max: int,
    halfwidth: float = DEFAULT_GRID_HALFWIDTH, npoints: int = DEFAULT_GRID_POINTS,
):
    """(points, series, closed, norm2, variance) of the packet at the 1-d times.

    Slice s lies on `default_packet_grid` around the mean at times[s]; the
    (S, N) series and complex-centre closed form each come from one stacked
    call, and `packet_moments` takes each series slice's squared norm and
    variance in time order (raising on a zero-norm slice).
    """
    centers = averages_closedform_batch(label, times, params)["mean_x"]
    grids = [
        default_packet_grid(params, center=c, halfwidth=halfwidth, npoints=npoints)
        for c in centers.tolist()
    ]
    points = np.array([grid.points for grid in grids])
    series = psi_series_grid(label, points, times, params, n_max)
    closed = psi_closed_grid(label, points, times, params, "complex_center")
    moments = [packet_moments(row, grid) for row, grid in zip(series, grids)]
    norm2, _, variance = np.array(moments).T
    return points, series, closed, norm2, variance


def gauss_hermite_grid(
    order: int, params: OscillatorParams, center: float = 0.0
) -> SpatialGrid:
    """Gauss-Hermite nodes scaled to physical length, Gaussian weight unfolded.

    The stored weights include exp(+xi^2), so `quadrature_norm` integrates
    plain |value|^2. Orders beyond ~350 overflow the unfolding and fail the
    grid finiteness validation before any physics sees them.
    """
    order = int(order)
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    xi, w = np.polynomial.hermite.hermgauss(order)
    scale = params.length_scale
    return SpatialGrid(center + scale * xi, scale * w * np.exp(xi * xi))

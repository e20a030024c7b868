"""The tests' oracle: the dense and textbook forms that no command runs.

These are reference implementations the suite checks the package against,
not part of it:

- the dense number-basis matrices (`Operator`, `make_ladder`, `make_xp`,
  `make_hamiltonian`, `identity`, `expectation`), number and random states;
- the phase transformation as a rotated ladder matrix, a rotated state and
  a rotated classical pair (`PhaseAngle`, `phase_transform_ladder`,
  `transform_state_phase`, `rotate_xp`);
- the raw Hermite recurrence, single eigenfunctions and Gauss-Hermite
  nodes (`hermite`, `eigenfunction`, `gauss_hermite_grid`);
- the packet written through the mean coordinate and momentum
  (`psi_schrodinger_grid`), and one row of averages' columns in the
  RECORD_COLUMNS order (`record_row`);
- one validated trapezoid grid per packet slice and its moments
  (`SpatialGrid`, `trapezoid_grid`, `default_packet_grid`, `slice_moments`),
  the per-slice reference of the (S, N) arrays of `packet_sweep`;
- a uniform time grid and the closed-form averages on it (`closedform_trajectory`);
- the auto truncation rule by a search of its own, over a bracket doubled
  from [0, 1] (`auto_n_max`);
- the float-cell kernel's tables built one (shape, digits) cell at a time
  (`kernel_tables`), the reference of `cli._kernel_tables`.

The package's banded kernels, recurrence rows and closed forms are pinned
to these in the tests, bit for bit where the arithmetic is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oscilab.cli import (
    _CELL_SLOTS,
    _DIGIT0,
    _EXP,
    _MAX_SCALE,
    _OTHER,
    _SCIENTIFIC,
    _SCIENTIFIC_3,
)
from oscilab.coherent import (
    TRUNCATION_MARGIN,
    CoherentLabel,
    truncation_tail,
)
from oscilab.dynamics import sample_times
from oscilab.fock import OscillatorParams, StateVector, check_n_max
from oscilab.observables import RECORD_COLUMNS, averages_closedform_batch
from oscilab.wavefunction import (
    DEFAULT_GRID_HALFWIDTH,
    DEFAULT_GRID_POINTS,
    _slices,
    eigenfunction_table,
)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix acting on the truncated number basis."""

    matrix: np.ndarray
    n_max: int | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"matrix must be square and nonempty, got shape {m.shape}")
        n_max = m.shape[0] - 1 if self.n_max is None else int(self.n_max)
        if m.shape[0] != n_max + 1:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not fit n_max={n_max}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_max", n_max)

    @property
    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.n_max)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise ValueError(
                f"cannot multiply operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix @ other.matrix, self.n_max)

    def __add__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise ValueError(
                f"cannot add operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix + other.matrix, self.n_max)

    def __sub__(self, other: "Operator") -> "Operator":
        if self.n_max != other.n_max:
            raise ValueError(
                f"cannot subtract operators at n_max {self.n_max} and {other.n_max}"
            )
        return Operator(self.matrix - other.matrix, self.n_max)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.matrix * scalar, self.n_max)

    __rmul__ = __mul__


def make_ladder(n_max: int) -> tuple[Operator, Operator]:
    """Annihilation and creation matrices at truncation n_max.

    a has a[n-1, n] = sqrt(n) on the superdiagonal and zeros elsewhere;
    the creation operator is its conjugate transpose. The truncated pair
    satisfies [a, a+] = 1 everywhere except the corner entry (n_max, n_max),
    which picks up -n_max.
    """
    n_max = check_n_max(n_max)
    a = np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)
    return Operator(a, n_max), Operator(a.conj().T, n_max)


def make_xp(params: OscillatorParams, n_max: int) -> tuple[Operator, Operator]:
    """Position and momentum matrices.

    x = sqrt(hbar / 2 M omega) (a+ + a),  p = i sqrt(M hbar omega / 2) (a+ - a);
    both come out exactly Hermitian.
    """
    n_max = check_n_max(n_max)
    a, ad = make_ladder(n_max)
    x_scale = math.sqrt(params.hbar / (2.0 * params.mass * params.omega))
    p_scale = math.sqrt(params.mass * params.hbar * params.omega / 2.0)
    x = Operator(x_scale * (ad.matrix + a.matrix), n_max)
    p = Operator(1j * p_scale * (ad.matrix - a.matrix), n_max)
    return x, p


def make_hamiltonian(params: OscillatorParams, n_max: int) -> Operator:
    """Diagonal Hamiltonian with level energies hbar omega (n + 1/2)."""
    n_max = check_n_max(n_max)
    levels = params.hbar * params.omega * (np.arange(n_max + 1) + 0.5)
    return Operator(np.diag(levels).astype(complex), n_max)


def fock_state(n: int, n_max: int) -> StateVector:
    """Number eigenstate |n> as a basis vector at truncation n_max."""
    n_max = check_n_max(n_max)
    n = int(n)
    if n < 0 or n > n_max:
        raise ValueError(f"level n={n} out of range 0..{n_max}")
    c = np.zeros(n_max + 1, dtype=complex)
    c[n] = 1.0
    return StateVector(c)


def identity(n_max: int) -> Operator:
    n_max = check_n_max(n_max)
    return Operator(np.eye(n_max + 1, dtype=complex), n_max)


def expectation(op: Operator, state: StateVector) -> complex:
    """<state| op |state>.

    The state is assumed normalized; no norm check happens here. The result
    is real up to rounding when op is Hermitian but is always returned as a
    complex number.
    """
    if op.matrix.shape[0] != state.coeffs.size:
        raise ValueError(
            f"operator dimension {op.matrix.shape[0]} does not match "
            f"state length {state.coeffs.size}"
        )
    return complex(np.vdot(state.coeffs, op.matrix @ state.coeffs))


def random_state(n_max: int, rng=None) -> StateVector:
    """Haar-like random normalized state: i.i.d. complex Gaussian amplitudes."""
    n_max = check_n_max(n_max)
    rng = np.random.default_rng(rng)
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return StateVector(c / np.linalg.norm(c))


@dataclass(frozen=True)
class PhaseAngle:
    """Rotation angle of the phase transformation, in radians."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"angle must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def reduced(self) -> float:
        """Angle folded into [0, 2 pi), for reporting only."""
        return self.alpha % (2.0 * math.pi)

def phase_transform_ladder(a: Operator, alpha: PhaseAngle) -> Operator:
    """Rotated annihilation operator a * e^(i alpha).

    The creation-operator rule (conjugate phase) follows from `.dagger`.
    """
    return Operator(a.matrix * complex(np.exp(1j * alpha.alpha)), a.n_max)


def rotate_xp(
    mean_x: float, mean_p: float, alpha: PhaseAngle, params: OscillatorParams
) -> tuple[float, float]:
    """Coordinate-momentum rotation induced by the phase transformation.

    x' = -(p / M omega) sin(alpha) + x cos(alpha)
    p' = p cos(alpha) + M omega x sin(alpha)
    The classical energy form M omega^2 x^2 / 2 + p^2 / 2M is invariant.
    """
    sin_a = math.sin(alpha.alpha)
    cos_a = math.cos(alpha.alpha)
    m_omega = params.mass * params.omega
    x_new = -(mean_p / m_omega) * sin_a + mean_x * cos_a
    p_new = mean_p * cos_a + m_omega * mean_x * sin_a
    return x_new, p_new


def transform_state_phase(state: StateVector, alpha: PhaseAngle) -> StateVector:
    """State-space image of the phase transformation: coeffs[n] * e^(-i n alpha).

    Norm and level populations are untouched; a coherent state maps to the
    coherent state of the rotated label chi e^(-i alpha).
    """
    n = np.arange(state.coeffs.size)
    phases = np.exp(-1j * alpha.alpha * n)
    return StateVector(state.coeffs * phases)


def record_row(columns: dict[str, np.ndarray], k: int = 0) -> tuple[float, ...]:
    """Row k of averages' columns in the RECORD_COLUMNS order."""
    return tuple(columns[name][k] for name in RECORD_COLUMNS)


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


def eigenfunction(n: int, x, params: OscillatorParams):
    """Oscillator eigenfunction phi_n(x), normalized to unit square integral."""
    xs, scalar = _as_axis(x)
    values = eigenfunction_table(int(n), xs, params)[-1]
    return float(values[0]) if scalar else values


def gauss_hermite_grid(
    order: int, params: OscillatorParams, center: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights): Gauss-Hermite nodes scaled to physical length, the
    Gaussian weight unfolded.

    The weights include exp(+xi^2), so `slice_moments` integrates plain
    |value|^2. Orders beyond ~350 overflow the unfolding and fail the
    grid finiteness validation before any physics sees them.
    """
    order = int(order)
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    xi, w = np.polynomial.hermite.hermgauss(order)
    scale = params.length_scale
    grid = SpatialGrid(center + scale * xi, scale * w * np.exp(xi * xi))
    return grid.points, grid.weights


def psi_schrodinger_grid(
    label: CoherentLabel, x, t, params: OscillatorParams
) -> np.ndarray:
    """The coherent packet written through the mean coordinate and momentum,
    a plane-wave factor on a real-centered Gaussian: algebraically the
    complex-centre closed form of `psi_closed_grid`, on its stacks of
    slices. Each slice's scalar factors are Python numbers, from
    `averages_closedform_batch`, so a slice is its own 1-slice call to the
    bit."""
    ts, xs = _slices(t, x)
    hbar, mass, omega = params.hbar, params.mass, params.omega
    prefactor = (mass * omega / (math.pi * hbar)) ** 0.25
    closed = averages_closedform_batch(label, ts, params)
    factor = np.empty((ts.size, 1), dtype=complex)  # one scalar per slice
    wave = np.empty_like(factor)
    xb, pb = closed["mean_x"], closed["mean_p"]
    for s, (t_s, x_s, p_s) in enumerate(zip(ts.tolist(), xb.tolist(), pb.tolist())):
        phase = np.exp(-1j * (0.5 * omega * t_s + 0.5 * p_s * x_s / hbar))
        factor[s], wave[s] = prefactor * phase, 1j * (p_s / hbar)
    plane = np.exp(wave * xs)
    gauss = np.exp(-(mass * omega / (2.0 * hbar)) * (xs - xb[:, np.newaxis]) ** 2)
    return factor * plane * gauss


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
            raise ValueError(
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


def slice_moments(amplitudes, grid: SpatialGrid) -> tuple[float, float, float]:
    """(squared norm, mean position, position variance) of |amplitude|^2 on
    one grid: the per-slice reference of `packet_sweep`'s norm2 and
    variance, which take the same sums over a whole (S, N) stack at once.

    `amplitudes` is a complex array aligned with `grid.points`, in order;
    the squared norm sums weights * |amplitude|^2, the quadrature of the
    square integral. Mean and variance are normalized by the squared norm,
    so a slightly leaky truncation does not skew them.
    """
    if len(amplitudes) != len(grid):
        raise ValueError(
            f"{len(amplitudes)} amplitudes on a grid of {len(grid)} points"
        )
    values = np.asarray(amplitudes, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise ValueError("amplitudes must be finite")
    density = grid.weights * np.abs(values) ** 2
    norm2 = float(np.sum(density))
    if norm2 <= 0.0:
        raise ValueError("cannot take moments of a zero-norm sample set")
    mean = float(np.sum(grid.points * density) / norm2)
    var = float(np.sum((grid.points - mean) ** 2 * density) / norm2)
    return norm2, mean, var


def closedform_trajectory(
    label: CoherentLabel, params: OscillatorParams, t_start: float, t_end: float, dt: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The uniform time grid and the label's closed-form averages on it, one
    array per RECORD_COLUMNS name."""
    times = sample_times(t_start, t_end, dt)
    return times, averages_closedform_batch(label, times, params)


def auto_n_max(label: CoherentLabel, tol: float) -> int:
    """TRUNCATION_MARGIN above the smallest n_max with truncation tail below
    tol: the tail being nonincreasing in n_max, a bracket doubled from [0, 1]
    until its top is below tol, then bisected. No cap: it ends wherever the
    tail falls to 0.0, as it does within a few doublings past |chi|^2."""
    if truncation_tail(label, 0) < tol:
        return TRUNCATION_MARGIN
    lo, hi = 0, 1
    while truncation_tail(label, hi) >= tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_tail(label, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi + TRUNCATION_MARGIN


def kernel_tables() -> tuple[np.ndarray, ...]:
    """The tables of `cli._kernel_tables`: each keep mask set by its own
    (shape, significant digits) iteration, and each cell word spelt out."""
    exact = [10**q for q in range(_MAX_SCALE + 1)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    split = 134217729.0 * hi  # 2^27 + 1
    hi_hi = split - (split - hi)
    four = np.arange(10000)[:, np.newaxis] // np.array([1000, 100, 10, 1]) % 10
    zeros = np.argmax(four[:, ::-1] != 0, axis=1)
    zeros[0] = 4

    masks = np.zeros((2, _OTHER + 1, 18, _CELL_SLOTS), bool)
    masks[1, :, :, 0] = True  # the minus sign
    slots = np.arange(17)
    for shape in range(_OTHER):
        for sig in range(1, 18):
            mask = masks[:, shape, sig]
            if shape < _SCIENTIFIC:
                exp10 = shape - 4
                if exp10 < 0:
                    mask[:, 1:2 - exp10] = True  # "0." and -exp10 - 1 zeros
                digits, point = max(sig, exp10 + 1), exp10
            else:
                mask[:, _EXP:_EXP + 2] = True  # "e-"
                mask[:, _EXP + (2 if shape == _SCIENTIFIC_3 else 3):] = True
                digits, point = sig, 0
            mask[:, _DIGIT0:_EXP:2] = slots < digits
            if 0 <= point < sig - 1:
                mask[:, _DIGIT0 + 1 + 2 * point] = True
    masks[:, _OTHER, 1, 0] = True  # fallback: its marker byte
    # 0xFF per kept byte, as the words the kernel ANDs a cell's slots with
    keep = masks.reshape(-1, _CELL_SLOTS).astype(np.uint8) * np.uint8(0xFF)

    groups = ["".join(digit + "." for digit in f"{g:04d}") for g in range(10**4)]
    words = [g.encode() for g in groups] + [g[:-1].encode() + b"e" for g in groups]
    words += [b"-0.000%d." % d for d in range(10)] + [b"\x010.000.."]  # the marker
    exponents = [b"-%03d" % abs(q - 16) for q in range(_MAX_SCALE + 1)]
    return (hi, lo, hi_hi, hi - hi_hi, zeros.astype(np.uint8),
            np.frombuffer(b"".join(words), np.uint64),
            np.frombuffer(b"".join(exponents), np.uint32),
            keep[:, :_EXP + 1].copy().view(np.uint64),
            keep[:, _EXP + 1:].copy().view(np.uint32).ravel())

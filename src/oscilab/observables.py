"""Quadratic observables: means, second moments, uncertainty product, energy.

Two independent routes compute the same record. The brute-force route
evaluates expectation values in the truncated number basis and works for any
state. `averages_closedform_batch` evaluates the exact coherent-state
expressions of the evolved label chi(t) at an array of times. chi(t) and
chi(t)^2 are taken in real arithmetic, (ar br - ai bi, ar bi + ai br), as
Python's complex `*` takes them, so a row is the scalar complex formula to
the bit (numpy's complex `*` rounds otherwise). Tests pin the two routes
against each other.

Every brute-force average comes from one kernel, `_moments`, which takes a
block of coefficient rows. Each operator lies within two places of the
diagonal, so each expectation is a shifted elementwise product summed with
numpy along the level axis: no dense matrix and no BLAS call, so the digits
do not depend on the BLAS build or its thread count. `_first_moments` holds
its checks (finite coefficients, the norm, the top-two level mass) and the
one <a> sum, from which <x> and <p> follow; `_moments` adds the second
moments on top. `_columns` runs one of the two over blocks of rows, with
one TruncationWarning: `averages_bruteforce` is its 1-row call, kept for
perfbench's traced metrics, and `averages_bruteforce_batch` (one state
propagated to many times), `mean_motion_batch` (the same, <x> and <p>
only) and `averages_bruteforce_fock` (many number states) feed it blocks
of at most BATCH_CELLS rows x levels, each row the 1-row call to the bit.
`phase_rotation_drifts` reads a block and its phase-rotated copy from
`_moments`. Tests pin the kernel to the dense matrices of `tests/oracle.py`.

The averages come in one format: a dict of float arrays, one entry per
row, named by RECORD_COLUMNS (complex averages split into _re and _im). The
rows carry no time column: a caller that asks at an array of times holds it.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import numpy as np

from .coherent import CoherentLabel, _evolved_chi
from .fock import OscillatorParams, StateVector, TruncationWarning, level_phases

__all__ = [
    "RECORD_COLUMNS",
    "averages_bruteforce",
    "averages_bruteforce_batch",
    "averages_bruteforce_fock",
    "mean_motion_batch",
    "averages_closedform_batch",
    "phase_rotation_drifts",
    "uncertainty_fock",
]

# Second moments couple n to n +/- 2, so results are only trusted when the
# occupied support keeps that much headroom below the truncation edge.
SUPPORT_MASS_TOL = 1e-10
# Rounding may push a variance slightly negative; anything worse is a bug.
VARIANCE_CLIP_TOL = 1e-12

# A row whose norm is off 1 by more than this is refused.
DEFAULT_NORM_TOL = 1e-10

# Rows x levels per block of the batched kernels: one complex block is
# 256 KiB whatever the truncation, 963 rows at n_max 16 and 29 at n_max 551,
# so a block and its temporaries stay in a 2 MiB L2 cache. On such a core,
# 2^16 cells ran no faster and raised the peak RSS of `verify` by 3.4 MiB.
BATCH_CELLS = 2**14


# <a+> = conj(<a>) and <a+ a+> = conj(<a a>) are implied, not stored.
RECORD_COLUMNS = (
    "mean_x",
    "mean_p",
    "mean_x2",
    "mean_p2",
    "n_avg",
    "a_avg_re",
    "a_avg_im",
    "a2_avg_re",
    "a2_avg_im",
    "uncertainty",
    "energy",
)


def _variance(second_moment, mean):
    """second_moment - mean^2 elementwise, rounding-level negatives set to 0."""
    var = np.asarray(second_moment - mean * mean)
    worst = float(np.min(var))
    if worst < -VARIANCE_CLIP_TOL:
        raise ValueError(
            f"variance {worst!r} is more negative than rounding can explain"
        )
    return np.where(var < 0.0, 0.0, var)


def _first_moments(c: np.ndarray, params: OscillatorParams):
    """The checks of the kernel and the first moments of each row of a block.

    c is a nonempty (rows, n_max + 1) complex block. Raises ValueError on
    nonfinite coefficients, and one naming the worst norm when a row's norm
    is off 1 by more than DEFAULT_NORM_TOL. Returns |c|^2,
    the fields a_avg_re, a_avg_im, mean_x and mean_p, from
        <a> = sum_n sqrt(n) conj(c[n-1]) c[n],
        <x> = 2 sqrt(hbar/2M omega) Re<a>,  <p> = 2 sqrt(M hbar omega/2) Im<a>,
    and the largest probability on the top two levels.
    """
    prob = c.real * c.real + c.imag * c.imag
    norms = np.sqrt(prob.sum(axis=1))
    # a nonfinite coefficient makes its row's norm nonfinite, quietly, so
    # only a nonfinite norm calls for the full check
    if not np.isfinite(norms).all() and not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > DEFAULT_NORM_TOL:
        raise ValueError(
            f"state norm {float(norms[worst])!r} deviates from 1 by more than "
            f"tolerance {DEFAULT_NORM_TOL!r}"
        )
    top_mass = float(np.max(prob[:, -2:].sum(axis=1)))
    hbar, mass, omega = params.hbar, params.mass, params.omega
    # conj(c[n-1]) c[n] out of place: numpy's in-place complex product of a
    # single element rounds each part once more than its other loops (no
    # fused multiply-add), so a 1-row block at n_max 1 would differ from the
    # same row in a longer block. Scaling by the real sqrt(n) rounds alike
    # either way, so it stays in place.
    terms = c[:, :-1].conj() * c[:, 1:]
    terms *= np.sqrt(np.arange(1, c.shape[1], dtype=float))
    a_avg = terms.sum(axis=1)
    fields = {
        "a_avg_re": a_avg.real,
        "a_avg_im": a_avg.imag,
        "mean_x": 2.0 * math.sqrt(hbar / (2.0 * mass * omega)) * a_avg.real,
        "mean_p": 2.0 * math.sqrt(mass * hbar * omega / 2.0) * a_avg.imag,
    }
    return prob, fields, top_mass


def _moments(c: np.ndarray, params: OscillatorParams):
    """Every RECORD_COLUMNS field for each row of a coefficient block.

    On top of `_first_moments` (its checks, <a>, <x> and <p>), with the
    operators again within two places of the diagonal:
        <a a> = sum_n sqrt(n (n-1)) conj(c[n-2]) c[n],
        <a+ a> = sum_n n |c[n]|^2,  <H> = sum_n hbar omega (n + 1/2) |c[n]|^2,
        <x^2> = (hbar/2M omega) (sum_n d[n] |c[n]|^2 + 2 Re<a a>),
        <p^2> = (M hbar omega/2) (sum_n d[n] |c[n]|^2 - 2 Re<a a>),
    with d[n] = 2n + 1 except d[n_max] = n_max: the truncated product
    x.matrix @ x.matrix has no a a+ term on the top level. numpy sums each
    row in one fixed order whatever the number of rows, and nothing here
    calls BLAS, so row k of a block equals the one-row call to the bit, at
    any BLAS thread count.

    Returns the fields and the largest probability on the top two levels.
    """
    prob, fields, top_mass = _first_moments(c, params)
    hbar, mass, omega = params.hbar, params.mass, params.omega
    n_max = c.shape[1] - 1
    n = np.arange(n_max + 1, dtype=float)
    a2_avg = (np.sqrt(n[2:] * n[1:-1]) * (c[:, :-2].conj() * c[:, 2:])).sum(axis=1)
    diag = 2.0 * n + 1.0
    diag[-1] = n_max
    spread = (diag * prob).sum(axis=1)
    mean_x2 = (hbar / (2.0 * mass * omega)) * (spread + 2.0 * a2_avg.real)
    mean_p2 = (mass * hbar * omega / 2.0) * (spread - 2.0 * a2_avg.real)
    var_x = _variance(mean_x2, fields["mean_x"])
    var_p = _variance(mean_p2, fields["mean_p"])
    # var_x var_p leaves the float range long before its root hbar/2 does: where
    # it is not finite, or subnormal with both variances positive, take each root
    with np.errstate(over="ignore"):
        product = var_x * var_p
    uncertainty, tiny = np.sqrt(product), sys.float_info.min
    if not (product.min() >= tiny and product.max() < math.inf):
        off = ~np.isfinite(product) | ((product < tiny) & (var_x > 0) & (var_p > 0))
        uncertainty[off] = np.sqrt(var_x[off]) * np.sqrt(var_p[off])
    fields.update(
        mean_x2=mean_x2,
        mean_p2=mean_p2,
        n_avg=(n * prob).sum(axis=1),
        a2_avg_re=a2_avg.real,
        a2_avg_im=a2_avg.imag,
        uncertainty=uncertainty,
        energy=(hbar * omega * (n + 0.5) * prob).sum(axis=1),
    )
    return fields, top_mass


def _columns(rows: int, blocks, kernel, names=RECORD_COLUMNS):
    """The `names` columns of `kernel` over consecutive blocks of `rows` rows
    in all, and one TruncationWarning for the largest top-two level mass of
    any row, attributed to the public function's caller.

    kernel maps a block to (fields, top-two level mass), as `_moments` does.
    """
    columns = {name: np.empty(rows) for name in names}
    top_mass = 0.0
    start = 0
    for c in blocks:
        fields, block_top = kernel(c)
        for name in names:
            columns[name][start:start + len(c)] = fields[name]
        start += len(c)
        top_mass = max(top_mass, block_top)
    if top_mass > SUPPORT_MASS_TOL:
        warnings.warn(
            f"top two levels carry probability up to {top_mass:.3e}; second "
            f"moments near the truncation edge are unreliable",
            TruncationWarning,
            stacklevel=3,
        )
    return columns


def averages_bruteforce(
    state: StateVector, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """All averages of one state by expectation in the truncated basis, as
    one-row columns in the shape of `averages_bruteforce_batch`.

    The one-row call of `_columns`, so every row of
    `averages_bruteforce_batch` and `averages_bruteforce_fock` equals it to
    the bit. Raises ValueError (naming the measured norm) when the state is
    not normalized within DEFAULT_NORM_TOL. Warns with
    TruncationWarning when the top two levels carry enough weight to bias
    the second moments.
    """
    kernel = functools.partial(_moments, params=params)
    return _columns(1, [state.coeffs[np.newaxis, :]], kernel)


def _propagated_blocks(base: StateVector, times, params: OscillatorParams):
    """The 1-d float times, and `base` propagated by each of them in blocks of
    at most BATCH_CELLS rows x levels."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    rows = max(1, BATCH_CELLS // (base.n_max + 1))
    blocks = (
        base.coeffs * level_phases(params, times[start:start + rows], base.n_max)
        for start in range(0, times.size, rows)
    )
    return times, blocks


def averages_bruteforce_batch(
    base: StateVector, times, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """`averages_bruteforce` of `base` propagated by each of `times`, as columns.

    Returns one float array per RECORD_COLUMNS name. Row k equals
    averages_bruteforce(propagate_fock(base, times[k], params), params) to
    the bit: the propagated coefficients are the same, and the kernel sums
    each row alike in a block of any size.

    Every sample gets the checks of the per-state path: finite coefficients,
    DEFAULT_NORM_TOL (the ValueError names the worst norm of the first
    block that fails) and the variance clip. A single TruncationWarning
    reports the largest top-two level mass. Times go through in blocks of at
    most BATCH_CELLS rows x levels, so memory does not grow with their number.
    """
    times, blocks = _propagated_blocks(base, times, params)
    kernel = functools.partial(_moments, params=params)
    return _columns(times.size, blocks, kernel)


def mean_motion_batch(
    base: StateVector, times, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """The mean_x and mean_p columns of `base` propagated by each of `times`.

    Row k equals row k of the mean_x and mean_p columns of
    `averages_bruteforce_batch` to the bit, with the same blocks, the same
    refusals and the same single TruncationWarning: only the second
    moments, which these two columns never read, are skipped.
    """
    times, blocks = _propagated_blocks(base, times, params)
    return _columns(
        times.size, blocks,
        lambda c: _first_moments(c, params)[1:],  # (fields, top mass)
        ("mean_x", "mean_p"),
    )


def averages_bruteforce_fock(
    levels, n_max: int, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """`averages_bruteforce` of each number state |n>, n in `levels`, as columns.

    Row k equals `averages_bruteforce` of the basis vector |levels[k]> at
    truncation n_max to the bit, with the checks and the single
    TruncationWarning of `averages_bruteforce_batch`. The basis rows go
    through in blocks of at most BATCH_CELLS rows x levels, so memory stays
    linear in n_max.
    """
    levels = np.asarray(levels, dtype=int)
    if levels.ndim != 1:
        raise ValueError(f"levels must be one-dimensional, got shape {levels.shape}")
    n_max = int(n_max)
    if levels.size and not (0 <= levels.min() and levels.max() <= n_max):
        raise ValueError(
            f"levels must lie in 0..{n_max}, got {levels.min()}..{levels.max()}"
        )

    def basis_rows(chunk):
        c = np.zeros((chunk.size, n_max + 1), dtype=complex)
        c[np.arange(chunk.size), chunk] = 1.0
        return c

    rows = max(1, BATCH_CELLS // (n_max + 1))
    blocks = (
        basis_rows(levels[start:start + rows])
        for start in range(0, levels.size, rows)
    )
    kernel = functools.partial(_moments, params=params)
    return _columns(levels.size, blocks, kernel)


def phase_rotation_drifts(
    states: np.ndarray, alphas, params: OscillatorParams, xs=None, ps=None
) -> dict[str, np.ndarray]:
    """What the phase transformation c_n -> c_n e^(-i n alpha) moves, per row.

    states is a nonempty (rows, n_max + 1) block and alphas holds one angle
    per row. Row k is rotated by alphas[k] elementwise, and one `_moments`
    call on each block gives every row's <H>, <a+ a> and <a> before and
    after. The classical pair (xs[k], ps[k]) turns by the same angle, to
    (x cos - (p / M omega) sin, p cos + M omega x sin); xs and ps default
    to each row's own <x> and <p>. Returns the columns
        h_drift = |<H>' - <H>|,  n_drift = |<a+ a>' - <a+ a>|,
        a_rotation_error = |<a>' - e^(-i alpha) <a>|,
        a_modulus_drift = ||<a>'| - |<a>||,
        xp_energy_drift = |E(x', p') - E(x, p)|,  E = M omega^2 x^2/2 + p^2/2M.
    No second moment is read, so states that fill the top levels draw no
    TruncationWarning. Refuses a state off norm 1 like `averages_bruteforce`.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != states.shape[:1]:
        raise ValueError(
            f"need one angle per row: {states.shape[0]} rows, angles of shape "
            f"{alphas.shape}"
        )
    n = np.arange(states.shape[1])
    rotated = states * np.exp(-1j * alphas[:, np.newaxis] * n)
    before, _ = _moments(states, params)
    after, _ = _moments(rotated, params)
    a_before = before["a_avg_re"] + 1j * before["a_avg_im"]
    a_after = after["a_avg_re"] + 1j * after["a_avg_im"]
    xs = before["mean_x"] if xs is None else np.asarray(xs, dtype=float)
    ps = before["mean_p"] if ps is None else np.asarray(ps, dtype=float)
    sin_a, cos_a = np.sin(alphas), np.cos(alphas)
    m_omega = params.mass * params.omega
    m_omega2 = params.mass * params.omega**2
    x_new = -(ps / m_omega) * sin_a + xs * cos_a
    p_new = ps * cos_a + m_omega * xs * sin_a

    def energy(x, p):
        return 0.5 * m_omega2 * x**2 + p**2 / (2.0 * params.mass)

    return {
        "h_drift": np.abs(after["energy"] - before["energy"]),
        "n_drift": np.abs(after["n_avg"] - before["n_avg"]),
        "a_rotation_error": np.abs(a_after - np.exp(-1j * alphas) * a_before),
        "a_modulus_drift": np.abs(np.abs(a_after) - np.abs(a_before)),
        "xp_energy_drift": np.abs(energy(x_new, p_new) - energy(xs, ps)),
    }


def averages_closedform_batch(
    label: CoherentLabel, times, params: OscillatorParams
) -> dict[str, np.ndarray]:
    """All coherent-state averages as explicit functions of the evolved label.

    Returns one float array per RECORD_COLUMNS name, one row per entry of
    the 1-d `times`, like `averages_bruteforce_batch`. With chi(t) = chi
    exp(-i omega t) from `coherent._evolved_chi`:
        <a> = chi(t),  <a a> = chi(t)^2,  <a+ a> = |chi|^2,
        mean x  = sqrt(hbar/2M omega) (chi*(t) + chi(t)),
        mean p  = i sqrt(M hbar omega/2) (chi*(t) - chi(t)),
        mean x^2 = (hbar/2M omega) (chi*^2 + chi^2 + 2|chi|^2 + 1),
        mean p^2 = -(M hbar omega/2) (chi*^2 + chi^2 - 2|chi|^2 - 1),
    the uncertainty product is hbar/2 identically and the energy
    hbar omega (|chi|^2 + 1/2) never depends on t.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    hbar, mass, omega = params.hbar, params.mass, params.omega
    re, im = _evolved_chi(label, times, params)
    a2_re, a2_im = re * re - im * im, re * im + im * re
    sq = 2.0 * a2_re  # chi*(t)^2 + chi(t)^2
    lam = label.nbar
    return {
        "mean_x": 2.0 * math.sqrt(hbar / (2.0 * mass * omega)) * re,
        "mean_p": 2.0 * math.sqrt(mass * hbar * omega / 2.0) * im,
        "mean_x2": (hbar / (2.0 * mass * omega)) * (sq + 2.0 * lam + 1.0),
        "mean_p2": (mass * hbar * omega / 2.0) * (2.0 * lam + 1.0 - sq),
        "n_avg": np.full(times.size, lam),
        "a_avg_re": re,
        "a_avg_im": im,
        "a2_avg_re": a2_re,
        "a2_avg_im": a2_im,
        "uncertainty": np.full(times.size, 0.5 * hbar),
        "energy": np.full(times.size, hbar * omega * (lam + 0.5)),
    }


def uncertainty_fock(levels, params: OscillatorParams) -> np.ndarray:
    """Coordinate-momentum fluctuation product hbar (n + 1/2) of each level
    n in `levels`, an int or an array of them.

    Each entry is the scalar product to the bit, and like it turns inf
    without a warning past the float range.
    """
    levels = np.asarray(levels, dtype=int)
    if levels.size and levels.min() < 0:
        raise ValueError(f"level must be nonnegative, got {levels.min()}")
    with np.errstate(over="ignore"):
        return params.hbar * (levels + 0.5)

"""Checks, invariants, steps and snapshots shared by vectors, lines and phase space.

A signed vector, a line density and a Wigner function hold a normalized
state on a lattice: the quadrature sum(values) * cell is one, the
information is I = h * sum(values^2) * cell and the entropy is S = 1 - I,
where the cell is the product of the spacings (none for a vector, whose
h = 1).  write_grid and read_grid keep a grid's snapshot, in _csv's CSV,
with a JSON sidecar of its scalars and sizes, the only sidecar, at
sidecar(path); the reader checks the header and coordinates against it.

The time-stepped engines (dynamics, the timestepped density oracle and the
phase-space split step) share one step rule, steps: a span t is cut into
n = ceil(|t| / dt) equal steps, at most MAX_STEPS, and the default dt, given
only to a caller that passes the fastest phase rate, advances that phase by
a fixed angle per step (one step when the rate is zero).  The angle is
DEFAULT_STEP_ANGLE = 0.1 rad for the Cayley steps; the split step asks for
pi per substep of its fourth-order composition.  The two matrix engines
also share the Cayley propagator, cayley_power, the n-th power of one
implicit-midpoint step of a generator and its rate, which powers the first
column of a circulant generator's Cayley factor by cyclic convolutions and
takes any other generator densely, holding two n x n arrays, I - H and
I + H, through the solve and only the solve's result and its powers
through the matrix power.  The two real-space
oracles of the spectral line-density path (the timestepped density oracle
and wigner's momentum-only quadrature) share odd_sine_sum, the sine sum
that gives an odd kernel's transform in real space, and the algebra of
circulants: circulant gathers one from its first column, and cyclic, the
product of two, raises the timestepped oracle's Cayley factor to its power
and wigner's generator to its exponential.  The two spectral engines (the
line-density propagator and the phase-space split step) build every table
of unit phases exp(i rate angle) with phase_table, as the cos and sin of
the real phase.  Every engine reports a sampled run as one RunRecord.
Arguments are checked by four functions that raise the error class their
caller names: finite (a real scalar), positive (one above zero), count (an
integer, not a bool, within given bounds; a size is at most MAX_POINTS) and
real_array (a new read-only array of finite reals).
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._csv import create, read_csv, write_csv
from .errors import DomainError, GridError, NormalizationError

QUAD_TOL = 1e-9
ADMISSIBLE_TOL = 1e-9
WRAP_TOL = 1e-10
DEFAULT_STEP_ANGLE = 0.1  # max phase advance per step with the default dt
_WRAP_SIGMAS = math.sqrt(-2.0 * math.log(WRAP_TOL))  # sigmas out, a Gaussian is WRAP_TOL high
# cayley_power costs log2(n) products (dense, or cyclic convolutions of one column for a
# circulant generator), but its round-off grows as n eps: |I - I0| of cyclic3 at 0.1 rad per
# step is 8e-11 at 10^7 steps and 8e-9 at 10^9, against the fd gate of 1e-10
MAX_STEPS = 10**7  # bounds every run's loop, every run's samples and cayley_power's round-off
# one Cayley step's round-off grows with its reach (step / 2) max|a|: over cyclic3, random n = 6
# and 200 and the timestepped oracle at N = 256 and 1024, one step moved the sum or I by at most
# 7.0e-12 at reach 100 and 1.1e-10 at 1,000 (random n = 200); the tests reach at most 44
MAX_CAYLEY_REACH = 100.0  # bounds (step / 2) max|a| in cayley_power
# a size up to 2**53 converts to float exactly, so n - 1, 1 / n and length / n see the true
# size; an array of more float64 points (64 PiB) outgrows any address space
MAX_POINTS = 2**53  # bounds every size argument: a grid axis, a vector's n, n^2 for n x n


class Grid:
    """Checks and invariants of a frozen normalized-state dataclass.

    Subclasses declare the fields (values, then the scalars that _SCALARS
    maps to their checks), the (origin, spacing) fields of each array axis
    in _AXES (the cell is the product of the spacings), the snapshot's CSV
    header and sidecar size keys in _HEADER and _SIZES, the array shape in
    _check_shape and h, a field or a constant.  Values must be finite and
    sum to one within QUAD_TOL in quadrature; they are stored read-only.
    _ERROR is raised for malformed values and scalars, and for an
    information beyond the float range.
    """

    _SCALARS: dict = {}
    _AXES: tuple = ()
    _HEADER, _SIZES = "", ()
    _ERROR: type = GridError

    def _check_shape(self, arr: np.ndarray) -> None:
        raise NotImplementedError

    def __post_init__(self):
        arr = real_array(self.values, "values", self._ERROR)
        self._check_shape(arr)
        for name, check in self._SCALARS.items():
            check(getattr(self, name), name, self._ERROR)
        total = self._integrate(float(arr.sum()))
        if abs(total - 1.0) > QUAD_TOL:
            raise NormalizationError(
                f"quadrature sum is {total:.12g}, expected 1 within {QUAD_TOL:g}"
            )
        object.__setattr__(self, "values", arr)

    def _integrate(self, s: float) -> float:
        """A lattice sum times the cell, one spacing at a time."""
        for _, step in self._AXES:
            s *= getattr(self, step)
        return s

    def axis(self, k: int) -> np.ndarray:
        """The coordinates origin + spacing * arange(n) of array axis k."""
        origin, step = self._AXES[k]
        return getattr(self, origin) + getattr(self, step) * np.arange(self.values.shape[k])

    @property
    def total(self) -> float:
        return self._integrate(float(self.values.sum()))

    @property
    def information(self) -> float:
        """h times the lattice sum of values^2 times the cell; _ERROR when
        that is beyond the float range (the BLAS dot overflows silently)."""
        info = self._integrate(self.h * float(np.vdot(self.values, self.values)))
        if not math.isfinite(info):
            raise self._ERROR("the information is beyond the float range")
        return info

    @property
    def entropy(self) -> float:
        return 1.0 - self.information

    @property
    def is_admissible(self) -> bool:
        return self.information <= 1.0 + ADMISSIBLE_TOL


def check_wrap(center: float, lo: float, length: float, sigma: float) -> None:
    """GridError when a Gaussian centred in [lo, lo + length) keeps more than
    WRAP_TOL of its peak amplitude at the nearer boundary, when the centre
    lies outside that domain, or when sigma is not positive."""
    positive(sigma, "Gaussian width", GridError)
    if not lo <= center < lo + length:
        raise GridError(f"centre {center:g} lies outside [{lo:g}, {lo + length:g})")
    dist = min(center - lo, lo + length - center)
    if dist < _WRAP_SIGMAS * sigma:  # exp(-(dist / sigma)^2 / 2) > WRAP_TOL
        raise GridError(
            f"domain length {length:g} too small for sigma {sigma:g}: "
            "boundary amplitude exceeds 1e-10 of the peak"
        )


def _shown(value) -> str:
    """repr(value), but not the digits of an int beyond the float range:
    str() refuses an int of more than 4,300 digits."""
    big = isinstance(value, int) and not abs(value) <= sys.float_info.max
    return "an int beyond the float range" if big else repr(value)


def finite(value, name: str = "value", error: type = DomainError) -> float:
    """value as a float; `error` (DomainError by default) unless it is a real
    number within the float range, so a string, None, a complex number, nan,
    inf and an int beyond the float range are all refused alike."""
    if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
        raise error(f"{name} must be finite and real, not {_shown(value)}")
    return float(value)


def positive(value, name: str = "value", error: type = DomainError) -> float:
    """finite(value, name, error), which must also be above zero."""
    if not finite(value, name, error) > 0.0:
        raise error(f"{name} must be positive, not {value!r}")
    return float(value)


def count(
    value, name: str = "value", low: int = 1, error: type = DomainError, high: float = math.inf
) -> int:
    """value as an int; `error` unless it is an integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, not {_shown(value)}")
    if value > high:  # not shown: it may have more digits than str() converts
        raise error(f"{name} must be at most {high}")
    return int(value)


def real_array(values, name: str = "values", error: type = DomainError) -> np.ndarray:
    """values as a new read-only float array; `error` unless it is a regular
    nesting of entries that finite accepts (a numeric string is refused)."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise error(f"{name} must form a regular array") from None
    if arr.dtype.kind == "O":  # Python objects: ints beyond 64 bits, None, ...
        arr = np.array([finite(v, name, error) for v in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind in "biuf":  # bool, int, unsigned, float: copied
        arr = np.array(arr, dtype=float)
    if arr.dtype != float or not np.all(np.isfinite(arr)):
        raise error(f"{name} must be finite and real")
    arr.setflags(write=False)
    return arr


def spacing(length: float, n: int) -> float:
    """The spacing length / n of an n-point grid; GridError unless n is an
    integer in [1, MAX_POINTS] and length finite and positive."""
    n = count(n, "grid size", 1, GridError, MAX_POINTS)
    return positive(length, "domain length", GridError) / n


def steps(
    t: float, dt: float | None = None, rate: float | None = None,
    angle: float = DEFAULT_STEP_ANGLE, rate_name: str = "the fastest phase rate",
) -> tuple[int, float]:
    """Cut the time span t into n = ceil(|t| / dt) equal steps (none for
    t = 0); returns (n, t / n).

    Without dt, a caller that passes the angular rate `rate` of the fastest
    phase (called `rate_name` in errors) gets the default dt, which advances
    that phase by `angle`; a zero rate takes one step.  DomainError unless t
    and dt are finite real numbers and dt is positive and large enough for
    n <= MAX_STEPS, so a missing dt without a rate is refused; for a default
    dt, also unless the rate is finite.
    """
    t = finite(t, "t")
    if dt is None and rate is not None:
        dt = angle / rate if finite(rate, rate_name) > 0.0 else abs(t) or 1.0
    dt = positive(dt, "dt")
    if not abs(t) / dt - 1e-12 <= MAX_STEPS:
        raise DomainError(f"t = {t:g} needs more than {MAX_STEPS:g} steps of dt = {dt:g}")
    n = max(1, int(math.ceil(abs(t) / dt - 1e-12))) if t else 0
    return n, t / max(n, 1)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One sampled run: the sample times, a (samples, k) diagnostics array
    whose columns are named in order by `columns` and read as attributes
    (rec.information is rec.diagnostics[:, columns.index("information")]),
    and, for the finite engine only, the sampled states.  DomainError unless
    the times, the diagnostics rows and any states are one per sample."""

    times: np.ndarray
    diagnostics: np.ndarray
    columns: tuple
    states: list | None = None

    def __post_init__(self):
        shape = np.shape(self.diagnostics)
        if len(shape) != 2 or shape[1] != len(self.columns):
            raise DomainError(f"diagnostics of shape {shape} are not rows of columns {self.columns}")
        states = shape[0] if self.states is None else len(self.states)
        if np.shape(self.times) != shape[:1] or states != shape[0]:
            raise DomainError(f"{shape[0]} diagnostics rows need one time and state each")

    def __getattr__(self, name):
        columns = self.__dict__.get("columns", ())
        if name not in columns:
            raise AttributeError(name)
        return self.diagnostics[:, columns.index(name)]


def cayley_power(a: np.ndarray, step: float, n: int, rate: float = 1.0) -> np.ndarray:
    """((I - H)^-1 (I + H))^n with H = (step / 2) rate a: n implicit-midpoint
    steps of dx/dt = rate a x, the bits of the same call on rate * a at rate
    1.  rate * a is formed in full only when rate != 1 and its row 0 passes
    the circulant test below, and is then reused as H.  For an antisymmetric
    a the Cayley factor is orthogonal, so the propagator conserves the norm
    to round-off; n = 0 gives the identity, with no factorization.  That
    round-off grows with the reach (step / 2) max|rate a|, taken as |rate|
    max(a.max(), -a.min()) with no |a| array (max|rate a| to the bit: rounding
    is monotone), so a reach above MAX_CAYLEY_REACH is a DomainError.

    When rate a is circulant, entry for entry (a compare with the circulant
    of its first column, row 0 first, so a generic a costs one row and no
    N x N bool array or scaled copy; a may be such a read-only view), so is
    the Cayley factor Q, and only its first column r is computed from a's
    first column alone, with no N x N generator built: one LU solve of
    (I - H) r = e0 + H e0, I - H gathered as the circulant of e0 - H e0,
    refined once by its residual through (I - H)^-1 = (I + Q) / 2, raised to
    the n-th power by repeated squaring with cyclic convolutions and
    gathered as a circulant.  That costs one LU, O(N^3 / 3), and O(N^2) per
    product, not a solve with N right-hand sides and log2(n) dense products;
    no transform is used.  Every product repeats r's round-off, so the drift
    of the total grows coherently with n; the refinement cuts it fivefold.
    Any other a takes the dense solve and matrix power.  That branch forms H
    in one n x n array, then I - H in a second and I + H in place in H, with
    the bits of eye -/+ H, signed zeros included, and frees both once
    np.linalg.solve has returned Q, so only Q and its powers are held while
    np.linalg.matrix_power runs.
    """
    def scaled(x):  # rate * x, or x itself at rate 1: 1.0 * x has the bits of x
        return x if rate == 1.0 else rate * x

    col = scaled(a[:, 0])
    c = circulant(col)
    full = scaled(a) if np.array_equal(scaled(a[0]), c[0]) else None  # row 0 first
    circulant_a = full is not None and np.array_equal(full, c)
    held = a[:, 0] if circulant_a else a  # a circulant holds only its column's values
    a_max = abs(rate) * float(max(held.max(), -held.min()))
    if not abs(step) / 2.0 * a_max <= MAX_CAYLEY_REACH:
        raise DomainError(
            f"Cayley step reach (step / 2) max|a| = ({step!r} / 2) * {a_max!r} exceeds "
            f"{MAX_CAYLEY_REACH:g}: the step would not keep the total to round-off"
        )
    size = a.shape[0]
    if not n:
        return np.eye(size)  # matrix_power(., 0), with no factorization
    if not circulant_a:
        if rate == 1.0:
            half = (step / 2.0) * a
        else:  # (step / 2) (rate a), in the scaled copy when the row-0 test made one
            half = rate * a if full is None else full
            half *= step / 2.0
        lhs = np.subtract(0.0, half)  # I - H: 0 - H off the diagonal, 1 - H on it
        lhs.flat[:: size + 1] += 1.0
        half += 0.0  # I + H in place: 0 + H off the diagonal (-0.0 becomes +0.0), 1 + H on it
        half.flat[:: size + 1] += 1.0
        q = np.linalg.solve(lhs, half)
        del lhs, half  # n x n each, not held while the power runs
        return np.linalg.matrix_power(q, n)
    e0, half = np.eye(1, size)[0], (step / 2.0) * col
    rhs = e0 + half
    r = np.linalg.solve(circulant(e0 - half), rhs)
    res = rhs - (r - cyclic(half, r))
    r = r + (res + cyclic(r, res)) / 2.0
    return circulant(int_power(r, n, cyclic, e0)).copy()


def circulant(c: np.ndarray) -> np.ndarray:
    """The circulant C(c)[i, j] = c[(i - j) % n] of its first column c, as a
    read-only view of c reversed and wrapped (2n - 1 values): row i is the
    window that starts n - 1 - i values in."""
    return sliding_window_view(np.concatenate([c[::-1], c[:0:-1]]), c.size)[::-1]


def cyclic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First column of the circulant product C(a) C(b): the cyclic
    convolution of a and b, as the direct linear convolution with its tail
    wrapped around."""
    full = np.convolve(a, b)
    out = full[: a.size]
    out[:-1] += full[a.size :]
    return out


def odd_sine_sum(m_half: np.ndarray) -> np.ndarray:
    """s_j = sum_{l=1}^{N/2-1} m_half[l] sin(2 pi j l / N) for j = 1..N/2-1,
    mirrored as s_{N-j} = -s_j, so s is odd to the last bit and s_0 =
    s_{N/2} = 0: the real-space column of an odd kernel whose transform is
    m_half on k = 0..N/2, N a power of two.  Each sine is read from a table
    of the N values sin(2 pi k / N) at k = (j l) mod N, a bit mask, so no
    large argument is rounded; m_half[0] and m_half[N/2] are not read."""
    half = m_half.size - 1
    n = 2 * half
    modes = np.arange(1, half)
    table = np.sin(2.0 * math.pi * np.arange(n) / n)
    s = np.zeros(n)
    s[1:half] = table[np.outer(modes, modes) & (n - 1)] @ m_half[1:half]
    s[half + 1 :] = -s[1:half][::-1]
    return s


def int_power(x: np.ndarray, r: int, product=np.multiply, one=None) -> np.ndarray:
    """x ** r for an integer r >= 0 by repeated squaring: the power starts at
    the square of r's lowest set bit and takes one product per further set
    bit, bit_length(r) + popcount(r) - 2 products in all (r = 1 gives x
    itself).  An array ** r with r > 2 calls libm pow per element instead:
    x^4 at 128 x 128 points takes 1.2 ms, against 40 us here.  The result is
    pow's wherever the products are exact, as at dyadic points of a small
    grid; elsewhere it is within 2 ulp of pow for r <= 4.  Another product
    and its unit `one` (by default elementwise * and ones, the result for
    r = 0) power in another algebra: cyclic and e0 power a circulant."""
    if not r:
        return np.ones_like(x) if one is None else one
    power, square = None, x
    for k in range(r.bit_length()):  # the binary digits of r, lowest first
        if k:
            square = product(square, square)
        if r >> k & 1:
            power = square if power is None else product(power, square)
    return power


def phase_table(rate, angle) -> np.ndarray:
    """exp(1j * rate * angle), rate and angle broadcast, as the cos and sin
    of the real phase rate * angle written into the real and imaginary parts
    of one complex array: no complex temporaries.  Measured against numpy's
    complex exp (numpy 2.4, x86-64), the same bits."""
    theta = rate * angle
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def sidecar(path) -> str:
    """The path <path>.meta.json of the JSON sidecar of a snapshot at path."""
    return str(path) + ".meta.json"


def write_grid(grid: Grid, path) -> None:
    """A grid's lattice and values at 17 significant digits, with an indented
    JSON sidecar, <path>.meta.json, of its _SCALARS fields in declaration
    order, then its _SIZES.  Both files are opened by _csv's create: an
    existing file is replaced, or written through, as it says."""
    meta = {name: getattr(grid, name) for name in grid._SCALARS}
    meta.update(zip(grid._SIZES, grid.values.shape))
    write_csv(path, grid._HEADER, [grid.axis(k) for k in range(grid.values.ndim)], grid.values, 17)
    with create(sidecar(path)) as fh:
        fh.write(json.dumps(meta, indent=2).encode() + b"\n")


def read_grid(cls, path):
    """The cls that write_grid wrote to path; GridError for a sidecar that is
    not JSON or lacks or refuses an entry, malformed CSV content, a header
    other than cls._HEADER, rows other than the sidecar's sizes or
    coordinates other than its lattice (17 digits read back bit for bit);
    OSError for a missing CSV or sidecar."""
    kind, checks = cls.__name__, dict(cls._SCALARS, **dict.fromkeys(cls._SIZES, count))
    with open(sidecar(path), "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
            meta = {key: check(raw[key], key, error=GridError) for key, check in checks.items()}
        except (KeyError, TypeError, ValueError) as exc:  # GridError is a ValueError
            raise GridError(f"malformed {kind} sidecar: {exc!r}") from exc
    fields, data = read_csv(path, kind)
    if fields != cls._HEADER.split(","):
        raise GridError(f"not a {kind} CSV")
    shape = tuple(meta.pop(key) for key in cls._SIZES)
    if data.shape[0] != math.prod(shape):
        raise GridError(f"{kind} CSV row count disagrees with the sidecar sizes")
    grid = cls(data[:, -1].reshape(shape), **meta)
    for k in range(len(shape)):  # each coordinate column against its axis, broadcast
        along = [-1 if j == k else 1 for j in range(len(shape))]
        if not (data[:, k].reshape(shape) == grid.axis(k).reshape(along)).all():
            raise GridError(f"{kind} CSV coordinates are not the sidecar's lattice")
    return grid

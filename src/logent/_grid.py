"""Validation, invariants and CSV I/O shared by vectors, lines and phase space.

A signed vector, a line density and a Wigner function hold a normalized
state on a lattice: the quadrature sum(values) * cell is one, the
information is I = h * sum(values^2) * cell and the entropy is S = 1 - I,
where the cell is the product of the spacings (none for a vector, whose
h = 1).  write_csv writes every CSV file: a row per lattice point, its
coordinates, then its values (a run's series: the lattice of its times),
each cell exactly "%.{digits-1}e" % v.  _cells formats whole arrays at once,
with a double-double product and a table of digit groups, and hands the
rare values it cannot settle (near-ties, the far ends of the float range,
non-finite values) to % itself.  read_csv reads every CSV file back, bit
for bit as np.loadtxt would: _values, the inverse of _cells, parses a body
in write_csv's own layout block by block, eight digits per uint64 word and
the same double-double product, and hands its near-ties and far exponents
to float(); any other file goes whole to np.loadtxt.
write_grid and read_grid keep a grid's snapshot with a JSON sidecar of its
scalars and sizes, the only sidecar, at sidecar(path); the reader checks the
header and the coordinates against that lattice.

The time-stepped engines (dynamics, the timestepped density oracle and the
phase-space split step) share one step rule, steps: a span t is cut into
n = ceil(|t| / dt) equal steps, at most MAX_STEPS, and the default dt, given
only to a caller that passes the fastest phase rate, advances that phase by
a fixed angle per step (one step when the rate is zero).  The angle is
DEFAULT_STEP_ANGLE = 0.1 rad for the Cayley steps; the split step asks for
pi per substep of its fourth-order composition.  The two matrix engines also share the Cayley propagator,
cayley_power, the n-th power of one implicit-midpoint step, which powers
the first column of a circulant generator's Cayley factor by cyclic
convolutions and takes any other generator densely.  The two real-space
oracles of the spectral line-density path (the timestepped density oracle
and wigner's momentum-only quadrature) share odd_sine_sum, the sine sum
that gives an odd kernel's transform in real space, and the algebra of
circulants: circulant gathers one from its first column, and cyclic, the
product of two, raises the timestepped oracle's Cayley factor to its power
and wigner's generator to its exponential.  Every engine reports a sampled
run as one RunRecord.  Arguments are checked by four functions that raise
the error class their caller names: finite (a real scalar), positive (one
above zero), count (an integer, not a bool, within given bounds; a size is
at most MAX_POINTS) and real_array (a new read-only array of finite reals).
"""
from __future__ import annotations

import functools
import io
import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

_BLOCK_ROWS = 2048  # CSV rows formatted per write or read: bounds the cells and text held in memory
_BLOCK_CELLS = 2 * _BLOCK_ROWS  # and cells per read: a block of wide rows stays as small
# bytes of write_csv's narrowest and widest cells with their separators: D.14 digits e+DD,
# and -D.16 digits e+DDD,
_CELL_BYTES = (21, 25)
_PAD = 32  # newlines before each block that read_csv reads: room for _values' first words


class Grid:
    """Checks and invariants of a frozen normalized-state dataclass.

    Subclasses declare the fields (values, then the scalars that _SCALARS
    maps to their checks), the (origin, spacing) fields of each array axis
    in _AXES (the cell is the product of the spacings), the snapshot's CSV
    header and sidecar size keys in _HEADER and _SIZES, the array shape in
    _check_shape and h, a field or a constant.  Values must be finite and
    sum to one within QUAD_TOL in quadrature; they are stored read-only.
    _ERROR is raised for malformed values and scalars.
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
        return self._integrate(self.h * float(np.vdot(self.values, self.values)))

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
    and, for the finite engine only, the sampled states."""

    times: np.ndarray
    diagnostics: np.ndarray
    columns: tuple
    states: list | None = None

    def __getattr__(self, name):
        columns = self.__dict__.get("columns", ())
        if name not in columns:
            raise AttributeError(name)
        return self.diagnostics[:, columns.index(name)]


def cayley_power(a: np.ndarray, step: float, n: int) -> np.ndarray:
    """((I - step a / 2)^-1 (I + step a / 2))^n: n implicit-midpoint steps of
    dx/dt = a x.  For an antisymmetric a the Cayley factor is orthogonal, so
    the propagator conserves the norm to round-off; n = 0 gives the identity.
    That round-off grows with the reach (step / 2) max|a|, so a reach above
    MAX_CAYLEY_REACH is a DomainError.

    When a is circulant, entry for entry (one compare with the circulant of
    its first column; a may be such a read-only view), so is the Cayley
    factor Q, and only its first column r is computed from a's first column
    alone, with no N x N generator built: one LU solve of (I - H) r = e0 +
    H e0 with H = step a / 2, I - H gathered as the circulant of e0 - H e0,
    refined once by its residual through (I - H)^-1 = (I + Q) / 2, raised to
    the n-th power by repeated squaring with cyclic convolutions and
    gathered as a circulant.  That costs one LU, O(N^3 / 3), and O(N^2) per
    product, not a solve with N right-hand sides and log2(n) dense products;
    no transform is used.  Every product repeats r's round-off, so the drift
    of the total grows coherently with n; the refinement cuts it fivefold.
    Any other a takes the dense solve and matrix power.
    """
    circulant_a = np.array_equal(a, circulant(a[:, 0]))
    a_max = float(np.max(np.abs(a[:, 0] if circulant_a else a)))
    if not abs(step) / 2.0 * a_max <= MAX_CAYLEY_REACH:
        raise DomainError(
            f"Cayley step reach (step / 2) max|a| = ({step!r} / 2) * {a_max!r} exceeds "
            f"{MAX_CAYLEY_REACH:g}: the step would not keep the total to round-off"
        )
    if not circulant_a:
        eye, half = np.eye(a.shape[0]), (step / 2.0) * a
        lhs = eye - half
        eye += half  # I + H, the right-hand sides, in place
        del half  # n x n, not held while the solve and the power run
        return np.linalg.matrix_power(np.linalg.solve(lhs, eye), n)
    e0, half = np.eye(1, a.shape[0])[0], (step / 2.0) * a[:, 0]
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


def odd_sine_sum(m_hat: np.ndarray) -> np.ndarray:
    """s_j = sum_{l=1}^{N/2-1} m_hat[l] sin(2 pi j l / N) for j = 1..N/2-1,
    mirrored as s_{N-j} = -s_j, so s is odd to the last bit and s_0 =
    s_{N/2} = 0: the real-space column of an odd kernel whose transform is
    m_hat in FFT order, N a power of two.  Each sine is read from a table of
    the N values sin(2 pi k / N) at k = (j l) mod N, a bit mask, so no large
    argument is rounded; m_hat[0] and the Nyquist m_hat[N/2] are not read."""
    n = m_hat.size
    half = n // 2
    modes = np.arange(1, half)
    table = np.sin(2.0 * math.pi * np.arange(n) / n)
    s = np.zeros(n)
    s[1:half] = table[np.outer(modes, modes) & (n - 1)] @ m_hat[1:half]
    s[half + 1 :] = -s[1:half][::-1]
    return s


def int_power(x: np.ndarray, r: int, product=np.multiply, one=None) -> np.ndarray:
    """x ** r for an integer r >= 0 by repeated squaring: log2(r) squares and
    one product per binary digit of r.  An array ** r with r > 2 calls libm
    pow per element instead: x^4 at 128 x 128 points takes 1.2 ms, against
    40 us here.  The result is pow's wherever the products are exact, as at
    dyadic points of a small grid; elsewhere it is within 2 ulp of pow for
    r <= 4.  Another product and its unit `one` (by default elementwise *
    and ones) power in another algebra: cyclic and e0 power a circulant."""
    power, square = np.ones_like(x) if one is None else one, x
    for k in range(r.bit_length()):  # the binary digits of r, lowest first
        if k:
            square = product(square, square)
        if r >> k & 1:
            power = product(power, square)
    return power


_SPLITTER = 2.0**27 + 1.0
_EXP_FROM = -300  # the least exponent in _tables
_TIE_MARGIN = 2.0**-30  # a fraction this near 1/2 is rounded by %, not decided here
_NUDGE = _TIE_MARGIN * 2.0**-52  # of a double x: _TIE_MARGIN to twice that of x's last place


def _split(a: np.ndarray) -> tuple:
    """Dekker's split: (hi, lo) with hi + lo = a exactly, each of at most 26
    significant bits, so a product of two halves is exact."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _tables() -> tuple:
    """The CSV kernels' read-only tables, built on the first call (about
    1.6 ms), so a process that writes and reads no CSV builds none:
    - tens, column q - _EXP_FROM for |q| <= 300: 10^q as the double-double
      hi + lo (hi the correctly rounded double, lo the correctly rounded
      rest, each from exact integer arithmetic: exact for 0 <= q <= 46,
      within 2^-106 of 10^q for q >= -291 and within 2^-93 down to q =
      -296, where lo is subnormal), then Dekker's split of hi;
    - words, entry i < 10,000: the four ASCII digits of i, zero-padded, as
      one uint32;
    - exponents, row k - _EXP_FROM for |k| <= 300: the bytes e, the sign,
      the hundreds digit (NUL under 100) and the last two digits of k;
    - signs, entry b < 256: 1 for the byte "+", -1 for "-", 0 for any other."""
    rows = []
    for q in range(_EXP_FROM, -_EXP_FROM + 1):
        ten = 10 ** abs(q)
        if q >= 0:
            hi = float(ten)
            rows.append((hi, float(ten - int(hi))))
        else:  # int / int is correctly rounded; hi = m / s exactly
            hi = 1 / ten
            m, s = hi.as_integer_ratio()
            rows.append((hi, (s - m * ten) / (s * ten)))
    hi, lo = np.array(rows).T
    tens = np.array([hi, lo, *_split(hi)])
    quads = (np.indices((10,) * 4, np.uint8).reshape(4, -1) + np.uint8(ord("0"))).T.copy()
    k = np.arange(_EXP_FROM, -_EXP_FROM + 1)
    exponents = np.empty((k.size, 5), np.uint8)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    exponents[:, 2:] = quads[np.abs(k), 1:]
    exponents[np.abs(k) < 100, 2] = 0
    signs = np.zeros(256, np.int64)
    signs[[ord("+"), ord("-")]] = 1, -1
    tables = tens, quads.view(np.uint32).ravel(), exponents, signs
    for table in tables:
        table.setflags(write=False)
    return tables


def _product(a: np.ndarray, column: np.ndarray, low: np.ndarray | None = None) -> tuple:
    """(p, e) with p + e the double-double product of a + low and 10^q,
    column = q - _EXP_FROM of tens in _tables (out-of-range columns clipped),
    for positive doubles a and |low| <= ulp(a) / 2: a times the hi of
    _tables made an exact sum by Dekker's product (no fused multiply-add),
    plus a times its lo and low times its hi.  Its relative error is under
    2^-104 for q >= -291 and under 2^-92 down to q = -296, plus a few units
    of 2^-1075 where a partial product is subnormal (a product under about
    1e-290); p is the correctly rounded a hi."""
    hi, lo, hi_hi, hi_lo = _tables()[0].take(column, axis=1, mode="clip")
    a_hi, a_lo = _split(a)
    p = a * hi
    e = a_hi * hi_hi  # in place, left to right: ((a_hi hi_hi - p) + ...) + a lo
    e -= p
    e += a_hi * hi_lo
    e += a_lo * hi_hi
    e += a_lo * hi_lo
    e += a * lo
    if low is not None:
        e += low * hi
    return p, e


def _scaled(a: np.ndarray, q: np.ndarray) -> tuple:
    """(floor(a 10^q), the rest in [0, 1)) for positive a, from _product;
    below 10^17 the rest lies within 1e-14 of its exact value."""
    p, e = _product(a, q - _EXP_FROM)
    whole = np.floor(p)  # p - whole is exact
    rest = (p - whole) + e
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _cells(values, digits: int) -> np.ndarray:
    """The bytes of "%.{digits-1}e" % v for every v of values (15 <= digits
    <= 17), one row each of a (size, digits + 7) uint8 matrix padded with
    NUL bytes: a positive cell's sign byte and an exponent's hundreds byte
    under 100 are NUL, and a fallback cell is padded at its end.

    For |v| in [1e-280, 1e14), k = floor(log10|v|), rechecked against the
    digit range as log10 may round across a power of ten, and n =
    floor(|v| 10^(digits-1-k)) from _scaled; n rounds up when the rest
    exceeds 1/2, to 10^digits at most, the next power of ten.  The rest lies
    within 1e-14 of its exact value, so a rest within _TIE_MARGIN (about
    1e-9) of 1/2 goes to _percent, exact ties among them, as do values
    outside that range and non-finite ones; zeros are formatted here.  The
    digits of n are gathered four at a time from the words of _tables."""
    _, words, exponents, _ = _tables()
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e14)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    low, high = 10 ** (digits - 1), 10**digits
    n, rest = _scaled(a, digits - 1 - k)
    off = (n >= high).astype(np.int64) - (n < low)
    if off.any():  # log10 rounded across a power of ten: k is one off
        i = np.flatnonzero(off)
        k[i] += off[i]
        n[i], rest[i] = _scaled(a[i], digits - 1 - k[i])
    zero = v == 0.0
    slow = ~(fast | zero) | (n < low) | (n >= high) | (np.abs(rest - 0.5) <= _TIE_MARGIN)
    n += rest > 0.5
    up = n == high
    n[up] = low
    k += up
    n[zero | slow] = 0
    k[zero | slow] = 0
    count = (digits + 3) // 4
    quads = np.empty((v.size, count), np.uint32)
    for j in range(count - 1, -1, -1):  # n in base 10,000, the last word first
        top = n // 10_000
        quads[:, j] = words.take(n - 10_000 * top)
        n = top
    text = quads.view(np.uint8)[:, 4 * count - digits :]  # the digits of n, zero-padded
    cells = np.empty((v.size, digits + 7), np.uint8)
    cells[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    cells[:, 1] = text[:, 0]
    cells[:, 2] = ord(".")
    cells[:, 3 : digits + 2] = text[:, 1:]
    cells[:, digits + 2 :] = exponents.take(k - _EXP_FROM, axis=0)
    if slow.any():
        cells[slow] = _percent(v[slow], digits)
    return cells


def _percent(values: np.ndarray, digits: int) -> np.ndarray:
    """_cells's rows for a float array by Python's % itself, one value at a
    time: the fallback, for values _cells does not settle."""
    texts = [(f"%.{digits - 1}e" % v).encode() for v in values.tolist()]
    return np.array(texts, f"S{digits + 7}").view(np.uint8).reshape(-1, digits + 7)  # NUL-padded


def write_csv(path, header: str, axes, values, digits: int) -> None:
    """Write a header line, then a CSV row per lattice point at `digits`
    significant digits, each cell exactly "%.{digits-1}e" % v: its
    coordinates (the first axis slowest), then its values.  values has the
    lattice's shape, plus a trailing axis if points have several.  Cells
    are formatted on whole arrays by _cells, each axis's coordinates once;
    each block of at most _BLOCK_ROWS rows is gathered into one uint8
    matrix of cells, commas and a newline, stripped of its NUL padding and
    written as bytes."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    shape = tuple(a.size for a in axes)
    width = math.prod(np.shape(values)[len(axes) :])  # values per point
    values = np.reshape(values, (math.prod(shape), width))
    coords = [_cells(a, digits) for a in axes]
    size = digits + 7  # bytes per cell, padding included
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, values.shape[0], _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            rows = np.empty((block.shape[0], len(axes) + width, size + 1), np.uint8)
            index = np.unravel_index(np.arange(start, start + block.shape[0]), shape)
            for k, (cells, i) in enumerate(zip(coords, index)):
                rows[:, k, :size] = cells.take(i, axis=0)
            rows[:, len(axes) :, :size] = _cells(block, digits).reshape(block.shape[0], width, size)
            rows[:, :, size] = ord(",")
            rows[:, -1, size] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


_ZEROS = int.from_bytes(b"0" * 8, "little")  # eight ASCII zeros as one uint64


def _eight(w: np.ndarray) -> np.ndarray:
    """The number written by the eight ASCII digits of each uint64, its
    first byte the leading digit: pairs, then fours, then all eight,
    combined by multiplies within the word (Lemire 2021)."""
    w = w - _ZEROS
    w = w * 10 + (w >> 8)
    low = 0x000000FF000000FF
    return ((w & low) * (100 + (1000000 << 32)) + ((w >> 16) & low) * (1 + (10000 << 32))) >> 32


def _values(buf: np.ndarray, start: int, stop: int, columns: int):
    """The inverse of _cells for whole rows: (values, digits) when every
    row of buf[start:stop] is `columns` cells, each [-]D.D...e(+|-)DD[D]
    with one digit count from 15 to 17, joined by commas and ended by a
    newline, as write_csv writes them; None for any other text.  buf is a
    uint8 array of whole uint64 words, aligned as numpy allocates it; start
    is a multiple of 8, with a newline before it and at least 24 bytes
    before that, and at least 16 bytes follow stop.

    _fields checks the text and decodes each cell's significand, an
    integer M < 10^17, and its exponent; M 10^q (q the exponent less
    digits - 1) comes from _product of M's double-double, and the sign is
    set last.  For an exponent in [-280, 307] that product lies within
    2^-36 of a unit in the last place of M 10^q, so a cell whose result
    moves when the product is nudged by _NUDGE of itself either way (a
    near-tie, within _TIE_MARGIN of a midpoint) or whose exponent lies
    outside that range goes to _floats: float() of its own bytes, which
    rounds correctly, as np.loadtxt does."""
    fields = _fields(buf, start, stop, columns)
    if fields is None:
        return None
    digits, m, exp, neg, first, sep = fields
    m = m.astype(float)  # exact: M = m[0] 10^8 + m[1], m[0] < 10^9
    m[0] *= 1e8  # exact: (m[0] 5^8) 2^8 has at most 49 significant bits
    m_hi = m[0] + m[1]
    low = m[1] - (m_hi - m[0]) if digits > 15 else None  # M < 10^15 < 2^53 is m_hi
    p, err = _product(m_hi, np.minimum(exp, 307) + (1 - digits - _EXP_FROM), low)  # no overflow
    nudge = p * _NUDGE
    r = p + (err + nudge)
    slow = (r != p + (err - nudge)) | ((exp + 280).view(np.uint64) > 587)  # exponents off [-280, 307]
    r = (r.view(np.int64) | neg.astype(np.int64) << 63).view(float)
    i = np.flatnonzero(slow)
    if i.size:
        r[i] = _floats(buf, first[i], sep[i])
    return r, digits


def _fields(buf: np.ndarray, start: int, stop: int, columns: int):
    """_values's reading of the text: (digits, M's leading digits and its
    last eight as a (2, cells) uint64 array, the exponents, whether each
    cell is negative, each cell's first byte and its separator), or None.

    Each cell is found by its one e byte.  The 32 bytes from 24 before it
    are four uint64 words, each shifted together from two aligned words:
    the bytes up to the point, the fraction's last 16 digits (the bytes
    before a shorter fraction made ASCII zeros) and the exponent with the
    separator after it.  The point, the signs and the separators are read
    at their places, every other byte of the text must be a digit (one
    count), and the cells must tile the rows.  The fraction's digits are
    decoded eight at a time."""
    e = (buf[start:stop] == ord("e")).nonzero()[0]  # from start
    if not e.size or e.size % columns:
        return None
    digits = int(e[0]) - 1 - int(buf[start] == ord("-"))
    if not 15 <= digits <= 17:
        return None
    aligned = buf.view(np.uint64).take((e >> 3) + np.arange(start // 8 - 3, start // 8 + 2)[:, None])
    shift = (e.view(np.uint64) & 7) << 3
    w = aligned[:-1] >> shift
    w |= aligned[1:] << 64 - shift
    del aligned  # a third of the memory _fields holds at its peak
    byte = w.view(np.uint8)

    def at(k):  # byte k of each cell's 32, which start 24 bytes before its e
        return byte[k >> 3, k & 7 :: 8]

    neg = at(22 - digits) == ord("-")
    sign = _tables()[3].take(at(25))  # the exponent's: 1, -1, or 0 for another byte
    exp = sign * (at(26) * 10 + at(27) + 240)  # 10 t + o: uint8 arithmetic wraps 11 * 48 to 16
    last = at(28) - np.uint8(ord("0"))
    three = last < 10  # a third exponent digit
    if three.any():
        exp[three] = exp[three] * 10 + sign[three] * last[three]
    sep = e + (start + 4) + three  # each cell's separator
    first = e + (start - digits - 1) - neg  # and its first byte
    row = np.full(columns, ord(","), np.uint8)
    row[-1] = ord("\n")
    ok = (at(24 - digits) == ord(".")) & (buf.take(sep).reshape(-1, columns) == row).ravel()
    ok[1:] &= first[1:] - sep[:-1] == 1  # the cells tile the rows
    if not (
        ok.all() and sep[-1] == stop - 1 and np.count_nonzero(sign) == e.size
        and np.count_nonzero(buf[start:stop] - np.uint8(ord("0")) < 10)
        == e.size * (digits + 2) + np.count_nonzero(three)
    ):
        return None
    lead = np.multiply(at(23 - digits) - np.uint8(ord("0")), 10 ** (digits - 9), dtype=np.uint64)
    pad = 8 * (17 - digits)  # bits of the first fraction word before the fraction
    if pad:
        w[1] &= np.uint64(2**64 - 2**pad)
        w[1] |= np.uint64(_ZEROS >> 64 - pad)
    m = _eight(w[1:3])
    m[0] += lead
    return digits, m, exp, neg, first, sep


def _floats(buf: np.ndarray, first: np.ndarray, sep: np.ndarray) -> list:
    """_values's fallback: float() of each cell's own bytes, buf[first:sep],
    one at a time, for the values _values does not settle."""
    return [float(buf[i:j].tobytes()) for i, j in zip(first.tolist(), sep.tolist())]


def _stream(fh):
    """read_csv's fast path on a file opened in binary: the header fields
    and the data of a body that _values reads, block by block; None for any
    other file.  Each block is the whole rows among the next bytes read into
    one buffer, which holds at most _BLOCK_ROWS rows and _BLOCK_CELLS cells
    of the narrowest kind (or one row of the widest, or a smaller file's
    whole body); the rest of a row is carried to the next block.  A block
    refused after others have parsed leaves the file from its first byte
    on to _rest."""
    header = fh.readline()
    if not header.endswith(b"\n") or b"\r" in header:  # text mode also ends a line at \r
        return None
    try:
        fields = header.decode("utf-8").strip().split(",")
    except UnicodeDecodeError:
        return None
    columns = len(fields)
    size = os.fstat(fh.fileno()).st_size - len(header)
    cap = max(min(columns * _BLOCK_ROWS, _BLOCK_CELLS) * _CELL_BYTES[0], columns * _CELL_BYTES[1])
    cap = min(cap, size + 1)  # a small file's buffer: the whole body, and room to see its end
    buf = np.empty(-(-(_PAD + cap + 16) // 8) * 8, np.uint8)
    buf[:_PAD] = ord("\n")
    data = np.empty((size // (columns * _CELL_BYTES[0]), columns))  # room for every row
    rows = kept = 0
    at = len(header)  # the file offset of buf[_PAD]
    digits = None
    while got := fh.readinto(memoryview(buf)[_PAD + kept : _PAD + cap]):
        stop = cut = _PAD + kept + got
        if stop == _PAD + cap:  # more may follow: the block ends after the last newline
            end = max(_PAD, stop - columns * _CELL_BYTES[1])  # a whole row lies after it
            newlines = np.flatnonzero(buf[end:stop] == ord("\n"))
            cut = end + int(newlines[-1]) + 1 if newlines.size else _PAD
        block = _values(buf, _PAD, cut, columns)
        if block is None or digits not in (None, block[1]):
            break
        values, digits = block[0].reshape(-1, columns), block[1]
        if rows + len(values) > len(data):  # more rows than the file's size allowed
            break
        data[rows : rows + len(values)] = values
        rows += len(values)
        at += cut - _PAD
        kept = stop - cut
        buf[_PAD : _PAD + kept] = buf[cut:stop]
    else:
        if not kept and rows:  # a final newline, and data
            data.resize((rows, columns), refcheck=False)  # in place: no view of data exists
            return fields, data
    return _rest(fh, at, fields, data[:rows]) if rows else None


def _rest(fh, at: int, fields: list, head: np.ndarray):
    """_stream's data when it refuses a block after others have parsed: head,
    the rows before that block, then np.loadtxt of the file from the block's
    first byte, at, on.  None when np.loadtxt refuses that rest or finds rows
    of another width: read_csv then reads the whole file, so that the error
    and its row numbers are the whole file's."""
    fh.seek(at)
    text = io.TextIOWrapper(fh, encoding="utf-8")  # decoded as read_csv's text mode does
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            rest = np.loadtxt(text, delimiter=",", ndmin=2)
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    finally:
        text.detach()  # fh stays open for read_csv to close
    if rest.size and rest.shape[1] != len(fields):
        return None
    return fields, np.concatenate([head, rest.reshape(-1, len(fields))])


def read_csv(path, kind: str):
    """Read a CSV written by write_csv: its header fields and its (rows,
    columns) data.  A non-numeric cell, a row of the wrong length and
    non-UTF-8 text raise GridError; a missing file raises OSError.

    A file in write_csv's own layout, a header line and rows of cells that
    _values reads, streams through _values block by block; any other file
    (hand-written cells, CRLF, # comments, blank lines, nan or inf, no
    final newline, non-UTF-8 bytes) goes to np.loadtxt: from the first
    block _values refuses on, or whole when that is the first block or
    np.loadtxt refuses the rest.  Either way the data are np.loadtxt's bit
    for bit, and every error is its, read from the whole file."""
    with open(path, "rb") as fh:
        read = _stream(fh)
    if read is not None:
        return read
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fields = fh.readline().strip().split(",")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise GridError(f"malformed {kind} CSV: {exc}") from exc
    if data.size and data.shape[1] != len(fields):
        raise GridError(f"{kind} CSV rows have {data.shape[1]} cells, header has {len(fields)}")
    return fields, data.reshape(-1, len(fields))


def sidecar(path) -> str:
    """The path <path>.meta.json of the JSON sidecar of a snapshot at path."""
    return str(path) + ".meta.json"


def write_grid(grid: Grid, path) -> None:
    """A grid's lattice and values at 17 significant digits, with an indented
    JSON sidecar, <path>.meta.json, of its _SCALARS fields in declaration
    order, then its _SIZES."""
    meta = {name: getattr(grid, name) for name in grid._SCALARS}
    meta.update(zip(grid._SIZES, grid.values.shape))
    write_csv(path, grid._HEADER, [grid.axis(k) for k in range(grid.values.ndim)], grid.values, 17)
    with open(sidecar(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


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

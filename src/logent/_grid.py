"""Validation, invariants and CSV I/O shared by vectors, lines and phase space.

A signed vector, a line density and a Wigner function hold a normalized
state on a lattice: the quadrature sum(values) * cell is one, the
information is I = h * sum(values^2) * cell and the entropy is S = 1 - I,
where the cell is the product of the spacings (none for a vector, whose
h = 1).  write_csv writes every CSV file: a row per lattice point, its
coordinates, then its values (a run's series: the lattice of its times).
write_grid and read_grid keep a grid's snapshot with a JSON sidecar of its
scalars and sizes, the only sidecar, at sidecar(path); the reader checks the
header and the coordinates against that lattice.

The time-stepped engines (dynamics, the timestepped density oracle and the
phase-space split step) share one step rule, steps: a span t is cut into
n = ceil(|t| / dt) equal steps, at most MAX_STEPS, and the default dt
advances the fastest phase by a fixed angle per step (one step when that
rate is zero).  The angle is DEFAULT_STEP_ANGLE = 0.1 rad for the Cayley
steps; the split step asks for pi per substep of its fourth-order
composition.  The two matrix engines also share the Cayley propagator,
cayley_power, the n-th power of one implicit-midpoint step.  Every engine
reports a sampled run as one RunRecord.  Arguments are checked by four
functions that raise the error class their caller names: finite (a real
scalar), positive (one above zero), count (an integer, not a bool, within
given bounds; a size is at most MAX_POINTS) and real_array (a new read-only
array of finite reals).
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, NormalizationError

QUAD_TOL = 1e-9
ADMISSIBLE_TOL = 1e-9
WRAP_TOL = 1e-10
DEFAULT_STEP_ANGLE = 0.1  # max phase advance per step with the default dt
_WRAP_SIGMAS = math.sqrt(-2.0 * math.log(WRAP_TOL))  # sigmas out, a Gaussian is WRAP_TOL high
# cayley_power costs log2(n) products, but its round-off grows as n eps: |I - I0| of cyclic3
# at 0.1 rad per step is 8e-11 at 10^7 steps and 8e-9 at 10^9, against the fd gate of 1e-10
MAX_STEPS = 10**7  # bounds every run's loop, every run's samples and cayley_power's round-off
# a size up to 2**53 converts to float exactly, so n - 1, 1 / n and length / n see the true
# size; an array of more float64 points (64 PiB) outgrows any address space
MAX_POINTS = 2**53  # bounds every size argument: a grid axis, a vector's n, n^2 for n x n

_BLOCK_ROWS = 4096  # CSV rows formatted per write: bounds the text held in memory


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
    t: float, dt: float | None = None, rate: float = 0.0, angle: float = DEFAULT_STEP_ANGLE
) -> tuple[int, float]:
    """Cut the time span t into n = ceil(|t| / dt) equal steps (none for
    t = 0); returns (n, t / n).

    The default dt advances the fastest phase, of angular rate `rate`, by
    `angle`; a zero rate takes one step.  DomainError unless t and dt are
    finite real numbers and dt is positive and large enough for
    n <= MAX_STEPS.
    """
    t = finite(t, "t")
    if dt is None:
        dt = angle / rate if rate > 0.0 else abs(t) or 1.0
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
    the propagator conserves the norm for any step; n = 0 gives the identity.
    """
    eye = np.eye(a.shape[0])
    half = (step / 2.0) * a
    return np.linalg.matrix_power(np.linalg.solve(eye - half, eye + half), n)


def int_power(x: np.ndarray, r: int) -> np.ndarray:
    """x ** r for an integer r >= 0 by repeated squaring: log2(r) squares and
    one product per binary digit of r.  An array ** r with r > 2 calls libm
    pow per element instead: x^4 at 128 x 128 points takes 1.2 ms, against
    40 us here.  The result is pow's wherever the products are exact, as at
    dyadic points of a small grid; elsewhere it is within 2 ulp of pow for
    r <= 4."""
    power, square = np.ones_like(x), x
    for k in range(r.bit_length()):  # the binary digits of r, lowest first
        if k:
            square = square * square
        if r >> k & 1:
            power = power * square
    return power


def write_csv(path, header: str, axes, values, digits: int) -> None:
    """Write a header line, then a CSV row per lattice point at `digits`
    significant digits: its coordinates (the first axis slowest), then its
    values.  values has the lattice's shape, plus a trailing axis if points
    have several.  Each coordinate is formatted once per line of the last
    axis (256 conversions for a 128 x 128 lattice, not 32,768), and at most
    _BLOCK_ROWS rows are formatted per write."""
    cell = f"%.{digits - 1}e"
    *outer, last = [np.asarray(a).tolist() for a in axes]
    width = math.prod(np.shape(values)[len(axes) :])  # values per point
    lines = np.reshape(values, (math.prod(map(len, outer)), len(last), width))
    row = ",".join([cell] * width) + "\n"
    starts = range(0, len(last), _BLOCK_ROWS)
    # each block's rows after their outer coordinates, with placeholders for the values
    tails = ([f"{cell % v},{row}" for v in last[s : s + _BLOCK_ROWS]] for s in starts)
    blocks = list(tails) if outer else tails  # a series: block by block, as written
    texts = itertools.product(*[[cell % v for v in a] for a in outer])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line, coords in zip(lines, texts):
            prefix = "".join(c + "," for c in coords)
            for start, block in zip(starts, blocks):
                cells = line[start : start + _BLOCK_ROWS].ravel().tolist()
                fh.write((prefix + prefix.join(block)) % tuple(cells))


def read_csv(path, kind: str):
    """Read a CSV written by write_csv: its header fields and its (rows,
    columns) data.  A non-numeric cell, a row of the wrong length and
    non-UTF-8 text raise GridError; a missing file raises OSError."""
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
    lattice = np.meshgrid(*[grid.axis(k) for k in range(grid.values.ndim)], indexing="ij")
    if not all(np.array_equal(data[:, k], c.ravel()) for k, c in enumerate(lattice)):
        raise GridError(f"{kind} CSV coordinates are not the sidecar's lattice")
    return grid

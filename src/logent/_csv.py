"""The exact CSV codec.  write_csv writes every CSV file: a row per lattice
point, its coordinates, then its values (a run's series: the lattice of its
times), each cell exactly "%.{digits-1}e" % v.  _cells formats whole arrays
at once, with a double-double product and a table of digit groups, and hands
the rare values it cannot settle (near-ties, the far ends of the float
range, non-finite values) to % itself.  read_csv reads every CSV file back,
bit for bit as np.loadtxt would: _values, the inverse of _cells, parses a
body in write_csv's own layout block by block, eight digits per uint64 word
and the same double-double product, and hands its near-ties and far
exponents to float(); np.loadtxt reads any other file whole.  create opens
every output file, CSV and sidecar: it replaces a writable regular file that
only this process's user and group hold by a new one, so a reader that has
the old file open keeps its bytes and the file system is not asked to flush
a truncated file's data on close, and it opens any other path in place.
"""
from __future__ import annotations

import functools
import io
import math
import os
import stat
import warnings

import numpy as np

from .errors import GridError

_BLOCK_ROWS = 2048  # CSV rows formatted per write or read: bounds the cells and text held in memory
_BLOCK_CELLS = 2 * _BLOCK_ROWS  # and cells per read: a block of wide rows stays as small
# bytes of write_csv's narrowest and widest cells with their separators: D.14 digits e+DD,
# and -D.16 digits e+DDD,
_CELL_BYTES = (21, 25)
_PAD = 32  # newlines before each block that read_csv reads: room for _values' first words
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
        off[i] = (n[i] < low) | (n[i] >= high)  # still outside the digit range
    zero = v == 0.0
    blank = ~fast | off.astype(bool) | (np.abs(rest - 0.5) <= _TIE_MARGIN)  # zeros, and cells for %
    n += rest > 0.5
    up = n == high
    n[up] = low
    k += up
    n[blank] = 0
    k[blank] = 0
    count = (digits + 3) // 4
    quads = np.empty((v.size, count), np.uint32)
    for j in range(count - 1, -1, -1):  # n in base 10,000, the last word first
        top = n // 10_000
        quads[:, j] = words.take(n - 10_000 * top)
        n = top
    text = quads.view(np.uint8)[:, 4 * count - digits :]  # the digits of n, zero-padded
    cells = np.empty((v.size, digits + 7), np.uint8)
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=cells[:, 0])
    cells[:, 1] = text[:, 0]
    cells[:, 2] = ord(".")
    _bytes(cells[:, 3 : digits + 2])[:] = _bytes(text[:, 1:])
    _bytes(cells[:, digits + 2 :])[:] = _bytes(exponents).take(k - _EXP_FROM)
    slow = blank ^ zero
    if slow.any():
        cells[slow] = _percent(v[slow], digits)
    return cells


def _bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of a uint8 array whose last axis is contiguous as one item
    of a void dtype: copied and gathered as one memcpy a row, not byte by
    byte."""
    return rows.view(f"V{rows.shape[-1]}")[..., 0]


def _percent(values: np.ndarray, digits: int) -> np.ndarray:
    """_cells's rows for a float array by Python's % itself, one value at a
    time: the fallback, for values _cells does not settle."""
    texts = [(f"%.{digits - 1}e" % v).encode() for v in values.tolist()]
    return np.array(texts, f"S{digits + 7}").view(np.uint8).reshape(-1, digits + 7)  # NUL-padded


def create(path):
    """A file at path opened for writing bytes, empty.  A regular file there
    with one link and its owner's write bit, owned by the process's
    effective uid and gid, is unlinked and made again with its permission
    bits: a reader holding it open still reads its old bytes, and ext4
    starts no writeback on close, as it does for a file truncated to zero.
    Any other path (none yet, a symlink, a second hard link, a FIFO or
    device, another owner, a read-only file, an unlink refused, no
    os.geteuid) is opened by open(path, "wb"): written through, in place,
    or refused as that refuses it.  An interrupted write leaves a short
    file either way."""
    try:
        st = os.lstat(path)
        mine = (
            stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_mode & stat.S_IWUSR
            and hasattr(os, "geteuid") and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        )
        if mine:
            os.unlink(path)
    except OSError:  # no file yet, or an unlink refused
        mine = False
    if not mine:
        return open(path, "wb")
    mode = stat.S_IMODE(st.st_mode)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode & 0o777)  # no looser than mode
    try:
        os.fchmod(fd, mode)  # the bits the umask took, and set-id and sticky bits
        return open(fd, "wb")
    except BaseException:
        os.close(fd)
        raise


def write_csv(path, header: str, axes, values, digits: int) -> None:
    """Write a header line, then a CSV row per lattice point at `digits`
    significant digits, each cell exactly "%.{digits-1}e" % v: its
    coordinates (the first axis slowest), then its values.  values has the
    lattice's shape, plus a trailing axis if points have several.  Cells
    are formatted on whole arrays by _cells, each axis's coordinates once:
    one _cells call formats the coordinates with the first block of at most
    _BLOCK_ROWS rows, and one more each block after it, so a file of one
    block pays _cells' fixed cost once.  Each block is gathered into one
    uint8 matrix of cells, commas and a newline, stripped of its NUL padding
    and written as bytes.  The file is opened by create: an existing file
    is replaced, or written through, as it says."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    shape = tuple(a.size for a in axes)
    width = math.prod(np.shape(values)[len(axes) :])  # values per point
    values = np.reshape(values, (math.prod(shape), width))
    cells = _cells(np.concatenate([*axes, values[:_BLOCK_ROWS]], axis=None), digits)
    coords = []  # each axis's cells, split off the first block's
    for n in shape:
        coords.append(cells[:n])
        cells = cells[n:]
    size = digits + 7  # bytes per cell, padding included
    with create(path) as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, values.shape[0], _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            if start:
                cells = _cells(block, digits)
            rows = np.empty((block.shape[0], len(axes) + width, size + 1), np.uint8)
            index = np.unravel_index(np.arange(start, start + block.shape[0]), shape)
            for k, (axis_cells, i) in enumerate(zip(coords, index)):
                _bytes(rows[:, k, :size])[:] = _bytes(axis_cells).take(i)
            _bytes(rows[:, len(axes) :, :size])[:] = _bytes(cells).reshape(block.shape[0], width)
            rows[:, :, size] = ord(",")
            rows[:, -1, size] = ord("\n")
            fh.write(rows.tobytes().replace(b"\0", b""))


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
    np.negative(r, out=r, where=neg)  # r >= +0.0: its sign bit set
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
    whole body); the rest of a row is carried to the next block.  The first
    block _values refuses, or whose digit count differs from the first
    block's, ends the read with None, whatever blocks parsed before it, as
    does a body with no rows or no final newline."""
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
    digits = None
    while got := fh.readinto(memoryview(buf)[_PAD + kept : _PAD + cap]):
        stop = cut = _PAD + kept + got
        if stop == _PAD + cap:  # more may follow: the block ends after the last newline
            end = max(_PAD, stop - columns * _CELL_BYTES[1])  # a whole row lies after it
            newlines = np.flatnonzero(buf[end:stop] == ord("\n"))
            cut = end + int(newlines[-1]) + 1 if newlines.size else _PAD
        block = _values(buf, _PAD, cut, columns)
        if block is None or digits not in (None, block[1]):
            return None
        values, digits = block[0].reshape(-1, columns), block[1]
        if rows + len(values) > len(data):  # more rows than the file's size allowed
            return None
        data[rows : rows + len(values)] = values
        rows += len(values)
        kept = stop - cut
        buf[_PAD : _PAD + kept] = buf[cut:stop]
    if kept or not rows:  # no final newline, or no data
        return None
    data.resize((rows, columns), refcheck=False)  # in place: no view of data exists
    return fields, data


def _loadtxt(fh, kind: str) -> tuple:
    """np.loadtxt of the whole of fh, a binary file, decoded as in UTF-8
    text mode: (fields, data), fields the header line's.  GridError, naming
    kind, for text it refuses or rows not len(fields) wide."""
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        fields = text.readline().strip().split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            data = np.loadtxt(text, delimiter=",", ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise GridError(f"malformed {kind} CSV: {exc}") from exc
    finally:
        text.detach()  # fh stays open for read_csv to close
    if data.size and data.shape[1] != len(fields):
        raise GridError(f"{kind} CSV rows have {data.shape[1]} cells, header has {len(fields)}")
    return fields, data.reshape(-1, len(fields))


def read_csv(path, kind: str):
    """Read a CSV written by write_csv: its header fields and its (rows,
    columns) data, np.loadtxt's bit for bit.  A non-numeric cell, a row of
    the wrong length and non-UTF-8 text raise GridError, np.loadtxt's error
    read from the whole file; a missing file raises OSError.  _stream reads
    write_csv's own layout, and _loadtxt reads any other file whole
    (hand-written cells, CRLF, # comments, blank lines, nan or inf, no
    final newline, mixed digit counts, non-UTF-8 bytes), from the one open
    handle."""
    with open(path, "rb") as fh:
        return _stream(fh) or _loadtxt(fh, kind)

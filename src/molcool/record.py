"""The cycle record: 12-digit quantization and the CSV file.

A `TimeSeriesRecord` is immutable.  Its construction rounds every value
to the 12 significant digits the CSV prints and keeps the decimal
digits that rounding computed, all in one row-major layout with one row
per sample as in the CSV, so `emit_csv` builds each cell from them by
four stores of overlapping 8- and 4-byte words looked up in tables, and
no value's digits are worked out twice.  `read_csv_record` reads such a
file back.

The fast path and its slow cases, timed in-process on one block of
2,048 rows by 5 columns (best of 7, numpy 2.4.6, 2-vCPU VM):

- `_decimal12` places a value by one exact product with a power of ten,
  about 8 ns a value (83 us a block).  A mantissa that rounds up to
  10**12, as a held T_ratio cell within 5e-13 of 1 does, stays on it:
  the slow-path listing below counts 2 to 6 values at each reference g.
- A value the product cannot place goes to `_printed_digits`, one
  "%.11e" round trip of about 1 us: zero, |x| < 1e-11 (corpus run 29
  sends 4,415 mean_n values near 2e-12 there), |x| >= 1e12, a product
  exactly on a half, and a power of ten rounded across |x|.  The
  slow-path listing of `tests/corpus_digest.py` counts these values for
  every answered corpus run and for the reference point at g = 1 to 300.
- `_format_cells` fills an unsigned block from the tables in about
  107 us.  A block whose negative cells are a leading run of its first
  column, as a finite-dwell record's negative s are, copies those rows to
  put a "-" before each: about 132 us.
- A block holding a three-digit exponent (|x| < 1e-99 or >= 1e100), or
  any other sign pattern, is printed value by value with "%.11e": about
  5.6 ms.  No listing counts these blocks, and none of the 45 answered
  corpus runs writes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import EtaTrajectory
from .thermo import GROUND_STATE_EPS

CSV_HEADER = "s,omega_over_omega1,eta,mean_n,T_ratio"


def _fmt(value: float) -> str:
    return f"{value:.11e}"


_POW10 = np.array([float(10**k) for k in range(23)])  # every one an exact double
_BLOCK_ROWS = 2048  # record rows per `_decimal12` call and per CSV block; bounds temporaries


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# floor(log10 2**n), n = b - 1023, for each biased exponent b: for no
# 0 < |n| <= 1074 is n log10 2 within 4.5e-4 of an integer, so the floor
# of its double product is the exact one
_BINADE_LOG10 = _read_only(np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.int16))
# the power of ten that may lie inside binade b (inf at b = 2047, which no finite value has)
with np.errstate(over="ignore"):
    _TEN_ABOVE = _read_only(10.0 ** (_BINADE_LOG10 + 1.0))
_k = np.clip(11 - (_BINADE_LOG10[:, None] + np.arange(2)), 0, 22).reshape(-1)
_SCALE = _read_only(_POW10[_k])  # 10**k at 2 b + c, c = 1 for |x| at or above _TEN_ABOVE[b]
_EXPONENT = _read_only((11 - _k).astype(np.int16))  # 11 - k, the exponent printed with it
del _k


def _decimal12(v: np.ndarray, out=None):
    """(q, d, e): q = float("%.11e" % x) for each x in the finite array v,
    of any shape, with the mantissa d (int64) and exponent e (int16) of
    `"%.11e" % abs(x)`, which prints as d's 12 digits with a point after
    the first, then e.  Written into `out` = (q, d, e) when given, whose q
    may be v itself; new arrays otherwise.

    Fast path (Clinger's exact case): |x| is multiplied by the exact power
    p = 10**k, k = clip(11 - floor(log10|x|), 0, 22), and e = 11 - k.
    floor(log10|x|) is read from the biased exponent b of |x|: it is
    `_BINADE_LOG10[b]`, plus one where |x| is at or above `_TEN_ABOVE[b]`,
    the one power of ten that may lie inside that binade; p and e are
    looked up from that one compare in the 2 x 2,048-entry `_SCALE` and
    `_EXPONENT`.  The product is correctly rounded, every half-integer
    below 10**12 is a double and rounding is monotone, so a product not on
    a half lies on the exact one's side of every half.  Where it lies in
    [10**11, 10**12) and not on a half, its rint r is the printed mantissa
    whatever k was picked; r / p, both operands exact, is |q|.  A product
    that rounds up to r = 10**12 prints as 1.00000000000 at the next
    exponent, so d = 10**11 and e + 1 there, and r / p is |q| as before.
    The clip puts zero, |x| < 1e-11 and |x| >= 1e12 outside that range.
    Those elements, a k one off (a power of ten rounded across |x|) and
    the products on a half go through `_printed_digits` (zero gives
    d = e = 0).
    Only a block that holds a sign bit has its signs copied back.
    """
    if out is None:
        out = (np.empty(v.shape), np.empty(v.shape, np.int64), np.empty(v.shape, np.int16))
    q, d, e = out
    a = np.abs(v)
    index = a.view(np.int64) >> 52  # b, then 2 b + c
    p = _TEN_ABOVE.take(index)
    index += index
    np.add(index, 1, out=index, where=a >= p)
    # every index is in range; mode "clip" writes into out unbuffered
    _EXPONENT.take(index, out=e, mode="clip")
    p = _SCALE.take(index, out=p, mode="clip")
    scaled = np.multiply(a, p, out=a)
    r = np.rint(scaled)
    frac = np.subtract(scaled, r)
    slow = np.abs(frac, out=frac) == 0.5
    slow |= scaled < 1e11
    slow |= scaled >= 1e12
    slow = slow.ravel().nonzero()[0]
    # read from v before q, which may be v, is written
    printed = [_printed_digits(abs(x)) for x in v.flat[slow].tolist()]
    signed = np.signbit(v).any()
    # what these leave in the elements off the fast path is overwritten below
    abs_q = np.divide(r, p, out=scaled if signed else q)
    r.flat[slow] = 0.0
    # a mantissa that rounds up to 10**12 prints as 1.00000000000 at the next exponent
    up = r == 1e12
    np.copyto(r, 1e11, where=up)
    e += up
    np.copyto(d, r, casting="unsafe")
    for i, (value, mantissa, exponent) in zip(slow.tolist(), printed):
        abs_q.flat[i], d.flat[i], e.flat[i] = value, mantissa, exponent
    if signed:
        np.copysign(abs_q, v, out=q)
    return q, d, e


def _printed_digits(x: float) -> tuple[float, int, int]:
    """(float(text), mantissa, exponent) of text = "%.11e" % x, x >= 0:
    `_decimal12`'s path for the values its product cannot place."""
    text = "%.11e" % x
    return float(text), int(text[0] + text[2:13]), int(text[14:])


_COLUMNS = CSV_HEADER.split(",")
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\r\n")))  # deleted, a row leaves _ROW_ENDS
_ROW_ENDS = b"," * (len(_COLUMNS) - 1) + b"\n"


@dataclass(frozen=True, eq=False)
class TimeSeriesRecord:
    """Sampled cycle output, one row per sample, stored pre-rounded to the
    12 significant digits that the CSV emitter writes.

    A record is immutable: its fields cannot be reassigned and its
    column arrays are read-only.  `_quantized` = (q, d, e) holds, in one
    row-major (samples, 5) layout as in the CSV, the values q, each
    column stored into q in place and rounded there by `_decimal12`,
    `_BLOCK_ROWS` rows per call, and the
    mantissas d and exponents e that print them, written there too (e
    looked up from each value's binary exponent and one compare), from
    which `emit_csv` formats the cells one contiguous row block at a
    time, four overlapping-word stores per cell (`_format_cells`).
    Each column is a view of q.  The sample times must increase strictly
    as printed: each rounded s is compared with the one before it.
    """

    s: np.ndarray
    omega_over_omega1: np.ndarray
    eta: np.ndarray
    mean_n: np.ndarray
    T_ratio: np.ndarray
    _quantized: tuple = field(init=False, repr=False)

    def __post_init__(self):
        cols = [np.asarray(getattr(self, name), dtype=float).reshape(-1) for name in _COLUMNS]
        n = cols[0].size
        if any(c.size != n for c in cols):
            raise ValueError("record columns must have equal length")
        q = np.empty((n, len(cols)))
        for j, column in enumerate(cols):
            q[:, j] = column
        if not np.isfinite(q).all():
            raise ValueError("record values must all be finite")
        d = np.empty(q.shape, np.int64)
        e = np.empty(q.shape, np.int16)
        for lo in range(0, n, _BLOCK_ROWS):
            b = slice(lo, lo + _BLOCK_ROWS)
            _decimal12(q[b], out=(q[b], d[b], e[b]))
        for a in (q, d, e):
            a.flags.writeable = False
        for name, column in zip(_COLUMNS, q.T):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_quantized", (q, d, e))
        s = q[:, 0]
        if not (s[1:] > s[:-1]).all():
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.s.size)

    @classmethod
    def from_trajectory(cls, traj: EtaTrajectory, omega_over_omega1, theta0_r: float):
        """The record of `traj` under the schedule `omega_over_omega1` at
        theta0 * r = `theta0_r`: the one place mean_n and T_ratio are derived.
        A non-finite sample or one at or below the ground-state limit is named by its s;
        T_ratio is `thermo.ratio_from_eta`'s expression, without its second check."""
        ok = (traj.eta > 1.0 + GROUND_STATE_EPS) & (traj.eta < math.inf)
        if not ok.all():
            i = int(np.argmin(ok))  # the first sample that fails
            eta = float(traj.eta[i])
            fault = f"at or below the ground-state limit 1 + {GROUND_STATE_EPS:g}"
            raise ValueError(f"eta = {eta!r} at s = {traj.s[i]:.6g} is "
                             + (fault if math.isfinite(eta) else "not finite"))
        ratio = theta0_r * omega_over_omega1 / -np.log1p(-1.0 / traj.eta)
        return cls(traj.s, omega_over_omega1, traj.eta, traj.eta - 1.0, ratio)


_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _digit_rows(places: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**places - 1, one row each, most
    significant first, built by repeating "0123456789" (a division loop's
    first call alone raised the process's peak RSS by ~0.3 MB)."""
    n = 10**places
    return np.stack(
        [np.tile(np.repeat(_DIGITS, n // 10 ** (j + 1)), 10**j) for j in range(places)], axis=1
    )


def _words(chars: np.ndarray) -> np.ndarray:
    """A read-only flat table of the last-axis rows of a uint8 array of 4
    or 8 columns, each row's bytes packed in memory order into one word."""
    return _read_only(np.ascontiguousarray(chars).view(f"u{chars.shape[-1]}").reshape(-1))


_quad = _digit_rows(4)
_QUAD = _words(_quad)  # "DDDD" at i: a mantissa's 5th to 8th or 9th to 12th digits
_head = np.zeros((10_000, 8), dtype=np.uint8)
_head[:, [0, 2, 3, 4]] = _quad
_head[:, 1] = ord(".")
_HEAD = _words(_head)  # "D.DDD" and 3 zero bytes at i: a mantissa's first four digits
_exponent = np.arange(-99, 100)
_chars = np.zeros((2, 199, 8), dtype=np.uint8)
_chars[..., 3] = ord("e")
_chars[..., 4] = np.where(_exponent < 0, ord("-"), ord("+"))
_chars[..., 5:7] = _digit_rows(2)[np.abs(_exponent)]
_chars[..., 7] = np.frombuffer(b",\n", np.uint8)[:, None]
_TAIL = _words(_chars)  # 3 zero bytes and "e±tu," at e + 99, "e±tu\n" at 199 + e + 99
del _quad, _head, _exponent, _chars

# one 18-byte cell "D.DDDDDDDDDDDe±tu,": fields that overlap, stored in
# this order, "mid" and "low" each over the zero bytes the store before left
_CELL = np.dtype({
    "names": ["head", "mid", "tail", "low"],
    "formats": ["u8", "u4", "u8", "u4"],
    "offsets": [0, 5, 10, 9],
    "itemsize": 18,
})


def _format_cells(q: np.ndarray, d: np.ndarray, e: np.ndarray):
    """CSV bytes of a (rows, columns) block of finite values q, given with
    their `_decimal12` mantissas d and exponents e: each cell is
    `"%.11e" % x`, cells joined by "," and rows ended by "\n".

    Each cell of |x| is one 18-byte `_CELL` record, filled by four stores
    of overlapping words: "D.DDD" from `_HEAD` at d // 10**8 (8 bytes at
    offset 0), the next four digits from `_QUAD` (at 5), "e", the
    exponent's sign, tens and units digits and the separator from `_TAIL`
    (8 bytes at 10), and the last four digits from `_QUAD` (at 9).  The
    second and fourth stores overwrite the three zero bytes the store
    before each left.  A block whose negative cells are the first column
    of its first rows, as a record's negative s are, is written as those
    rows, each behind one "-", then the rest.  A block with any other
    sign pattern, or holding a three-digit exponent (|x| < 1e-99 or
    >= 1e100), which the tables do not cover, is printed value by value
    with "%.11e".  The block comes back as a tuple of bytes-like parts: a
    view of its cells, uncopied, behind the "-"-prefixed rows when it has
    them, or the one bytes object printed value by value.
    """
    negative = np.signbit(q)
    signed = np.count_nonzero(negative)
    if np.abs(e).max(initial=0) >= 100 or not (signed <= len(q) and negative[:signed, 0].all()):
        return ("".join(",".join(map(_fmt, row)) + "\n" for row in q.tolist()).encode(),)
    cells = np.empty(q.shape, dtype=_CELL)
    upper = d // 10_000  # a floor division by a constant is far cheaper than divmod
    low = d - upper * 10_000
    head = upper // 10_000
    tail = e + 99
    tail[:, -1] += 199
    # every index is in range: each digit group is below 10**4, each tail below 398
    cells["head"] = _HEAD.take(head, mode="clip")
    cells["mid"] = _QUAD.take(upper - head * 10_000, mode="clip")
    cells["tail"] = _TAIL.take(tail, mode="clip")
    cells["low"] = _QUAD.take(low, mode="clip")
    if not signed:
        return (memoryview(cells.reshape(-1).view(np.uint8)),)
    # the negatives are the first column of the first rows, as a record's
    # negative s are: each such row is "-" and its cells
    rows = np.empty((signed, 1 + cells[0].nbytes), dtype=np.uint8)
    rows[:, 0] = ord("-")
    rows[:, 1:] = cells[:signed].view(np.uint8).reshape(signed, -1)
    return memoryview(rows.reshape(-1)), memoryview(cells[signed:].reshape(-1).view(np.uint8))


def emit_csv(record: TimeSeriesRecord, path) -> None:
    """Write the record as CSV: fixed header, 12-significant-digit scientific
    notation, LF line endings, byte-deterministic for equal records.

    Cells are exactly Python's `"%.11e" % x`, built by `_format_cells`
    in blocks of `_BLOCK_ROWS` rows from the digits the record kept
    when it was quantized; no value's digits are worked out again, and a
    block's bytes-like parts are written as they are, with no copy.
    """
    q, d, e = record._quantized
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for lo in range(0, len(record), _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                fh.writelines(_format_cells(q[block], d[block], e[block]))
    except OSError as exc:
        raise OSError(f"CSV emission to {path} failed: {exc}") from exc


def read_csv_record(path) -> TimeSeriesRecord:
    """Parse a file written by emit_csv back into a TimeSeriesRecord: in one pass
    over its bytes, or, where that fails, row by row, naming the line at fault.
    A record the values cannot make is refused with the file's name."""
    try:
        with open(path, "rb") as fh:
            head, _, body = fh.read().replace(b"\r\n", b"\n").partition(b"\n")
        n = body.count(b"\n")
        cells = None
        if head == CSV_HEADER.encode() and body.translate(None, _NOT_SEPARATORS) == _ROW_ENDS * n:
            try:  # np.fromstring parses each cell as float() does, with no object per cell
                cells = np.fromstring(body.replace(b"\n", b","), sep=",").reshape(n, len(_COLUMNS))
            except ValueError:
                pass  # a bad cell: the row loop names it
        if cells is None:
            import csv
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header != _COLUMNS:
                    raise ValueError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
                rows = []
                for lineno, row in enumerate(reader, start=2):
                    try:
                        if len(row) != len(_COLUMNS):
                            raise ValueError(f"expected {len(_COLUMNS)} columns")
                        rows.append([float(v) for v in row])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
            cells = np.array(rows, dtype=float).reshape(len(rows), len(_COLUMNS))
    except OSError as exc:
        raise OSError(f"CSV read from {path} failed: {exc}") from exc
    try:
        return TimeSeriesRecord(*cells.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

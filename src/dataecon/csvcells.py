"""CSV bytes a block at a time, shared by ``cli.write_csv`` and
``empirics.write_panel_csv``: rows of cells joined by commas and ended by
LF, a cell quoted (its quotes doubled) only when it holds a comma, a
quote, CR or LF (RFC 4180), and a row of one empty cell written as "" so
that it reads back as a row.  Floats, in CSV and JSON alike, take 17
significant digits, which round-trip float64 exactly.

A column of a block is formatted at once into a cell matrix: one row of
UTF-8 bytes per cell, its unused bytes _PAD, a byte UTF-8 never produces
(so a cell keeps its NULs).  ``_write_rows`` lays the block's matrices
side by side between separators and drops every _PAD in one pass.
"""

from __future__ import annotations

import numpy as np

_FLOAT_FORMAT = "%.17g"
_CSV_SPECIAL = (",", '"', "\n", "\r")
_PAD = 0xFF
# 10**s = _POW10[s] + _POW10_LO[s] exactly for s <= 45 (5**45 has 105 bits);
# _POW10_LO is 0 up to 10**22
_POW10 = np.array([float(10 ** s) for s in range(46)])
_POW10_LO = np.array([float(10 ** s - int(h)) for s, h in enumerate(_POW10.tolist())])
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter for float64
# Bytes of rows laid out at once.  A 200 x 200 sweep laid out in its
# 4,000-row blocks took 7,700 page faults; in slices of 256 KB, 820.
_ROWS_BYTES = 1 << 18
_GATHER_ROWS = 2048  # float cells gathered at once: 0.4 MB of byte indices
_CSV_CHUNK_ROWS = 4096  # rows per block of the panel and sweep CSV writers


def _byte_rows(items: list[bytes]) -> np.ndarray:
    """Byte strings as a cell matrix, each padded to the longest."""
    width, pad = max(map(len, items), default=0), bytes([_PAD])
    return np.frombuffer(b"".join(b.ljust(width, pad) for b in items),
                         np.uint8).reshape(len(items), width)


def _digit_tables():
    """The four-digit strings "0000".."9999" as words, the same with their
    leading zeros _PAD (0 all _PAD), and the count of each one's trailing
    zeros."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    zero = digits == ord("0")
    lead = np.logical_and.accumulate(zero, axis=1)
    trail = np.logical_and.accumulate(zero[:, ::-1], axis=1)
    return (digits.view(np.uint32).ravel(),
            np.where(lead, np.uint8(_PAD), digits).view(np.uint32).ravel(),
            np.count_nonzero(trail, axis=1))


def _cell_tables():
    """Where each byte of a float cell comes from in its row of
    ``_digit_words`` (digit k at byte 3 + k, then ``_CELL_CONSTANTS``), for
    every layout of ``"%.17g"``: one row per sign, E in -29..16 and place
    of the last nonzero digit, 24 bytes wide; and each layout's length."""
    digits = "ABCDEFGHIJKLMNOPQ"  # digit k as the k-th letter

    def layouts():
        for e in range(-29, 17):
            for last in range(17):
                if e >= 0:  # the point only before a nonzero fraction
                    yield digits[:e + 1] + ("." + digits[e + 1:last + 1] if last > e else "")
                elif e >= -4:
                    yield "0." + "0" * (-e - 1) + digits[:last + 1]
                else:  # exponent form, at least two exponent digits
                    yield digits[0] + ("." + digits[1:last + 1] if last else "") + "e-%02d" % -e

    source = bytes.maketrans(f"{digits}-.e 0123456789".encode(), bytes(range(3, 34)))
    unsigned = np.frombuffer("".join(t.ljust(23) for t in layouts()).encode().translate(source),
                             np.uint8).reshape(-1, 23)
    table = np.full((2, len(unsigned), 24), 23, np.uint8)  # byte 23 is _PAD
    table[0, :, :23] = unsigned
    table[1, :, 0] = 20  # "-"
    table[1, :, 1:] = unsigned
    table = table.reshape(-1, 24)
    return table, np.count_nonzero(table != 23, axis=1)


_DIGITS4, _DIGITS4_UNPADDED, _TRAILING_ZEROS4 = _digit_tables()
# bytes 20..35 of a row of _digit_words
_CELL_CONSTANTS = np.frombuffer(b"-.e\xff0123456789\xff\xff", np.uint32)
_CELL_SOURCE, _CELL_LENGTH = _cell_tables()
_INT_DECADES = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19


def _text_cells(cells: list[str]) -> np.ndarray:
    """String cells as CSV writes them, encoded and quoted once per distinct
    string."""
    index: dict[str, int] = {}
    codes = [index.setdefault(c, len(index)) for c in cells]
    table = _byte_rows([('"%s"' % c.replace('"', '""')
                         if any(ch in c for ch in _CSV_SPECIAL) else c).encode()
                        for c in index])
    return table[np.asarray(codes, dtype=np.intp)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in the 1-D array ``values``
    starts.  The kernels below format a run's value once: a sweep's r* is
    one number and its masked cells are runs of NaN and of one label."""
    change = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def _repeat_runs(cells: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """The cell matrix of n values from the cells of its runs' values."""
    return np.repeat(cells, np.diff(starts, append=n), axis=0)


def _run_cells(values: np.ndarray) -> np.ndarray:
    """``_text_cells`` of the str array ``values``, formatted once per run
    of equal neighbours."""
    starts = _run_starts(values)
    return _repeat_runs(_text_cells(values[starts].tolist()), starts, len(values))


def _groups(mag: np.ndarray) -> list[np.ndarray]:
    """The five four-digit groups of each non-negative integer in ``mag``
    (int64 or uint64), most significant first."""
    groups, rest = [], mag
    for _ in range(4):
        top = rest // 10 ** 4
        groups.insert(0, rest - top * 10 ** 4)
        rest = top
    return [rest, *groups]


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``str(v)`` for each value of the integer array ``x`` (-2**63 and
    2**64 - 1 included), right-aligned in a matrix as wide as its longest
    cell: the groups before the first nonzero one _PAD, that one without
    its zeros, and a minus sign just before it.  A run of equal values is
    formatted once."""
    starts = _run_starts(x)
    if len(starts) < len(x):
        return _repeat_runs(_int_cells(x[starts]), starts, len(x))
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |x| in two's complement, -2**63 too
    words = np.empty((len(x), 5), np.uint32)
    started = np.zeros(len(x), bool)
    for j, group in enumerate(_groups(mag)):
        words[:, j] = np.where(started, _DIGITS4[group], _DIGITS4_UNPADDED[group])
        started |= group != 0
    cells = words.view(np.uint8)
    cells[~started, -1] = ord("0")
    negs = np.flatnonzero(neg)  # at most 19 digits, so the sign fits
    cells[negs, 18 - np.searchsorted(_INT_DECADES, mag[negs], side="right")] = ord("-")
    width = max(len(str(x.min())), len(str(x.max()))) if len(x) else 0
    return cells[:, 20 - width:]


def _split(a: np.ndarray):
    """a = hi + lo, each with at most 26 significant bits (Veltkamp)."""
    hi = _SPLIT * a
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


def _two_product(a: np.ndarray, b: np.ndarray):
    """fl(a * b) and its exact error a * b - fl(a * b) (Dekker 1971):
    ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, summed in place."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    err = a_hi * b_hi
    err -= p
    a_hi *= b_lo
    err += a_hi
    b_hi *= a_lo
    err += b_hi
    a_lo *= b_lo
    err += a_lo
    return p, err


def _two_sum(a: np.ndarray, b: np.ndarray):
    """fl(a + b) and its exact error (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _sign_of_sum(terms: list[np.ndarray]) -> np.ndarray:
    """The sign of the exact sum of the float arrays ``terms``: they are
    grown into a nonoverlapping expansion (Shewchuk 1997), whose largest
    nonzero part has the sign of the whole."""
    parts = terms[:1]
    for b in terms[1:]:
        grown = []
        for part in parts:  # in increasing magnitude
            b, err = _two_sum(b, part)
            grown.append(err)
        parts = [*grown, b]
    sign = np.zeros(len(terms[0]))
    for part in parts:
        sign = np.where(part != 0, np.sign(part), sign)
    return sign


def _decade_offset(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 (int8) as the exact p + err (p its rounding) lies below,
    in or above [1e16, 1e17)."""
    off = (p >= 1e17).view(np.int8) - (p < 1e16).view(np.int8)
    edge = np.flatnonzero((p == 1e16) | (p == 1e17))
    off[edge] -= (err[edge] < 0).view(np.int8)
    return off


def _round_scaled(a: np.ndarray, s: np.ndarray):
    """D = a 10**s rounded half to even, for 0 <= s <= 45, and
    ``_decade_offset`` of the exact a 10**s.

    Up to s = 22, 10**s is a double and a 10**s = p + err by one
    two-product.  Above, 10**s = _POW10[s] + _POW10_LO[s], and a second
    two-product makes a 10**s the exact sum of four doubles p + err + q +
    q_err.  The double sum of the last three places the exact a 10**s
    against the decade edges and the nearest tie, and exact signs of sums
    (``_sign_of_sum``) do so where it lies within 2**-40 of one."""
    p, err = _two_product(a, _POW10[s])
    off = _decade_offset(p, err)
    low = np.flatnonzero(s > 22)
    if low.size:
        q, q_err = _two_product(a[low], _POW10_LO[s[low]])
        p_low, tail = p[low], [err[low], q, q_err]
        rest = (err[low] + q) + q_err  # within 2**-44 of the exact tail
        # where the tail lies against the decade edges and the half-integer
        # above its floor f: the double sum tells, but exact signs decide
        # where it lies within 2**-40 of one
        edges = [1e16 - p_low, 1e17 - p_low, np.floor(rest) + 0.5]
        sides = [np.sign(rest - edge) for edge in edges]
        near = np.flatnonzero(np.min([abs(rest - edge) for edge in edges], axis=0) < 2.0 ** -40)
        if near.size:
            for side, edge in zip(sides, edges):
                side[near] = _sign_of_sum([t[near] for t in tail] + [-edge[near]])
        off[low] = (sides[1] >= 0).view(np.int8) - (sides[0] < 0).view(np.int8)
        # the tail rounds as f + 1/2 + 1/4 times its side of f + 1/2: on a
        # tie, rint goes to the even D
        err[low] = edges[2] + 0.25 * sides[2]
    # p is an even integer (>= 2**53): rint's ties to even are D's
    return p.astype(np.int64) + np.rint(err).astype(np.int64), off


def _significand(a: np.ndarray):
    """E = floor(log10 a) and the 17 significant digits D = a 10**(16 - E),
    rounded half to even, of each finite ``a`` in [10**-29, 1e17), exactly:
    E from ``np.log10``, corrected once from the decade of the product,
    and D by ``_round_scaled``.  Also which values these are; the others
    are computed as 1.0."""
    fast = (a > 1e-29) & (a < 1e17)  # the double 1e-29 lies below 10**-29
    a = np.where(fast, a, 1.0)
    e10 = np.log10(a)
    e10 = np.clip(np.floor(e10, out=e10), -29, 16, out=e10).astype(np.int64)
    d, off = _round_scaled(a, 16 - e10)
    fix = np.flatnonzero(off)
    if fix.size:  # log10 rounded across a power of ten
        e10[fix] += off[fix]
        d[fix], off[fix] = _round_scaled(a[fix], 16 - e10[fix])
        fast[fix] &= off[fix] == 0
    top = np.flatnonzero(d == 10 ** 17)
    d[top] = 10 ** 16
    e10[top] += 1
    return d, e10, fast


def _digit_words(d: np.ndarray):
    """Rows of nine words: the 17 digits of each D in ``d`` at bytes 3..19
    (three leading zeros first), then ``_CELL_CONSTANTS``; and the place of
    each D's last nonzero digit.  The four-digit groups are split off from
    the least significant one, so one group is held at a time."""
    words = np.empty((len(d), 9), np.uint32)
    for j, word in enumerate(_CELL_CONSTANTS.tolist(), start=5):
        words[:, j] = word
    rest = d
    for j in range(4, 0, -1):
        top = rest // 10 ** 4
        group = rest - top * 10 ** 4
        words[:, j] = _DIGITS4[group]
        if j == 4:
            last = 16 - _TRAILING_ZEROS4[group]
        else:  # where the groups after group j are zeros
            zeros = np.flatnonzero(last == 4 * j)
            last[zeros] -= _TRAILING_ZEROS4[group[zeros]]
        rest = top
    words[:, 0] = _DIGITS4[rest]  # the leading digit, never 0
    return words, last


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each value of the float array ``x``, and an
    empty cell for NaN, in a matrix as wide as its longest cell.

    A finite |v| in [10**-29, 1e17) takes its 17 significant digits at once
    (``_significand``; README, "Numerical notes"), and its cell is gathered
    from them by the ``_CELL_SOURCE`` row of its layout: fixed notation for
    E >= -4, else exponent form, trailing zeros of the fraction dropped, and
    the point with them.  Every other value goes through ``%`` one by one.
    A run of values with equal bits is formatted once.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    starts = _run_starts(x.view(np.uint64))  # equal bits, equal cells
    if len(starts) < len(x):
        return _repeat_runs(_float_cells(x[starts]), starts, len(x))
    d, code, fast = _significand(np.abs(x))
    words, last = _digit_words(d)
    del d
    code += 29  # the _CELL_SOURCE row: ((x < 0) * 46 + E + 29) * 17 + last
    np.add(code, 46, out=code, where=x < 0)
    code *= 17
    code += last
    del last
    isnan = np.isnan(x)
    slow = np.flatnonzero(~(fast | isnan))  # zeros, infinities, the rest
    text = _byte_rows([(_FLOAT_FORMAT % v).encode() for v in x[slow].tolist()])
    width = np.max(_CELL_LENGTH[code], where=fast, initial=0)
    cells = np.empty((len(x), width), np.uint8)
    for i in range(0, len(x), _GATHER_ROWS):  # indices of a few rows at a time
        rows = slice(i, i + _GATHER_ROWS)
        source = np.take(_CELL_SOURCE[:, :width], code[rows], axis=0).astype(np.int32)
        source += np.arange(0, words[rows].nbytes, 36, dtype=np.int32)[:, None]
        words[rows].view(np.uint8).ravel().take(source, out=cells[rows], mode="clip")
    if text.shape[1] > width:
        cells = np.pad(cells, ((0, 0), (0, text.shape[1] - width)), constant_values=_PAD)
    cells[isnan] = _PAD
    if slow.size:
        cells[slow] = _PAD
        cells[slow, :text.shape[1]] = text
    return cells


def _write_rows(fh, fields: list[np.ndarray]) -> None:
    """Write rows of the equally long cell matrices ``fields``, one per
    column, to the binary file ``fh``: the cells side by side between
    separators in a byte matrix of at most ``_ROWS_BYTES``, which drops
    its _PAD bytes in one pass and is written at once."""
    if not fields:
        return
    if len(fields) == 1:  # a row of one empty cell is written as ""
        quotes = np.where((fields[0] == _PAD).all(axis=1), ord('"'), _PAD).astype(np.uint8)
        fields = [np.column_stack([fields[0], quotes, quotes])]
    n = min(map(len, fields))
    width = sum(f.shape[1] + 1 for f in fields)
    step = max(1, _ROWS_BYTES // width)
    for start in range(0, n, step):
        rows = np.empty((min(step, n - start), width), np.uint8)
        end = 0
        for f in fields:
            rows[:, end:end + f.shape[1]] = f[start:start + step]
            end += f.shape[1] + 1
            rows[:, end - 1] = ord(",")
        rows[:, -1] = ord("\n")
        fh.write(rows.tobytes().translate(None, bytes([_PAD])))

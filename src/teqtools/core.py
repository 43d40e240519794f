"""Tournament data model: dominance relations, alternative sets, subtournaments.

Alternatives are integers 0..order-1. Sets of alternatives (``AltSet``) are
plain ints used as bit vectors, so all set algebra is single machine-word
arithmetic up to the order cap of 64.
"""

import struct
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from operator import itemgetter

MAX_ORDER = 64

AltSet = int

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FLIP = bytes.maketrans(b"01", b"10")


def altset(indices: Iterable[int]) -> AltSet:
    """Pack alternative indices into a bit-vector set."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def members(s: AltSet) -> list[int]:
    """Unpack a bit-vector set into a sorted list of indices."""
    return list(iter_members(s))


def iter_members(s: AltSet) -> Iterator[int]:
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def full_set(order: int) -> AltSet:
    return (1 << order) - 1


class FormatError(ValueError):
    """Tournament text does not conform to the file format."""


class DeadlineExceeded(Exception):
    """A computation ran past its deadline, a ``time.monotonic()`` cutoff."""


class _PairError(ValueError):
    """A pair that is oriented both ways or neither way; ``row`` is its larger index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class Tournament:
    """A complete asymmetric dominance relation on alternatives 0..order-1.

    ``beats[i]`` is the AltSet of alternatives that i dominates; ``dom_of[i]``
    is the AltSet of alternatives that dominate i. Every tournament, parsed or
    generated, is built here and passes one check. Instances are immutable,
    so they are safe to share freely.

    The check packs the rows as lanes of w bits of one integer ``rows``, w
    the smallest power of two at least max(order, 8), so that a lane is a
    standard struct integer and the matrix is w x w with zero rows below.
    ``cols`` is its transpose, taken in log2(w) rounds (Warren, "Hacker's
    Delight", section 7-3): the round for s = w/2 down to 1 swaps the
    off-diagonal s x s blocks of every 2s x 2s block, flipping each differing
    pair of bits in lane i, column j with i & s == 0 and j & s != 0 and its
    partner (i + s, j - s), w*s - s bits higher. The rows are a tournament
    iff ``rows & cols == 0`` and ``rows | cols`` is ``off_diagonal``, the bits
    (i, j) with i != j, both below order:

    * for i != j, bit j of lane i is "i beats j" in ``rows`` and "j beats i"
      in ``cols``; both set violates asymmetry, neither completeness;
    * a reflexive bit is set in both ``rows`` and ``cols``, so the AND
      catches it;
    * a bit at column j >= order lies outside ``off_diagonal`` (and moves to
      lane j of ``cols``), so the OR test catches it;
    * a row that struct refuses to pack (negative, wider than its lane, or
      not an integer) fails the check as well.

    ``dom_of`` is unpacked from ``cols`` only after the check passes, since
    a bit in a lane at or past order would overflow the unpack.

    Rows that fail are scanned to name the first violation: the rows for
    out-of-range and reflexive entries first, then every pair (j, i) with
    j < i in row order: row i, then column j ascending. The first bad pair
    is reported as ``asymmetry violated at (j,i)`` (each beats the other) or
    ``completeness violated at (j,i)`` (neither does).
    """

    __slots__ = ("order", "beats", "dom_of")

    def __init__(self, beats: Sequence[AltSet]):
        order = len(beats)
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
        beats = tuple(beats)
        lanes, rounds, off_diagonal = _packing(order)
        try:
            rows = int.from_bytes(lanes.pack(*beats), "little")
        except struct.error:  # a row is negative, wider than its lane, or not an integer
            rows = -1  # every bit set, and the rounds keep it so in cols: the check fails
        cols = rows
        for shift, mask in rounds:
            t = (cols ^ cols >> shift) & mask
            cols ^= t | t << shift
        if rows & cols or rows | cols != off_diagonal:
            raise _violation(beats)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "dom_of", lanes.unpack(cols.to_bytes(lanes.size, "little")))

    def __setattr__(self, name, value):
        raise AttributeError("Tournament is immutable")

    def dominates(self, i: int, j: int) -> bool:
        return bool((self.beats[i] >> j) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tournament) and self.beats == other.beats

    def __hash__(self) -> int:
        return hash(self.beats)

    def __repr__(self) -> str:
        return f"Tournament(order={self.order})"


@lru_cache(maxsize=None)
def _packing(order: int) -> tuple[struct.Struct, tuple[tuple[int, int], ...], int]:
    """The lanes, swap rounds and ``off_diagonal`` of the ``Tournament`` check, built on first use."""
    width = max(8, 1 << (order - 1).bit_length())
    lanes = struct.Struct(f"<{order}{'BHIQ'[width.bit_length() - 4]}")  # order unsigned little-endian lanes
    rounds = []
    s = width >> 1
    while s:
        row = sum(1 << j for j in range(width) if j & s)
        rounds.append((width * s - s, sum(row << i * width for i in range(width) if not i & s)))
        s >>= 1
    universe = (1 << order) - 1
    return lanes, tuple(rounds), sum((universe ^ 1 << i) << i * width for i in range(order))


def _violation(beats: tuple[AltSet, ...]) -> ValueError:
    """The first violation in rows that fail the ``Tournament`` check, in the order its docstring gives."""
    universe = (1 << len(beats)) - 1
    for i, row in enumerate(beats):
        if row & ~universe:
            return ValueError(f"alternative {i} dominates out-of-range alternatives")
        if (row >> i) & 1:
            return ValueError(f"reflexive entry at ({i},{i})")
    for i, row in enumerate(beats):
        for j in range(i):
            if (row >> j) & 1 == (beats[j] >> i) & 1:
                kind = "asymmetry" if (row >> j) & 1 else "completeness"
                return _PairError(f"{kind} violated at ({j},{i})", i)


def dominators(t: Tournament, within: AltSet, x: int) -> AltSet:
    """The members of ``within`` that dominate x."""
    if not 0 <= x < t.order:
        raise IndexError(f"alternative {x} out of range for order {t.order}")
    if within & ~full_set(t.order):
        raise ValueError("within-set contains out-of-range alternatives")
    return t.dom_of[x] & within


def restrict(t: Tournament, subset: AltSet) -> tuple[Tournament, tuple[int, ...]]:
    """Induced subtournament on ``subset``.

    Returns the subtournament plus the index mapping (new index k corresponds
    to original alternative mapping[k]) so results can be lifted back.
    """
    if not subset:
        raise ValueError("empty subset")
    if subset & ~full_set(t.order):
        raise ValueError("subset contains out-of-range alternatives")
    verts = members(subset)
    beats = []
    for v in verts:
        row = t.beats[v]
        beats.append(altset(k for k, w in enumerate(verts) if (row >> w) & 1))
    return Tournament(beats), tuple(verts)


def is_isomorphism(a: Tournament, b: Tournament, mapping: Sequence[int]) -> bool:
    """Check that ``mapping`` is a dominance-preserving bijection from a to b.

    A bijection preserves dominance iff it maps each alternative's row onto
    the row of its image, so each row is mapped through the mapping's
    ``_mapper`` and compared with its image's row. The check is written
    apart from ``_preserves``, whose answer it rechecks.
    """
    if a.order != b.order or len(mapping) != a.order:
        return False
    if not all(isinstance(v, int) for v in mapping) or sorted(mapping) != list(range(b.order)):
        return False
    image = _mapper(mapping, full_set(a.order), a.order)
    return all(image(row) == b.beats[w] for row, w in zip(a.beats, mapping))


def find_isomorphism(a: Tournament, b: Tournament) -> tuple[int, ...] | None:
    """Return an isomorphism from a to b (``mapping[i]`` is the image of i), or None.

    Individualisation-refinement, the nauty/Traces scheme (McKay & Piperno,
    "Practical graph isomorphism II", 2014), on the disjoint union of a and
    b, whose rows are built here once; see ``_match``. The result is *an*
    isomorphism, not a particular one: which is found depends on the search
    order. It is returned only after ``is_isomorphism`` accepts it; None
    means no isomorphism exists.
    """
    n = a.order
    if n != b.order:
        return None
    mapping = _match((*a.beats, *(row << n for row in b.beats)), n, [full_set(2 * n)])
    return None if mapping is None or not is_isomorphism(a, b, mapping) else tuple(mapping)


def _match(rows: Sequence[AltSet], n: int, cells: list[AltSet],
           deadline: float | None = None) -> list[int] | None:
    """A dominance-preserving bijection mapping the low half of each cell onto its high half, or None.

    The search runs on the disjoint union of two relations a and b on
    0..n-1: ``rows`` holds a's rows, then b's rows shifted up by n, so the
    low n bits of a set are a's part and the next n bits are b's part. The
    ordered partition ``cells`` pairs the two parts of each cell; only the
    union of the cells is matched, and ``mapping[v]`` is the image of v for
    each v in a's part of it. The rows may be those of either relation, as
    long as both parts use the same one. ``_refine`` splits the cells until
    the partition is equitable, and a split stands only if every part has as
    many members in a's part as in b's. While a cell has several members on
    each side, the lowest low member of the first smallest such cell is
    paired with each of its high members in turn, and the search recurses.
    At a discrete partition each cell's low member maps to its high member,
    and the bijection is accepted only if it preserves dominance on the
    union. ``deadline`` is a ``time.monotonic()`` cutoff checked once per
    node of the search; past it ``DeadlineExceeded`` is raised.
    """
    cells = _refine(rows, n, cells)
    if cells is None:
        return None
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded
    low_half = (1 << n) - 1
    sizes = [(c & low_half).bit_count() for c in cells]
    if max(sizes) == 1:
        mapping = [0] * n
        for c in cells:
            mapping[(c & -c).bit_length() - 1] = c.bit_length() - 1 - n
        return mapping if _preserves(rows, n, cells, mapping) else None
    k = sizes.index(min(s for s in sizes if s > 1))
    cell = cells[k]
    low = cell & -cell
    for w in iter_members(cell & ~low_half):
        pick = low | 1 << w
        found = _match(rows, n, cells[:k] + [pick, cell ^ pick] + cells[k + 1:], deadline)
        if found is not None:
            return found
    return None


def _preserves(rows: Sequence[AltSet], n: int, cells: list[AltSet], mapping: list[int]) -> bool:
    # a bijection of tournaments preserves dominance iff it maps every
    # out-neighbourhood onto the image's out-neighbourhood. Each cell is a
    # low member v and its high member n + mapping[v]. All rows are mapped at
    # once: lane v (bits 64v..64v+63) of rows_a holds v's row, the same lane
    # of rows_b the row of v's image cut to the union and shifted down by n,
    # and bit 0 of every used lane is set in lanes. Shifting rows_a right by j
    # and masking with lanes leaves bit j of every row at the foot of its
    # lane (bits of the lane above land at 64 - j or higher and are masked
    # off); shifting that left by mapping[j] moves it to j's image, inside the
    # same lane since every index is below 64. Only the low members j of the
    # cells are read, so a's rows need no cut. About 2n big-integer steps
    # replace n²/2 bit steps.
    union = sum(cells)  # cells are disjoint
    rows_a = rows_b = lanes = 0
    for c in cells:
        v = (c & -c).bit_length() - 1
        lane = v << 6
        rows_a |= rows[v] << lane
        rows_b |= (rows[c.bit_length() - 1] & union) >> n << lane
        lanes |= 1 << lane
    image = 0
    for c in cells:
        j = (c & -c).bit_length() - 1
        image |= (rows_a >> j & lanes) << mapping[j]
    return image == rows_b


def _mapper(mapping: Sequence[int], domain: AltSet, order: int) -> Callable[[AltSet], AltSet]:
    """The function taking a subset s of ``domain`` to its image under ``mapping``.

    ``mapping[v]`` is the image of v for each v in ``domain``; members of
    ``domain`` and their images lie below ``order``, and distinct members
    have distinct images. Other entries are not read. Its inputs must be
    subsets of ``domain``; for any other set the result is undefined.

    One getter, built here, lays out the digits of ``format(s, f"0{order}b")
    + "0"`` (character order - 1 - v is bit v) as the image's digits: the
    digit of bit mapping[v] is read from v's character, and the trailing
    "0" fills every position that no member of ``domain`` maps to.
    """
    source = [order] * order  # the trailing "0"
    for v in iter_members(domain):
        source[order - 1 - mapping[v]] = order - 1 - v
    digits = itemgetter(*source)
    spec = f"0{order}b"
    return lambda s: int("".join(digits(format(s, spec) + "0")), 2)


def _refine(rows: Sequence[AltSet], n: int, cells: list[AltSet]) -> list[AltSet] | None:
    """The coarsest equitable refinement of the union cells, or None if the two parts split differently.

    The rows and cells are those of ``_match``. The cells are walked in
    list order, each used once as a splitter, and the list grows as cells
    split, so the walk ends when it reaches the end of the list or every
    cell holds one low and one high member. A splitter S splits each cell
    of several members a side by each member's out-degree into S, parts in
    ascending key: the first part keeps the cell's index, the others are
    appended and so get their own turn. A kept part is not used again even
    when its cell has already been used (Hopcroft 1971): a member's
    out-degree into it is the out-degree into the old cell minus those into
    the appended parts. A low member's row meets only a's part of S and a
    high member's only b's, so each half splits by its own relation in the
    one pass. A splitter {u, w} of one member a side splits a cell c into
    ``c & (rows[u] | rows[w])`` (key 0) and the rest (key 1), so it costs an
    AND and a comparison per cell, and a size check when c splits. Cells of
    one member a side never split again, so only the others are visited.
    The partition is then equitable: every member of a cell has the same
    out-degree into the same half of every cell.

    A split stands only if every part has as many low members as high
    ones: then a's part of the cell splits exactly as b's does (same keys,
    same part sizes). Otherwise no isomorphism maps a's part of each cell
    onto b's, and the result is None. The cells are those of a
    round-by-round refinement of each half against every cell, in another
    order.
    """
    cells = list(cells)
    low_half = (1 << n) - 1
    wide = [k for k, c in enumerate(cells) if (c & low_half).bit_count() > 1]
    s = 0
    while s < len(cells) and wide:
        splitter = cells[s]
        s += 1
        singleton = (splitter & low_half).bit_count() == 1
        if singleton:
            row = rows[(splitter & -splitter).bit_length() - 1] | rows[splitter.bit_length() - 1]
        still_wide = []
        for k in wide:
            c = cells[k]
            if singleton:
                lost = c & row
                if not lost or lost == c:
                    still_wide.append(k)
                    continue
                if (lost & low_half).bit_count() << 1 != lost.bit_count():
                    return None
                parts = [lost, c ^ lost]
            else:
                parts = [p for _, p in _split(rows, c, splitter)]
                if len(parts) == 1:
                    still_wide.append(k)
                    continue
                if any((p & low_half).bit_count() << 1 != p.bit_count() for p in parts):
                    return None
            cells[k] = parts[0]
            if (parts[0] & low_half).bit_count() > 1:
                still_wide.append(k)
            for part in parts[1:]:
                if (part & low_half).bit_count() > 1:
                    still_wide.append(len(cells))
                cells.append(part)
        wide = still_wide
    return cells


def _split(beats: Sequence[AltSet], cell: AltSet, splitter: AltSet) -> list[tuple[int, AltSet]]:
    """Parts of ``cell`` by each member's out-degree into ``splitter``, in key order."""
    parts: dict[int, AltSet] = {}
    while cell:
        low = cell & -cell
        key = (beats[low.bit_length() - 1] & splitter).bit_count()
        parts[key] = parts.get(key, 0) | low
        cell ^= low
    return sorted(parts.items())


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit value for the index-th draw keyed by ``seed``.

    Counter-based (splitmix64 of seed plus a golden-ratio multiple of the
    counter), so draws are independent of call order and identical across
    platforms and Python versions.
    """
    # the outer _mix64 reduces its argument mod 2**64
    return _mix64(_mix64(seed) + (index + 1) * _GOLDEN)


def random_tournament(order: int, seed: int) -> Tournament:
    """Uniform random tournament, reproducible from (order, seed).

    The orientation of the k-th pair in lexicographic (i<j) order is the top
    bit of derive_seed(seed, k): 1 means i dominates j.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    # derive_seed for every pair at once: lane k (bits 128k..128k+127) of z
    # holds pair k's counter _mix64(seed) + (k + 1) * _GOLDEN mod 2**64, and
    # each splitmix64 step runs on the whole integer. A lane's value stays
    # below 2**64 between steps, so a shift right brings the lane above's low
    # bits only into bits 64..127, which the mask clears before the product;
    # a 64 x 64-bit product fills at most the 128 bits of its own lane, so no
    # lane carries into the next. The last xor-shift of _mix64 leaves the top
    # bit as it is, so bit 63 of each lane after the second product is the
    # pair's draw; it is moved to the foot of the lane and made an ASCII
    # digit, and byte 0 of every lane is then that digit.
    ones, mask, ramp, zeros, cells = _lanes(order)
    z = (_mix64(seed) * ones + ramp) & mask
    z = ((z ^ z >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 >> 63 & ones | zeros
    bits = z.to_bytes(order * (order - 1) << 3, "little")[::16]  # 16 bytes a pair
    matrix = bytes(cells(bits + bits.translate(_FLIP) + b"0"))
    return Tournament([int(matrix[i:i + order], 2) for i in range(0, order * order, order)])


@lru_cache(maxsize=None)
def _lanes(order: int) -> tuple[int, int, int, int, itemgetter]:
    """The per-order constants of ``random_tournament``, built on its first call at each order.

    Lane ones, the 64-bit lane mask, the counter ramp (k + 1) * _GOLDEN in
    lane k, ASCII "0" in every lane, and the getter that lays out ``bits +
    flipped bits + b"0"`` as the matrix rows, column order - 1 first, so
    that ``int(row, 2)`` has bit j set iff i dominates j. Row i reads pair
    (i, j)'s digit for j > i, the flipped digit of pair (j, i) for j < i,
    and "0" on the diagonal.
    """
    pairs = order * (order - 1) // 2
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * pairs, "little")
    # (k + 1) * _GOLDEN < 2**75 fits its lane, and the kernel's mask reduces
    # the counter mod 2**64 as derive_seed does
    ramp = int.from_bytes(b"".join([k.to_bytes(16, "little") for k in range(1, pairs + 1)]), "little") * _GOLDEN
    first = [i * (2 * order - i - 3) // 2 - 1 for i in range(order)]  # pair (i, j), i < j, is first[i] + j
    # the trailing "0" keeps the getter's result a tuple at order 1
    cells = itemgetter(*[first[i] + j if i < j else pairs + first[j] + i if j < i else 2 * pairs
                         for i in range(order) for j in reversed(range(order))], 2 * pairs)
    return ones, ones * _M64, ramp, ones * ord("0"), cells


def _decimal(text: str) -> int:
    """``text`` as an ASCII decimal integer with an optional leading "-", or ValueError.

    int() alone would also take "+10", "1_0", surrounding whitespace and the
    digits of other scripts; it raises ValueError itself past the
    interpreter's limit on digits.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def parse(text: str) -> Tournament:
    """Parse the canonical text format (see ``serialize``).

    Checks the syntax line by line; pair errors come from the ``Tournament``
    constructor, prefixed with the line of the pair's larger index. Lines
    end in LF or CRLF.
    """
    # str.splitlines would also split a row at a lone \r, \v, \f, \x1c-\x1e, \x85, \u2028 or \u2029
    lines = [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")] if text else []
    if not lines:
        raise FormatError("line 1: missing order header")
    header = lines[0].strip()
    try:
        order = _decimal(header)
    except ValueError:
        raise FormatError(f"line 1: expected integer order, got {header!r}") from None
    if not 1 <= order <= MAX_ORDER:
        raise FormatError(f"line 1: order must be between 1 and {MAX_ORDER}, got {order}")
    if len(lines) < order + 1:
        raise FormatError(f"line {len(lines) + 1}: expected {order} matrix rows, found {len(lines) - 1}")
    for extra in range(order + 1, len(lines)):
        if lines[extra].strip():
            raise FormatError(f"line {extra + 1}: unexpected trailing content")
    beats = []
    for i in range(order):
        line_no = i + 2
        row = lines[i + 1]
        if len(row) != order:
            raise FormatError(f"line {line_no}: expected {order} characters, got {len(row)}")
        # int(..., 2) alone would also take "_", "+", surrounding whitespace and
        # the digits of other scripts, so a row with any other character than
        # 0 and 1 is scanned for the first one
        if row.count("0") + row.count("1") != order:
            j, c = next((j, c) for j, c in enumerate(row) if c not in "01")
            raise FormatError(f"line {line_no}: invalid character {c!r} at column {j + 1}")
        mask = int(row[::-1], 2)  # character j is bit j
        if (mask >> i) & 1:
            raise FormatError(f"line {line_no}: diagonal entry must be 0")
        beats.append(mask)
    try:
        return Tournament(beats)
    except _PairError as e:
        raise FormatError(f"line {e.row + 2}: {e}") from None


def serialize(t: Tournament) -> str:
    """Canonical text format: order on line 1, then the 0/1 dominance matrix.

    Character j of matrix row i is 1 iff i dominates j. Bit-exact: equal
    tournaments serialize to identical text.
    """
    spec = f"0{t.order}b"
    rows = [format(row, spec)[::-1] for row in t.beats]  # character j is bit j
    return "\n".join([str(t.order)] + rows) + "\n"

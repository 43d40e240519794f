"""Tournament data model: dominance relations, alternative sets, subtournaments.

Alternatives are integers 0..order-1. Sets of alternatives (``AltSet``) are
plain ints used as bit vectors, so all set algebra is single machine-word
arithmetic up to the order cap of 64.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

MAX_ORDER = 64

AltSet = int

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


class Tournament:
    """A complete asymmetric dominance relation on alternatives 0..order-1.

    ``beats[i]`` is the AltSet of alternatives that i dominates; ``dom_of[i]``
    is the AltSet of alternatives that dominate i. Instances are validated on
    construction and immutable afterwards, so they are safe to share freely.
    """

    __slots__ = ("order", "beats", "dom_of")

    def __init__(self, beats: Sequence[AltSet]):
        order = len(beats)
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
        beats = tuple(beats)
        universe = (1 << order) - 1
        dom = [0] * order
        for i, row in enumerate(beats):
            if row & ~universe:
                raise ValueError(f"alternative {i} dominates out-of-range alternatives")
            if (row >> i) & 1:
                raise ValueError(f"reflexive entry at ({i},{i})")
            rest = row
            while rest:
                low = rest & -rest
                dom[low.bit_length() - 1] |= 1 << i
                rest ^= low
        for i in range(order):
            both = beats[i] & dom[i]
            if both:
                j = (both & -both).bit_length() - 1
                raise ValueError(f"asymmetry violated at ({min(i, j)},{max(i, j)})")
            missing = (universe ^ (1 << i)) & ~(beats[i] | dom[i])
            if missing:
                j = (missing & -missing).bit_length() - 1
                raise ValueError(f"completeness violated at ({min(i, j)},{max(i, j)})")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "dom_of", tuple(dom))

    def __setattr__(self, name, value):
        raise AttributeError("Tournament is immutable")

    def dominates(self, i: int, j: int) -> bool:
        return bool((self.beats[i] >> j) & 1)

    def score(self, i: int) -> int:
        """Out-degree of alternative i."""
        return self.beats[i].bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Tournament) and self.beats == other.beats

    def __hash__(self) -> int:
        return hash(self.beats)

    def __repr__(self) -> str:
        return f"Tournament(order={self.order})"


def new_tournament(order: int, dominance: Sequence[Sequence[int]]) -> Tournament:
    """Build a tournament from an order-by-order boolean table.

    ``dominance[i][j]`` truthy means i dominates j. The table must be
    irreflexive and have exactly one orientation per pair.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    rows = list(dominance)
    if len(rows) != order:
        raise ValueError(f"expected {order} rows, got {len(rows)}")
    beats = []
    for i, row in enumerate(rows):
        cells = list(row)
        if len(cells) != order:
            raise ValueError(f"row {i} has {len(cells)} entries, expected {order}")
        beats.append(altset(j for j, c in enumerate(cells) if c))
    return Tournament(beats)


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
    """Check that ``mapping`` is a dominance-preserving bijection from a to b."""
    if a.order != b.order or len(mapping) != a.order:
        return False
    if sorted(mapping) != list(range(b.order)):
        return False
    for i in range(a.order):
        for j in range(a.order):
            if i != j and a.dominates(i, j) != b.dominates(mapping[i], mapping[j]):
                return False
    return True


def find_isomorphism(a: Tournament, b: Tournament) -> Optional[tuple[int, ...]]:
    """Search for an isomorphism from a to b; None if there is none.

    Rejects fast on mismatched score sequences, then backtracks over
    score-compatible assignments in score-class order.
    """
    if a.order != b.order:
        return None
    n = a.order
    scores_a = [a.score(i) for i in range(n)]
    scores_b = [b.score(i) for i in range(n)]
    if sorted(scores_a) != sorted(scores_b):
        return None

    order_a = sorted(range(n), key=lambda v: (scores_a[v], v))
    candidates = {v: [w for w in range(n) if scores_b[w] == scores_a[v]] for v in order_a}
    mapping = [-1] * n
    used = [False] * n

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        v = order_a[pos]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for prev in order_a[:pos]:
                if a.dominates(v, prev) != b.dominates(w, mapping[prev]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if assign(pos + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    if assign(0):
        return tuple(mapping)
    return None


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _draw(key: int, index: int) -> int:
    # key is _mix64(seed); _mix64 reduces its argument mod 2**64
    return _mix64(key + (index + 1) * _GOLDEN)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit value for the index-th draw keyed by ``seed``.

    Counter-based (splitmix64 of seed plus a golden-ratio multiple of the
    counter), so draws are independent of call order and identical across
    platforms and Python versions.
    """
    return _draw(_mix64(seed), index)


def random_tournament(order: int, seed: int) -> Tournament:
    """Uniform random tournament, reproducible from (order, seed).

    The orientation of the k-th pair in lexicographic (i<j) order is the top
    bit of derive_seed(seed, k): 1 means i dominates j.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    beats = [0] * order
    key = _mix64(seed)
    k = 0
    for i in range(order):
        for j in range(i + 1, order):
            if _draw(key, k) >> 63:
                beats[i] |= 1 << j
            else:
                beats[j] |= 1 << i
            k += 1
    return Tournament(beats)


def flip_edge(t: Tournament, a: int, b: int) -> Tournament:
    """Copy of t with the orientation of pair {a, b} reversed."""
    if a == b:
        raise ValueError("cannot flip a reflexive pair")
    if not (0 <= a < t.order and 0 <= b < t.order):
        raise IndexError(f"pair ({a},{b}) out of range for order {t.order}")
    beats = list(t.beats)
    if t.dominates(a, b):
        winner, loser = a, b
    else:
        winner, loser = b, a
    beats[winner] ^= 1 << loser
    beats[loser] |= 1 << winner
    return Tournament(beats)


def parse(text: str) -> Tournament:
    """Parse the canonical text format (see ``serialize``)."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1: missing order header")
    header = lines[0].strip()
    try:
        order = int(header)
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
        mask = 0
        for j, c in enumerate(row):
            if c == "1":
                mask |= 1 << j
            elif c != "0":
                raise FormatError(f"line {line_no}: invalid character {c!r} at column {j + 1}")
        if (mask >> i) & 1:
            raise FormatError(f"line {line_no}: diagonal entry must be 0")
        beats.append(mask)
    for i in range(order):
        for j in range(i):
            fwd = (beats[j] >> i) & 1
            back = (beats[i] >> j) & 1
            if fwd and back:
                raise FormatError(f"line {i + 2}: asymmetry violated at ({j},{i})")
            if not (fwd or back):
                raise FormatError(f"line {i + 2}: completeness violated at ({j},{i})")
    return Tournament(beats)


def serialize(t: Tournament) -> str:
    """Canonical text format: order on line 1, then the 0/1 dominance matrix.

    Character j of matrix row i is 1 iff i dominates j. Bit-exact: equal
    tournaments serialize to identical text.
    """
    rows = ["".join("1" if (t.beats[i] >> j) & 1 else "0" for j in range(t.order)) for i in range(t.order)]
    return "\n".join([str(t.order)] + rows) + "\n"

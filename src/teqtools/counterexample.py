"""The embedded 24-alternative tournament with two disjoint minimal retentive sets.

The instance refutes Schwartz's conjecture (that every tournament has a unique
inclusion-minimal TEQ-retentive set) at order 24, which pins the largest order
with guaranteed uniqueness below 24. It is two copies of one 12-alternative
tournament, halves X = {x1..x12} and Y = {y1..y12}, each split into a top and
bottom block of six, with cross-dominance X1 > Y2, X2 > Y1, Y1 > X1, Y2 > X2.

Alternative indices: 0..11 are x1..x12, 12..23 are y1..y12.
"""

from collections import namedtuple

from .core import AltSet, Tournament, altset, find_isomorphism, is_isomorphism, iter_members, restrict
from .search import compose_structured
from .teq import TeqCache, is_retentive, minimal_retentive_sets, teq_of_subset

# Who dominates x_i inside the X half (1-based labels). The Y half is an exact
# copy under x_i -> y_i.
DOM_X_TABLE = {
    1: (4, 5, 6, 8, 9, 12),
    2: (1, 6, 7, 10, 12),
    3: (1, 2, 6, 7, 9, 10),
    4: (2, 3, 7, 8, 11),
    5: (2, 3, 4, 8, 10, 11),
    6: (4, 5, 9, 11, 12),
    7: (1, 5, 6, 11, 12),
    8: (2, 3, 6, 7, 12),
    9: (2, 4, 5, 7, 8),
    10: (1, 4, 6, 7, 8, 9),
    11: (1, 2, 3, 8, 9, 10),
    12: (3, 4, 5, 9, 10, 11),
}

# Expected TEQ of the full dominator set of each x_i (1-based X labels).
EXPECTED_TEQ_TABLE = {
    1: (4, 8, 12),
    2: (6, 10, 12),
    3: (6, 7, 9),
    4: (2, 7, 11),
    5: (2, 8, 10),
    6: (4, 9, 11),
    7: (1, 5, 11),
    8: (3, 6, 12),
    9: (2, 5, 7),
    10: (4, 6, 7),
    11: (1, 2, 8),
    12: (3, 4, 9),
}

GOLDEN_FILE = "counterexample24.txt"


CounterexampleInstance = namedtuple("CounterexampleInstance", "tournament x_set y_set")

ClaimResult = namedtuple("ClaimResult", "claim_id description passed details", defaults=("",))


class VerificationReport(namedtuple("VerificationReport", "claims notes")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


def label(index: int) -> str:
    """Human label for an alternative: x1..x12 then y1..y12."""
    return f"x{index + 1}" if index < 12 else f"y{index - 11}"


def label_set(s: AltSet) -> str:
    return "{" + ", ".join(label(v) for v in iter_members(s)) + "}"


def build_counterexample() -> CounterexampleInstance:
    """Construct the instance from the embedded tables.

    The X half is built from DOM_X_TABLE and glued to its copy by
    ``compose_structured``. The ``Tournament`` constructor validates the half
    and the composition alike (exactly one orientation per pair), so an
    inconsistent table cannot produce an instance.
    """
    half = [0] * 12
    for i, dominators_of_i in DOM_X_TABLE.items():
        for j in dominators_of_i:
            half[j - 1] |= 1 << (i - 1)  # x_j beats x_i
    x_set = altset(range(12))
    return CounterexampleInstance(compose_structured(Tournament(half), 6), x_set, x_set << 12)


def expected_teq_masks() -> dict[int, AltSet]:
    """EXPECTED_TEQ_TABLE as bitmasks keyed by 1-based x index."""
    return {i: altset(j - 1 for j in vals) for i, vals in EXPECTED_TEQ_TABLE.items()}


# What every claim reads: the instance, one cache, and TEQ(dominators of v)
# for all 24 alternatives v, indexed like the alternatives.
_Context = namedtuple("_Context", "inst cache teq_dom")


def _teq_dom_x(i: int, want: AltSet):
    def check(ctx):
        got = ctx.teq_dom[i - 1]
        return got == want and got & ~ctx.inst.x_set == 0, f"computed {label_set(got)}"
    return check


def _x_retentive(ctx):
    ok = is_retentive(ctx.cache, ctx.inst.x_set)
    return ok, "every TEQ(dominators of x_i) stays inside X" if ok else "containment fails"


def _teq_dom_y_inside_y(ctx):
    offenders = [f"y{i}" for i, got in enumerate(ctx.teq_dom[12:], 1) if got & ~ctx.inst.y_set]
    return not offenders, "escapes Y for " + ", ".join(offenders) if offenders else "all twelve contained"


def _x_y_disjoint(ctx):
    x_set, y_set = ctx.inst.x_set, ctx.inst.y_set
    ok = x_set & y_set == 0 and is_retentive(ctx.cache, x_set) and is_retentive(ctx.cache, y_set)
    return ok, f"X = {label_set(x_set)}, Y = {label_set(y_set)}"


def _halves_isomorphic(ctx):
    tx, _ = restrict(ctx.inst.tournament, ctx.inst.x_set)
    ty, _ = restrict(ctx.inst.tournament, ctx.inst.y_set)
    witness = find_isomorphism(tx, ty)
    if witness is None:
        return False, "no isomorphism found"
    details = "witness " + " ".join(f"x{i + 1}->y{w + 1}" for i, w in enumerate(witness))
    # is_isomorphism rechecks the search's answer independently
    return is_isomorphism(tx, ty, witness), details


def _x_y_symmetry(ctx):
    # row i has bit j - 1 set where "x_j in TEQ(dominators of x_i)" and
    # "y_j in TEQ(dominators of y_i)" differ
    rows = ((x ^ y >> 12) & 0xFFF for x, y in zip(ctx.teq_dom[:12], ctx.teq_dom[12:]))
    broken = [f"(i={i}, j={j + 1})" for i, row in enumerate(rows, 1) for j in iter_members(row)]
    return not broken, "disagrees at " + ", ".join(broken[:8]) if broken else "all pairs agree"


def _two_minimal_sets(ctx):
    minimal = minimal_retentive_sets(ctx.inst.tournament, ctx.cache)
    has_x = any(m & ~ctx.inst.x_set == 0 for m in minimal)
    has_y = any(m & ~ctx.inst.y_set == 0 for m in minimal)
    details = "minimal sets: " + "; ".join(label_set(m) for m in minimal)
    return len(minimal) >= 2 and has_x and has_y, details


# (claim_id, description, check) in report order; check(ctx) gives (passed, details)
_CLAIMS = [
    *((f"teq-dom-x{i}", f"TEQ(dominators of x{i}) = {label_set(want)} and is inside X", _teq_dom_x(i, want))
      for i, want in expected_teq_masks().items()),
    ("x-retentive", "X is TEQ-retentive", _x_retentive),
    ("teq-dom-y-inside-y", "TEQ(dominators of y_i) is inside Y for all i", _teq_dom_y_inside_y),
    ("y-retentive", "Y is TEQ-retentive", lambda ctx: (is_retentive(ctx.cache, ctx.inst.y_set), "")),
    ("x-y-disjoint", "X and Y are disjoint, so two disjoint retentive sets exist", _x_y_disjoint),
    ("halves-isomorphic", "the induced subtournaments on X and Y are isomorphic", _halves_isomorphic),
    ("x-y-symmetry", "y_j in TEQ(dominators of y_i) iff x_j in TEQ(dominators of x_i), all 144 pairs",
     _x_y_symmetry),
    ("two-minimal-sets", "at least two minimal retentive sets, one inside X and one inside Y",
     _two_minimal_sets),
]


def verify_claims(inst: CounterexampleInstance) -> VerificationReport:
    """Recompute and check every claimed property of the instance.

    Every check is recomputed from the tournament alone; failures become
    failing report entries, never exceptions.
    """
    cache = TeqCache(inst.tournament)
    ctx = _Context(inst, cache, [teq_of_subset(cache, d) for d in inst.tournament.dom_of])
    claims = [ClaimResult(claim_id, text, *check(ctx)) for claim_id, text, check in _CLAIMS]
    return VerificationReport(claims, [
        "Retentiveness is checked with non-strict containment: "
        "TEQ(dominators of x) may equal the candidate set itself.",
        "These checks establish two disjoint minimal TEQ-retentive sets at order 24; "
        "weakened variants of the uniqueness conjecture are not checked.",
    ])

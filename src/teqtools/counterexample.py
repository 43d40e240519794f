"""The embedded 24-alternative tournament with two disjoint minimal retentive sets.

The instance refutes Schwartz's conjecture (that every tournament has a unique
inclusion-minimal TEQ-retentive set) at order 24, which pins the largest order
with guaranteed uniqueness below 24. It is two copies of one 12-alternative
tournament, halves X = {x1..x12} and Y = {y1..y12}, each split into a top and
bottom block of six, with cross-dominance X1 > Y2, X2 > Y1, Y1 > X1, Y2 > X2.

Alternative indices: 0..11 are x1..x12, 12..23 are y1..y12.
"""

from __future__ import annotations

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


CounterexampleInstance = namedtuple("CounterexampleInstance", "tournament x_set y_set x1 x2 y1 y2")

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
    ``compose_structured``. The constructor validates that the table yields
    a legal tournament (exactly one orientation per pair), so an
    inconsistent table cannot produce an instance.
    """
    half = [0] * 12
    for i, dominators_of_i in DOM_X_TABLE.items():
        for j in dominators_of_i:
            half[j - 1] |= 1 << (i - 1)  # x_j beats x_i
    x1 = altset(range(0, 6))
    x2 = altset(range(6, 12))
    y1 = x1 << 12
    y2 = x2 << 12
    return CounterexampleInstance(
        tournament=compose_structured(Tournament(half), 6),
        x_set=x1 | x2,
        y_set=y1 | y2,
        x1=x1,
        x2=x2,
        y1=y1,
        y2=y2,
    )


def expected_teq_masks() -> dict[int, AltSet]:
    """EXPECTED_TEQ_TABLE as bitmasks keyed by 1-based x index."""
    return {i: altset(j - 1 for j in vals) for i, vals in EXPECTED_TEQ_TABLE.items()}


def verify_claims(inst: CounterexampleInstance) -> VerificationReport:
    """Recompute and check every claimed property of the instance.

    Every check is recomputed from the tournament alone; failures become
    failing report entries, never exceptions.
    """
    t = inst.tournament
    cache = TeqCache(t)
    claims = []
    expected = expected_teq_masks()

    # TEQ of each x_i's full dominator set matches the expected table and
    # stays inside X.
    teq_x = {}
    for i in range(1, 13):
        d = t.dom_of[i - 1]
        got = teq_of_subset(cache, d)
        teq_x[i] = got
        want = expected[i]
        ok = got == want and got & ~inst.x_set == 0
        claims.append(ClaimResult(
            claim_id=f"teq-dom-x{i}",
            description=f"TEQ(dominators of x{i}) = {label_set(want)} and is inside X",
            passed=ok,
            details=f"computed {label_set(got)}",
        ))

    x_ret = is_retentive(cache, inst.x_set)
    claims.append(ClaimResult(
        claim_id="x-retentive",
        description="X is TEQ-retentive",
        passed=x_ret,
        details="every TEQ(dominators of x_i) stays inside X" if x_ret else "containment fails",
    ))

    teq_y = {}
    y_inside = True
    offenders = []
    for i in range(1, 13):
        d = t.dom_of[i + 11]
        got = teq_of_subset(cache, d)
        teq_y[i] = got
        if got & ~inst.y_set:
            y_inside = False
            offenders.append(f"y{i}")
    claims.append(ClaimResult(
        claim_id="teq-dom-y-inside-y",
        description="TEQ(dominators of y_i) is inside Y for all i",
        passed=y_inside,
        details="all twelve contained" if y_inside else "escapes Y for " + ", ".join(offenders),
    ))
    y_ret = is_retentive(cache, inst.y_set)
    claims.append(ClaimResult(
        claim_id="y-retentive",
        description="Y is TEQ-retentive",
        passed=y_ret,
        details="",
    ))

    disjoint = inst.x_set & inst.y_set == 0
    claims.append(ClaimResult(
        claim_id="x-y-disjoint",
        description="X and Y are disjoint, so two disjoint retentive sets exist",
        passed=disjoint and x_ret and y_ret,
        details=f"X = {label_set(inst.x_set)}, Y = {label_set(inst.y_set)}",
    ))

    tx, _ = restrict(t, inst.x_set)
    ty, _ = restrict(t, inst.y_set)
    witness = find_isomorphism(tx, ty)
    iso_ok = witness is not None and is_isomorphism(tx, ty, witness)
    claims.append(ClaimResult(
        claim_id="halves-isomorphic",
        description="the induced subtournaments on X and Y are isomorphic",
        passed=iso_ok,
        details=("witness " + " ".join(f"x{i + 1}->y{w + 1}" for i, w in enumerate(witness)))
        if witness is not None else "no isomorphism found",
    ))

    symmetric = True
    broken = []
    for i in range(1, 13):
        for j in range(1, 13):
            in_x = (teq_x[i] >> (j - 1)) & 1
            in_y = (teq_y[i] >> (j + 11)) & 1
            if in_x != in_y:
                symmetric = False
                broken.append(f"(i={i}, j={j})")
    claims.append(ClaimResult(
        claim_id="x-y-symmetry",
        description="y_j in TEQ(dominators of y_i) iff x_j in TEQ(dominators of x_i), all 144 pairs",
        passed=symmetric,
        details="all pairs agree" if symmetric else "disagrees at " + ", ".join(broken[:8]),
    ))

    minimal = minimal_retentive_sets(t, cache)
    has_x = any(m & ~inst.x_set == 0 for m in minimal)
    has_y = any(m & ~inst.y_set == 0 for m in minimal)
    claims.append(ClaimResult(
        claim_id="two-minimal-sets",
        description="at least two minimal retentive sets, one inside X and one inside Y",
        passed=len(minimal) >= 2 and has_x and has_y,
        details="minimal sets: " + "; ".join(label_set(m) for m in minimal),
    ))

    notes = [
        "Retentiveness is checked with non-strict containment: "
        "TEQ(dominators of x) may equal the candidate set itself.",
        "These checks establish two disjoint minimal TEQ-retentive sets at order 24; "
        "weakened variants of the uniqueness conjecture are not checked.",
    ]
    return VerificationReport(claims, notes)

"""Tournament equilibrium set (TEQ) and retentive-set machinery.

TEQ(T) is the union of all inclusion-minimal TEQ-retentive sets of T, where a
nonempty S is TEQ-retentive if TEQ(dominators(x)) stays inside S for every
x in S that has dominators. The minimal sets are the terminal SCCs of the
relation graph x -> TEQ(dominators(x)). The recursion, memoised by subset
bitmask, finds them for a subset in four steps; ``_minimal_sets`` proves
each of them.

1. One coverage pass finds the uncovered members, which hold every minimal
   set. A Condorcet winner ends the pass, and at most three uncovered
   members are the one minimal set.
2. When the uncovered members form a large regular tournament that beats
   every other member, the successors of the lowest member's orbit under
   its automorphism group seed the memo (``_share_orbit``).
3. Successors are built lazily, for uncovered members only
   (``_lazy_successors``): from the lowest, then for every member reached,
   and again while the unexplored uncovered members could still hold a
   minimal set. Each dominator set takes the parent's uncovered members
   inside it as its candidates (rule 1), and one with at most three
   candidates is answered without a call (rule 2).
4. The terminal SCCs are peeled by a forward and a backward closure from
   the lowest member left (``_terminal_scc_masks``); the first forward
   closure is the one step 3 built.

``teq_bruteforce`` is an independent oracle that transcribes the definition
literally (subset enumeration, no SCC shortcut, no covering argument, no
automorphisms).
"""

import time

from .core import AltSet, DeadlineExceeded, Tournament, _mapper, _match, full_set, iter_members

BRUTEFORCE_MAX_ORDER = 12
# Smallest regular top cycle whose successors are shared across automorphism
# orbits. Below 13 members an automorphism search costs more than the
# recursions it saves; at 13 and 15 sharing wins on vertex-transitive tops
# but loses on tops with no automorphism, which pay for a failed search.
_ORBIT_MIN_SIZE = 17


class TeqCache:
    """Memo table mapping subsets of one base tournament to their TEQ.

    A subset of a fixed base fully determines the induced subtournament, so
    the bitmask is a sound memo key. Besides the subsets the recursion
    visits, the table holds the dominator sets that the exploration answers
    by rule 2 at ``_minimal_sets`` without a call, and the successors that
    ``_share_orbit`` seeds. Every value is TEQ of its key, whichever path
    stored it.
    Never share a cache across different base tournaments; a cache is
    confined to one computation at a time.
    ``hits``/``misses`` count top-level queries, not internal recursion.
    """

    __slots__ = ("base", "table", "hits", "misses", "deadline")

    def __init__(self, base: Tournament, deadline: float | None = None):
        self.base = base
        self.table: dict[AltSet, AltSet] = {}
        self.hits = 0
        self.misses = 0
        self.deadline = deadline  # time.monotonic() cutoff, None = unlimited


def _terminal_scc_masks(succ: dict[int, AltSet], candidates: AltSet, forward: AltSet) -> list[AltSet]:
    """Terminal SCCs (no outgoing edges) of the graph that lie in ``candidates``.

    Peels components forward and backward (Fleischer, Hendrickson & Pinar
    2000). ``rest`` starts as ``candidates``; c is its lowest member. F is
    the forward closure of c: c plus everything it reaches, expanding
    candidates only. For the first c it is given as ``forward``, which
    ``_lazy_successors`` has already built; for each later c it is built by
    frontier closure at the bottom of the loop. The backward closure B of c
    inside ``rest`` (the members that reach c through ``rest``) is built by
    passes over ``rest`` until a pass adds nothing. If F lies in B, every
    vertex c reaches reaches c back, so F is c's component and, being
    closed under successors, terminal. Either way B leaves ``rest``: every
    member of B reaches c, so a member of B in a terminal SCC would put c in
    that SCC, which is then F, found now. ``succ`` has a key for every
    candidate. Output ordered by smallest member: F lies in ``rest``, whose
    lowest member is c, and c rises from one peel to the next.
    """
    found = []
    rest = candidates
    while rest:
        back = rest & -rest
        before = 0
        while back != before:
            before = back
            pending = rest & ~back
            while pending:
                low = pending & -pending
                pending ^= low
                if succ[low.bit_length() - 1] & back:
                    back |= low
        if not forward & ~back:
            found.append(forward)
        rest &= ~back
        forward = closed = 0
        todo = rest & -rest
        while todo:
            low = todo & -todo
            forward |= low | succ[low.bit_length() - 1]
            closed |= low
            todo = forward & candidates & ~closed
    return found


def _minimal_sets(dom_of: tuple[AltSet, ...], table: dict[AltSet, AltSet], subset: AltSet,
                  candidates: AltSet, deadline: float | None) -> list[AltSet]:
    """Minimal retentive sets of ``subset``, ordered by smallest member.

    They are the terminal SCCs of the relation graph x -> TEQ(dominators of
    x in ``subset``), and they lie in the uncovered set U: v is covered when
    a member y beats v and everything v beats in ``subset``. Every edge of
    the graph points into U (lemma below). A covered member has dominators,
    so it has a successor, and no edge points to it, so it is in no terminal
    SCC. One pass finds U. It tests only ``candidates``, the members of
    ``subset`` that can be uncovered, each against the whole of ``subset``:
    a caller with no bound passes ``subset``, and ``_lazy_successors`` the
    bound of rule 1 below. A member with no dominator is the Condorcet
    winner and the one minimal set; the pass returns it at once, which
    answers every subset of one or two members. At most three uncovered
    members are the one minimal set, with no recursion. When U has at least
    ``_ORBIT_MIN_SIZE`` members, is regular and beats every member outside
    it, ``_share_orbit`` first seeds the memo with the successors of the
    lowest member's orbit under its automorphism group.

    Successors are built lazily (``_lazy_successors``), finding seeded ones
    in the memo: for the lowest uncovered member, then for every member they
    reach, all uncovered by the lemma, so an explored member's whole reach
    is explored and whether it lies in a terminal SCC is settled. A minimal
    set not yet found lies in the unexplored uncovered members W, so it has
    at least three members, and it is dominant in ``subset``: no member
    outside it beats all of it. The next unexplored member is explored only
    while |W| >= 3 and no member of ``subset`` beats all of W; otherwise W
    holds no minimal set.

    Lemma: for every v in S = ``subset`` with dominators D = dom(v), TEQ(D)
    lies in U = UC(S). Say y in D is covered in S by z. Then z beats y, and
    y beats v, so z beats v. So z is in D, and z covers y inside D too,
    since D lies in S. Hence y is outside UC(D), which holds TEQ(D) by
    induction on |S|: D is smaller than S, and for every S the lemma gives
    TEQ(S) in UC(S), since every edge points into UC(S) and a covered member
    is in no terminal SCC, as above. (Schwartz 1990 reaches TEQ in UC
    through the Banks set.)

    Rule 1: UC(D) lies in C = D & UC(S), by the lemma's proof, so C bounds
    the candidates of D. The pass then finds UC(D) exactly, so the memo
    stays keyed by D alone and its value is exact whichever parent first
    reached D.

    Write TC for the top cycle of ``subset``: its least nonempty part that
    dominates the rest. No member outside TC beats a member of TC.

    U = UC(TC) and U lies in TC. An uncovered member u is a king: any w that
    beats u fails to cover u, so some z beaten by u beats w. Hence u reaches
    every member, and since nothing outside TC reaches TC, u is in TC. For v
    in TC only members of TC beat v, and each of them beats everything
    outside TC, so y covers v in ``subset`` iff y covers v in TC.

    For v in TC, dom(v) in ``subset`` equals dom(v) in TC, since no outsider
    beats v. So the successors of members of U are memoised under the same
    keys whether the recursion starts from ``subset`` or from TC, and a
    member beating all of some W inside U lies in TC.

    Without a Condorcet winner every minimal set has at least three members:
    {x} is not retentive, since TEQ(dominators of x) is nonempty and
    excludes x; nor is {x, y} with x beating y, since TEQ(dominators of x) is
    nonempty and excludes both. The minimal sets are disjoint and lie in U,
    and there is at least one, so if |U| <= 3 then U is the only one.

    Rule 2: if C (rule 1) has at most three members, TEQ(D) is C's
    Condorcet winner if C has one, and C otherwise. TEQ(D) lies in UC(D),
    which lies in C, and is nonempty, since D is. If D has a Condorcet
    winner c, then TEQ(D) = {c}, and c is in C and beats the rest of C.
    Otherwise every minimal set of D has at least three members and lies in
    C, so C is the only one and TEQ(D) = C. Then no x in C beats the other
    two members: if one did, TEQ(dominators of x in D) would be nonempty
    and lie outside C, and C would not be retentive.

    No member of a regular tournament is covered, since a cover would score
    higher. So if TC is regular, U = TC, and U beats every member outside
    it. Conversely, if U beats every member outside it, U is dominant, so it
    holds TC, which holds U; U = TC. Hence the orbit gate holds exactly when
    the top cycle is regular with at least ``_ORBIT_MIN_SIZE`` members.

    Lemma: a TEQ-retentive set R of a tournament S is dominant, i.e. every y
    in S outside R is beaten by some member of R. By induction on |S|; for
    |S| = 1, R = S. Suppose y outside R beats all of R, and take x in R.
    Then y is in dom(x), so TEQ(dom(x)) lies in R. As a union of retentive
    sets of dom(x) it is itself retentive there, and y, a member of dom(x)
    outside it, beats all of it. That contradicts the hypothesis for dom(x),
    which is smaller than S.
    """
    uncovered = 0
    rest = candidates
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        # covers ends as the members of subset that beat v and all that v beats
        covers = dom_of[v] & subset
        if not covers:
            return [bit]
        wins = subset ^ covers ^ bit
        while wins and covers:
            low = wins & -wins
            covers &= dom_of[low.bit_length() - 1]
            wins ^= low
        if not covers:
            uncovered |= bit
    size = uncovered.bit_count()
    if size <= 3:
        return [uncovered]
    # U is a regular top cycle iff it has odd size, each member is beaten by
    # half the rest of U and by none outside it (proof above)
    if size >= _ORBIT_MIN_SIZE and size & 1 and all(
            (dom_of[v] & uncovered).bit_count() == size >> 1 and not dom_of[v] & subset & ~uncovered
            for v in iter_members(uncovered)):
        _share_orbit(dom_of, table, uncovered, deadline)
    return _terminal_scc_masks(*_lazy_successors(dom_of, table, subset, uncovered, deadline))


def _lazy_successors(dom_of: tuple[AltSet, ...], table: dict[AltSet, AltSet], subset: AltSet,
                     uncovered: AltSet, deadline: float | None) -> tuple[dict[int, AltSet], AltSet, AltSet]:
    """Successors of the uncovered members of ``subset`` that can matter, those members, and the first closure.

    Explores the lowest unexplored uncovered member, then every member its
    successors reach, and repeats while the unexplored uncovered members W
    could still hold a minimal set: |W| >= 3 and no member of ``subset``
    beats all of W. The successor of v is TEQ of its dominators D in
    ``subset``, whose candidates are C = D & ``uncovered`` (rule 1). If C
    has more than three members, it recurses; otherwise rule 2 reads TEQ(D)
    off C with no call and no deadline check, and stores it under D like a
    recursion would, so a following ``is_retentive`` recurses no more.
    ``_minimal_sets`` proves both rules, that every successor is uncovered,
    and the stopping test.

    Returns the successors; the explored members, which are closed under
    successors and so are the candidates for ``_terminal_scc_masks``; and
    the members the first round explored: the forward closure of the lowest
    uncovered member, which is the lowest candidate, so the peel starts
    from them.
    """
    succ = {}
    explored = first = 0
    unexplored = uncovered
    while True:
        todo = unexplored & -unexplored
        while todo:
            bit = todo & -todo
            explored |= bit
            v = bit.bit_length() - 1
            d = dom_of[v] & subset
            candidates = d & uncovered
            if candidates.bit_count() > 3:
                found = _teq_rec(dom_of, table, d, candidates, deadline)
            else:
                # rule 2 at _minimal_sets: the candidates' Condorcet winner, or all of them
                found = rest = candidates
                while rest:
                    low = rest & -rest
                    if not dom_of[low.bit_length() - 1] & candidates:
                        found = low
                        break
                    rest ^= low
                table[d] = found
            succ[v] = found
            todo = (todo | found) & ~explored
        first = first or explored
        unexplored = uncovered & ~explored
        if unexplored.bit_count() < 3 or _beaten_by_one(dom_of, subset, unexplored):
            return succ, explored, first


def _beaten_by_one(dom_of: tuple[AltSet, ...], subset: AltSet, group: AltSet) -> bool:
    """Whether one member of ``subset`` beats every member of the nonempty ``group``."""
    common = subset
    while group and common:
        low = group & -group
        common &= dom_of[low.bit_length() - 1]
        group ^= low
    return common != 0


def _share_orbit(dom_of: tuple[AltSet, ...], table: dict[AltSet, AltSet], top: AltSet,
                 deadline: float | None) -> None:
    """Memoise TEQ(dominators of x in ``top``) for the lowest member's orbit in a regular top cycle.

    TEQ is neutral: an automorphism g of the top cycle maps the dominators
    of u onto those of g(u), so TEQ(dom(g(u))) = g(TEQ(dom(u))). The
    recursion runs for the lowest member r. Then, while ``core._match``
    finds an automorphism taking r to the lowest member not yet reached
    (McKay & Piperno 2014), the known successors are closed under every
    automorphism found and each mapped one is stored in the memo. Each
    automorphism found is kept beside one ``core._mapper`` getter, so
    each successor is mapped in one call. The first member shown to lie
    outside r's orbit ends the step. An automorphism of "is beaten by" is
    one of the tournament, so the search reads ``dom_of``: the rows of the
    disjoint union it searches, ``dom_of`` and a copy shifted up by the
    order, are built once here and serve every member tried. It checks
    ``deadline`` too.

    Every entry seeded is TEQ of its own key, for any ``top``: the
    automorphisms are those of the tournament on ``top``, on which TEQ is
    neutral. So the gate in ``_minimal_sets`` decides cost, never answers.
    """
    n = len(dom_of)
    rows = (*dom_of, *(row << n for row in dom_of))
    r = (top & -top).bit_length() - 1
    rest = top ^ (1 << r)
    d = dom_of[r] & top
    succ = {r: _teq_rec(dom_of, table, d, d, deadline)}
    automorphisms = []
    for v in iter_members(rest):
        if v in succ:
            continue
        g = _match(rows, n, [1 << r | 1 << v + n, rest | (top ^ 1 << v) << n], deadline)
        if g is None:
            return
        automorphisms.append((g, _mapper(g, top, n)))
        todo = list(succ)
        while todo:
            u = todo.pop()
            for h, image in automorphisms:
                w = h[u]
                if w not in succ:
                    succ[w] = table[dom_of[w] & top] = image(succ[u])
                    todo.append(w)


def _teq_rec(dom_of: tuple[AltSet, ...], table: dict[AltSet, AltSet], subset: AltSet,
             candidates: AltSet, deadline: float | None) -> AltSet:
    """TEQ of ``subset``, memoised in ``table`` under ``subset`` alone.

    TEQ is the union of the minimal retentive sets. ``candidates`` are the
    members of ``subset`` that can be uncovered (rule 1 at
    ``_minimal_sets``).
    """
    cached = table.get(subset)
    if cached is not None:
        return cached
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded
    # the minimal sets are pairwise disjoint, so their sum is their union
    result = table[subset] = sum(_minimal_sets(dom_of, table, subset, candidates, deadline))
    return result


def teq_of_subset(cache: TeqCache, subset: AltSet) -> AltSet:
    """TEQ of the subtournament induced by ``subset``, in base indices.

    Equals teq(restrict(base, subset)) lifted back through the index mapping;
    memoized in the cache.
    """
    if not subset:
        raise ValueError("empty subset")
    if subset & ~full_set(cache.base.order):
        raise ValueError("subset contains out-of-range alternatives")
    cached = cache.table.get(subset)
    if cached is not None:
        cache.hits += 1
        return cached
    cache.misses += 1
    return _teq_rec(cache.base.dom_of, cache.table, subset, subset, cache.deadline)


def teq(t: Tournament) -> AltSet:
    """The tournament equilibrium set of t. Nonempty for every tournament."""
    return teq_of_subset(TeqCache(t), full_set(t.order))


def is_retentive(cache: TeqCache, x_set: AltSet) -> bool:
    """Whether x_set is TEQ-retentive in the cache's base tournament.

    True iff TEQ(dominators(x)) is contained (non-strictly) in x_set for every
    member x with a nonempty dominator set.
    """
    if not x_set:
        raise ValueError("empty set")
    if x_set & ~full_set(cache.base.order):
        raise ValueError("set contains out-of-range alternatives")
    dom_of = cache.base.dom_of
    for v in iter_members(x_set):
        d = dom_of[v]
        if d and teq_of_subset(cache, d) & ~x_set:
            return False
    return True


def minimal_retentive_sets(t: Tournament, cache: TeqCache | None = None) -> list[AltSet]:
    """All inclusion-minimal TEQ-retentive sets of t, ordered by smallest member.

    They are pairwise disjoint and their union is teq(t). ``_minimal_sets``
    finds them, and its docstring proves each step. A given ``cache`` must
    have base t.
    """
    if cache is None:
        cache = TeqCache(t)
    elif cache.base != t:
        raise ValueError("cache belongs to a different tournament")
    if cache.deadline is not None and time.monotonic() >= cache.deadline:
        raise DeadlineExceeded
    everyone = full_set(t.order)
    return _minimal_sets(t.dom_of, cache.table, everyone, everyone, cache.deadline)


def bruteforce_minimal_retentive_sets(t: Tournament) -> list[AltSet]:
    """Minimal retentive sets by literal definition; independent of the SCC path.

    Enumerates every nonempty subset and tests retentiveness directly, with
    inner TEQ values computed by the same brute-force recursion (memoized).
    Guarded to order <= 12.
    """
    if t.order > BRUTEFORCE_MAX_ORDER:
        raise ValueError(f"brute force is limited to order {BRUTEFORCE_MAX_ORDER}, got {t.order}")
    memo: dict[AltSet, AltSet] = {}
    minimal = _bf_minimal_sets(t.dom_of, memo, full_set(t.order))
    return sorted(minimal, key=lambda m: m & -m)


def teq_bruteforce(t: Tournament) -> AltSet:
    """TEQ by literal definition: union of the brute-force minimal sets."""
    result = 0
    for s in bruteforce_minimal_retentive_sets(t):
        result |= s
    return result


def _bf_minimal_sets(dom_of, memo, subset):
    # inner TEQ value per member; None marks an empty dominator set (vacuous)
    inner = {}
    rest = subset
    while rest:
        lowbit = rest & -rest
        v = lowbit.bit_length() - 1
        rest ^= lowbit
        d = dom_of[v] & subset
        inner[v] = _bf_teq(dom_of, memo, d) if d else None

    retentive = []
    x = subset
    while x:
        ok = True
        rest = x
        while rest:
            lowbit = rest & -rest
            v = lowbit.bit_length() - 1
            rest ^= lowbit
            iv = inner[v]
            if iv is not None and iv & ~x:
                ok = False
                break
        if ok:
            retentive.append(x)
        x = (x - 1) & subset

    retentive.sort(key=int.bit_count)
    minimal = []
    for r in retentive:
        if not any(m & ~r == 0 for m in minimal):
            minimal.append(r)
    return minimal


def _bf_teq(dom_of, memo, subset):
    cached = memo.get(subset)
    if cached is not None:
        return cached
    if subset & (subset - 1) == 0:
        memo[subset] = subset
        return subset
    result = 0
    for m in _bf_minimal_sets(dom_of, memo, subset):
        result |= m
    memo[subset] = result
    return result

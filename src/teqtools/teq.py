"""Tournament equilibrium set (TEQ) and retentive-set machinery.

TEQ(T) is the union of all inclusion-minimal TEQ-retentive sets of T, where a
nonempty S is TEQ-retentive if TEQ(dominators(x)) stays inside S for every
x in S that has dominators. These sets all lie in the top cycle of T (its
least nonempty subset that dominates every alternative outside it) and are
exactly the terminal SCCs of the relation graph x -> TEQ(dominators(x)) on
the top cycle, found by comparing bitset reach-sets. TEQ also lies in the
uncovered set (Schwartz 1990: TEQ is inside the Banks set, which is inside
the uncovered set), so a covered top-cycle member is in no terminal SCC.
The recursion therefore only descends into dominator subsets of uncovered
top-cycle members, memoised by subset bitmask, and only of those that can
matter: it explores the lowest uncovered member and every uncovered member
its successors reach, and explores the next unexplored one only while the
unexplored uncovered members U could still hold a minimal set, that is
while |U| >= 3 and no top-cycle member beats all of U. A retentive set is
dominant (proof at ``_minimal_sets``), so a minimal set inside U would be
beaten by no outsider. Two cases need no recursion:
a subset of one or two members is its Condorcet winner, and a top cycle of
four or more members with exactly three uncovered members has those three
as its one minimal set, since there every minimal set has at least three
members (proof at ``_minimal_sets``). TEQ is also neutral: an
automorphism maps TEQ of a set onto TEQ of its image. So on a large regular
top cycle, where no member is covered, the recursion runs once for the
lowest member, and the successors of every member found in its orbit are
that one mapped through an automorphism (individualisation-refinement,
``core._match``) and stored in the memo too. ``teq_bruteforce`` is an
independent oracle that transcribes the definition literally (subset
enumeration, no SCC shortcut, no covering argument, no automorphisms).
"""

from __future__ import annotations

import time

from .core import AltSet, DeadlineExceeded, Tournament, _map_set, _match, full_set, iter_members

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
    visits, the table holds the successors mapped from another member's
    through an automorphism of a regular top cycle, keyed by that member's
    dominators in the top cycle. Never share a cache across different base
    tournaments; a cache is confined to one computation at a time.
    ``hits``/``misses`` count top-level queries, not internal recursion.
    """

    __slots__ = ("base", "table", "hits", "misses", "deadline")

    def __init__(self, base: Tournament, deadline: float | None = None):
        self.base = base
        self.table: dict[AltSet, AltSet] = {}
        self.hits = 0
        self.misses = 0
        self.deadline = deadline  # time.monotonic() cutoff, None = unlimited


def _terminal_scc_masks(succ: dict[int, AltSet], candidates: AltSet) -> list[AltSet]:
    """Terminal SCCs (no outgoing edges) of the graph that lie in ``candidates``.

    Computes each candidate's reach-set (itself plus everything reachable) by
    frontier closure, taking a finished reach-set whole. A vertex lies in a
    terminal SCC iff every member of its reach-set has that same reach-set,
    which is then the component. ``succ`` has a key for every candidate.
    Closure stops at the first non-candidate reached: a terminal SCC holds
    everything its members reach, so a reach-set holding a non-candidate
    never equals its group of candidates and no vertex that reaches one is
    reported. Output ordered by smallest member: candidates are visited in
    ascending order, so a component's key is inserted at its smallest member.
    """
    outside = ~candidates
    reach: dict[int, AltSet] = {}
    groups: dict[AltSet, AltSet] = {}  # reach-set -> the vertices that have it
    rest = candidates
    while rest:
        bit = rest & -rest
        rest ^= bit
        seen = closed = 0
        todo = bit
        while todo and not seen & outside:
            low = todo & -todo
            w = low.bit_length() - 1
            done = reach.get(w, low)
            seen |= done | succ[w]
            closed |= done
            todo = seen & ~closed
        reach[bit.bit_length() - 1] = seen
        groups[seen] = groups.get(seen, 0) | bit
    return [r for r, g in groups.items() if g == r]


def _top_cycle(dom_of: tuple[AltSet, ...], subset: AltSet) -> AltSet:
    """Top cycle of ``subset``: its least nonempty part that dominates the rest.

    A member with the fewest dominators lies in it, and the top cycle is that
    member plus everything that reaches it along dominance edges.
    """
    best = subset & -subset
    fewest = dom_of[best.bit_length() - 1] & subset
    rest = subset ^ best
    while rest and fewest:
        low = rest & -rest
        d = dom_of[low.bit_length() - 1] & subset
        if d.bit_count() < fewest.bit_count():
            best, fewest = low, d
        rest ^= low
    top, todo = best | fewest, fewest
    while todo:
        low = todo & -todo
        new = dom_of[low.bit_length() - 1] & subset & ~top
        top |= new
        todo = (todo ^ low) | new
    return top


def _minimal_sets(dom_of: tuple[AltSet, ...], beats: tuple[AltSet, ...],
                  table: dict[AltSet, AltSet], top: AltSet, deadline: float | None) -> list[AltSet]:
    """Minimal retentive sets of a top cycle, ordered by smallest member.

    They are the terminal SCCs of the relation graph x -> TEQ(dominators of x)
    on ``top``, which holds every dominator of its members. A top cycle of at
    most three members (a Condorcet winner or a 3-cycle) is the only one.
    A regular top cycle of at least ``_ORBIT_MIN_SIZE`` members takes its
    successors from ``_orbit_successors``, which shares one recursion across
    an orbit of its automorphism group. Otherwise only the uncovered members
    count: v is covered when a member y beats v and everything v beats in
    ``top``. TEQ lies in the uncovered set (Schwartz 1990), so a covered
    member is in no terminal SCC, and neither is any member that reaches one.

    Three uncovered members are the one minimal set, with no recursion. In a
    top cycle of at least four members every member has a dominator, so a
    minimal set has at least three members: {x} is not retentive, since
    TEQ(dominators of x) is nonempty and excludes x; nor is {x, y} with x
    beating y, since TEQ(dominators of x) is nonempty and excludes both. The
    minimal sets are disjoint and lie in the uncovered set, so three
    uncovered members form the only one.

    Otherwise successors are built lazily (``_lazy_successors``): for the
    lowest uncovered member, then for every uncovered member they reach, so
    an explored member's whole reach is explored and whether it lies in a
    terminal SCC is settled. A minimal set not yet found lies in the
    unexplored uncovered members U, so it has at least three members, and it
    is dominant in ``top``: no member of ``top`` outside it beats all of it.
    The next unexplored member is explored only while |U| >= 3 and no member
    of ``top`` beats all of U; otherwise U holds no minimal set.

    Lemma: a TEQ-retentive set R of a tournament S is dominant, i.e. every y
    in S outside R is beaten by some member of R. By induction on |S|; for
    |S| = 1, R = S. Suppose y outside R beats all of R, and take x in R.
    Then y is in dom(x), so TEQ(dom(x)) lies in R. As a union of retentive
    sets of dom(x) it is itself retentive there, and y, a member of dom(x)
    outside it, beats all of it. That contradicts the hypothesis for dom(x),
    which is smaller than S.
    """
    size = top.bit_count()
    if size <= 3:
        return [top]
    # regular needs an odd size and every score half of the rest; the lowest
    # member's score is checked first, so most tops are rejected at once
    if (size >= _ORBIT_MIN_SIZE and size & 1
            and (beats[(top & -top).bit_length() - 1] & top).bit_count() == size >> 1
            and all((beats[v] & top).bit_count() == size >> 1 for v in iter_members(top))):
        return _terminal_scc_masks(_orbit_successors(dom_of, beats, table, top, deadline), top)
    uncovered = 0
    rest = top
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        # covers ends as the members of top that beat v and all that v beats
        covers = dom_of[v] & top
        wins = beats[v] & top
        while wins and covers:
            low = wins & -wins
            covers &= dom_of[low.bit_length() - 1]
            wins ^= low
        if not covers:
            uncovered |= bit
    if uncovered.bit_count() == 3:
        return [uncovered]
    return _terminal_scc_masks(*_lazy_successors(dom_of, beats, table, top, uncovered, deadline))


def _lazy_successors(dom_of: tuple[AltSet, ...], beats: tuple[AltSet, ...],
                     table: dict[AltSet, AltSet], top: AltSet, uncovered: AltSet,
                     deadline: float | None) -> tuple[dict[int, AltSet], AltSet]:
    """Successors of the uncovered members of ``top`` that can matter, and those members.

    Explores the lowest unexplored uncovered member, then every uncovered
    member its successors reach; covered members are never expanded. It
    repeats while the unexplored uncovered members U could still hold a
    minimal set: |U| >= 3 and no member of ``top`` beats all of U (see
    ``_minimal_sets``). Returns the successors and the explored members, the
    candidates for ``_terminal_scc_masks``: an explored member reaches only
    explored and covered members, so its status is settled.
    """
    succ = {}
    explored = 0
    unexplored = uncovered
    while True:
        todo = unexplored & -unexplored
        while todo:
            bit = todo & -todo
            explored |= bit
            v = bit.bit_length() - 1
            found = succ[v] = _teq_rec(dom_of, beats, table, dom_of[v] & top, deadline)
            todo = (todo | found & uncovered) & ~explored
        unexplored = uncovered & ~explored
        if unexplored.bit_count() < 3 or _beaten_by_one(dom_of, top, unexplored):
            return succ, explored


def _beaten_by_one(dom_of: tuple[AltSet, ...], top: AltSet, group: AltSet) -> bool:
    """Whether one member of ``top`` beats every member of the nonempty ``group``."""
    common = top
    while group and common:
        low = group & -group
        common &= dom_of[low.bit_length() - 1]
        group ^= low
    return common != 0


def _orbit_successors(dom_of: tuple[AltSet, ...], beats: tuple[AltSet, ...],
                      table: dict[AltSet, AltSet], top: AltSet,
                      deadline: float | None) -> dict[int, AltSet]:
    """x -> TEQ(dominators of x in ``top``) for every member of a regular top cycle.

    No member of a regular tournament is covered, since a cover would score
    higher. TEQ is neutral: an automorphism g of the top cycle maps the
    dominators of u onto those of g(u), so TEQ(dom(g(u))) = g(TEQ(dom(u))).
    The recursion runs for the lowest member r. Then, while the lowest member
    not yet reached has r's out-neighbourhood score multiset and ``core._match``
    finds an automorphism taking r to it (McKay & Piperno 2014), the known
    successors are closed under every automorphism found, and each mapped
    successor is also stored in the memo. From the first member shown to lie
    outside r's orbit on, every member still unreached is recursed on directly.
    The automorphism search checks ``deadline`` too.
    """
    r = (top & -top).bit_length() - 1
    rest = top ^ (1 << r)
    succ = {r: _teq_rec(dom_of, beats, table, dom_of[r] & top, deadline)}
    profile = _out_profile(beats, top, r)
    automorphisms = []
    for v in iter_members(rest):
        if v in succ:
            continue
        if _out_profile(beats, top, v) != profile:
            break
        g = _match(beats, beats, [1 << r, rest], [1 << v, top ^ (1 << v)], deadline)
        if g is None:
            break
        automorphisms.append(g)
        todo = list(succ)
        while todo:
            u = todo.pop()
            for h in automorphisms:
                w = h[u]
                if w not in succ:
                    succ[w] = table[dom_of[w] & top] = _map_set(h, succ[u])
                    todo.append(w)
    for v in iter_members(rest):
        if v not in succ:
            succ[v] = _teq_rec(dom_of, beats, table, dom_of[v] & top, deadline)
    return succ


def _out_profile(beats: tuple[AltSet, ...], top: AltSet, v: int) -> list[int]:
    """Sorted scores inside v's out-neighbourhood in ``top``; an automorphism invariant of v."""
    out = beats[v] & top
    return sorted((beats[w] & out).bit_count() for w in iter_members(out))


def _teq_rec(dom_of: tuple[AltSet, ...], beats: tuple[AltSet, ...], table: dict[AltSet, AltSet],
             subset: AltSet, deadline: float | None) -> AltSet:
    """TEQ of ``subset``, memoised in ``table``.

    A subset of one or two members is its Condorcet winner. Otherwise TEQ
    lies inside the top cycle, so only the top cycle is searched and its memo
    entry is shared by every subset with the same top cycle.
    """
    cached = table.get(subset)
    if cached is not None:
        return cached
    low = subset & -subset
    high = subset ^ low
    if high & (high - 1) == 0:
        result = table[subset] = high if high and not beats[low.bit_length() - 1] & high else low
        return result
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded
    top = _top_cycle(dom_of, subset)
    result = table.get(top)
    if result is None:
        # the minimal sets are pairwise disjoint, so their sum is their union
        result = table[top] = sum(_minimal_sets(dom_of, beats, table, top, deadline))
    table[subset] = result
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
    base = cache.base
    return _teq_rec(base.dom_of, base.beats, cache.table, subset, cache.deadline)


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

    These are the terminal SCCs of the relation graph on the top cycle of t;
    they are pairwise disjoint and their union is teq(t). Successors are
    built only for uncovered top-cycle members, since TEQ lies in the
    uncovered set (Schwartz 1990), and a large regular top cycle shares them
    across automorphism orbits. A given ``cache`` must have base t.
    """
    if cache is None:
        cache = TeqCache(t)
    elif cache.base != t:
        raise ValueError("cache belongs to a different tournament")
    if cache.deadline is not None and time.monotonic() >= cache.deadline:
        raise DeadlineExceeded
    top = _top_cycle(t.dom_of, full_set(t.order))
    return _minimal_sets(t.dom_of, t.beats, cache.table, top, cache.deadline)


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

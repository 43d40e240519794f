import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teqtools.core import (
    MAX_ORDER,
    FormatError,
    Tournament,
    _lanes,
    _mapper,
    _preserves,
    _refine,
    altset,
    derive_seed,
    dominators,
    find_isomorphism,
    full_set,
    is_isomorphism,
    members,
    parse,
    random_tournament,
    restrict,
    serialize,
)

from conftest import (
    circulant,
    cycle_tournament,
    flip_edge,
    quadratic_residues,
    random_connection_set,
    relabel,
    transitive_tournament,
    union_rows,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


class TestNewTournament:
    """Building a Tournament from its rows of beaten alternatives."""

    def test_single_alternative(self):
        t = Tournament([0])
        assert t.order == 1
        assert t.beats == (0,)

    def test_three_cycle(self):
        t = Tournament([0b010, 0b100, 0b001])
        assert t.dominates(0, 1) and t.dominates(1, 2) and t.dominates(2, 0)

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match=r"asymmetry violated at \(0,1\)"):
            Tournament([0b10, 0b01])

    def test_completeness_rejected(self):
        with pytest.raises(ValueError, match=r"completeness violated at \(0,1\)"):
            Tournament([0, 0])

    def test_reflexive_rejected(self):
        with pytest.raises(ValueError, match="reflexive"):
            Tournament([0b11, 0])

    def test_row_beyond_order_rejected(self):
        with pytest.raises(ValueError, match="^alternative 1 dominates out-of-range alternatives$"):
            Tournament([0, 0b101])

    @pytest.mark.parametrize("order, i, bit, message", [
        (5, 2, 6, "^alternative 2 dominates out-of-range alternatives$"),  # inside the 8-bit lane
        (5, 2, 9, "^alternative 2 dominates out-of-range alternatives$"),  # past the lane
        (64, 0, 64, "^alternative 0 dominates out-of-range alternatives$"),  # past 64 bits
        (64, 63, 63, r"^reflexive entry at \(63,63\)$"),
    ])
    def test_stray_bit_rejected(self, order, i, bit, message):
        # the other rows are a tournament, so the stray bit alone makes the rows invalid
        rows = list(transitive_tournament(order).beats)
        rows[i] |= 1 << bit
        with pytest.raises(ValueError, match=message):
            Tournament(rows)

    @pytest.mark.parametrize("rows, error, message", [
        ([-1], ValueError, "^alternative 0 dominates out-of-range alternatives$"),
        ([-1, 0], ValueError, "^alternative 0 dominates out-of-range alternatives$"),
        ([2.0, 0], TypeError, "unsupported operand"),
    ])
    def test_row_that_is_no_bit_set_rejected(self, rows, error, message):
        with pytest.raises(error, match=message):
            Tournament(rows)

    @pytest.mark.parametrize("order", [0, 65])
    def test_order_bounds(self, order):
        with pytest.raises(ValueError, match="order"):
            Tournament([0] * order)

    def test_first_bad_pair_in_row_order(self):
        # row 1 misses (0,1) before row 2's asymmetric (0,2) is reached
        with pytest.raises(ValueError, match=r"^completeness violated at \(0,1\)$"):
            Tournament([0b100, 0b100, 0b011])

    def test_dom_of_is_the_transpose(self):
        # every lane width of the transpose (8, 16, 32 and 64 bits) and both
        # sides of each boundary; the transitive tournament and its reverse
        # put bit order - 1 in row 0 and every lower bit in row order - 1
        for order in range(1, MAX_ORDER + 1):
            reverse = Tournament([full_set(i) for i in range(order)])
            for t in [transitive_tournament(order), reverse] + [random_tournament(order, k) for k in range(3)]:
                rows = t.beats
                assert Tournament(rows).dom_of == tuple(
                    altset(i for i in range(order) if rows[i] >> j & 1) for j in range(order))

    def test_immutable(self):
        t = transitive_tournament(3)
        with pytest.raises(AttributeError):
            t.order = 5


class TestDominators:
    def test_counterexample_within_x(self, big_t, instance):
        # x4, x5, x6, x8, x9, x12 dominate x1 inside X
        assert dominators(big_t, instance.x_set, 0) == altset([3, 4, 5, 7, 8, 11])

    def test_counterexample_within_y(self, big_t, instance):
        # only the top Y block dominates x1
        assert dominators(big_t, instance.y_set, 0) == altset(range(12, 18))

    def test_condorcet_winner_has_none(self):
        t = transitive_tournament(5)
        assert dominators(t, full_set(5), 0) == 0

    def test_never_contains_x(self):
        t = cycle_tournament(5)
        for x in range(5):
            assert not (dominators(t, full_set(5), x) >> x) & 1

    def test_out_of_range(self):
        t = transitive_tournament(3)
        with pytest.raises(IndexError):
            dominators(t, full_set(3), 3)

    def test_within_out_of_range(self):
        t = transitive_tournament(3)
        with pytest.raises(ValueError, match="^within-set contains out-of-range alternatives$"):
            dominators(t, 0b1001, 0)

    @given(seed=seeds, order=st.integers(2, 16))
    def test_definition_and_total_count(self, seed, order):
        t = random_tournament(order, seed)
        univ = full_set(order)
        total = 0
        for x in range(order):
            d = dominators(t, univ, x)
            assert d & ~(univ ^ (1 << x)) == 0
            for y in range(order):
                assert bool((d >> y) & 1) == (y != x and t.dominates(y, x))
            total += d.bit_count()
        assert total == order * (order - 1) // 2


class TestRestrict:
    def test_full_set_is_identity(self):
        t = cycle_tournament(7)
        sub, mapping = restrict(t, full_set(7))
        assert sub == t
        assert mapping == tuple(range(7))

    def test_three_cycle_pair(self):
        t = Tournament([0b010, 0b100, 0b001])
        sub, mapping = restrict(t, altset([0, 1]))
        assert sub.order == 2
        assert sub.dominates(0, 1)
        assert mapping == (0, 1)

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="empty"):
            restrict(transitive_tournament(3), 0)

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError, match="^subset contains out-of-range alternatives$"):
            restrict(transitive_tournament(3), 0b1010)

    def test_counterexample_x_half_dominator_row(self, big_t, instance):
        # inside T|X the dominators of x5 are x2, x3, x4, x8, x10, x11
        sub, mapping = restrict(big_t, instance.x_set)
        assert mapping == tuple(range(12))
        assert dominators(sub, full_set(12), 4) == altset([1, 2, 3, 7, 9, 10])

    @given(seed=seeds, order=st.integers(2, 12), subset_bits=st.integers(min_value=1))
    def test_preserves_dominance(self, seed, order, subset_bits):
        t = random_tournament(order, seed)
        subset = subset_bits % (1 << order)
        if subset == 0:
            subset = 1
        sub, mapping = restrict(t, subset)
        for i in range(sub.order):
            for j in range(sub.order):
                if i != j:
                    assert sub.dominates(i, j) == t.dominates(mapping[i], mapping[j])


def brute_force_isomorphism(a, b):
    """Oracle: scan all permutations."""
    if a.order != b.order:
        return None
    for perm in itertools.permutations(range(a.order)):
        if is_isomorphism(a, b, perm):
            return perm
    return None


def score_class_isomorphisms(a, b):
    """Oracle: every isomorphism from a to b, by backtracking in score-class order.

    Rejects on mismatched score sequences, then assigns a's alternatives in
    (score, index) order, each to an unused alternative of b with the same
    score whose dominance against every earlier assignment agrees.
    """
    if a.order != b.order:
        return
    n = a.order
    scores_a = [a.beats[i].bit_count() for i in range(n)]
    scores_b = [b.beats[i].bit_count() for i in range(n)]
    if sorted(scores_a) != sorted(scores_b):
        return
    order_a = sorted(range(n), key=lambda v: (scores_a[v], v))
    candidates = {v: [w for w in range(n) if scores_b[w] == scores_a[v]] for v in order_a}
    mapping = [-1] * n
    used = [False] * n

    def assign(pos):
        if pos == n:
            yield tuple(mapping)
            return
        v = order_a[pos]
        for w in candidates[v]:
            if used[w]:
                continue
            if all(a.dominates(v, prev) == b.dominates(w, mapping[prev]) for prev in order_a[:pos]):
                mapping[v] = w
                used[w] = True
                yield from assign(pos + 1)
                used[w] = False
                mapping[v] = -1

    yield from assign(0)


def reverse_a_three_cycle(t):
    """t with its first 3-cycle i -> j -> k -> i reversed, which keeps every score; t if acyclic."""
    for i, j, k in itertools.permutations(range(t.order), 3):
        if t.dominates(i, j) and t.dominates(j, k) and t.dominates(k, i):
            beats = list(t.beats)
            for x, y in ((i, j), (j, k), (k, i)):
                beats[x] ^= 1 << y
                beats[y] |= 1 << x
            return Tournament(beats)
    return t


def multiplier_equivalent(p, s, t):
    """At prime order p, circulant(p, s) and circulant(p, t) are isomorphic iff
    some unit u maps s onto t (Turner 1967)."""
    return any({u * x % p for x in s} == set(t) for u in range(1, p))


class TestFindIsomorphism:
    def test_self_identity_works(self):
        t = cycle_tournament(5)
        witness = find_isomorphism(t, t)
        assert witness is not None
        assert is_isomorphism(t, t, witness)

    def test_score_sequence_reject(self):
        assert find_isomorphism(cycle_tournament(3), transitive_tournament(3)) is None

    def test_order_mismatch(self):
        assert find_isomorphism(transitive_tournament(3), transitive_tournament(4)) is None

    @pytest.mark.parametrize("mapping", [[0, 1], [0, 1, 2, 0], [0, 0, 1], [0, 1, 3], [0, 1, -1],
                                         [0.0, 1, 2], [0, 1.0, 2], [0, None, 2]])
    def test_mapping_not_a_permutation(self, mapping):
        # [0, 1, -1] would read row -1, which is row 2, as the image of 2; 0.0 sorts
        # equal to 0 but cannot index a row, and None cannot be sorted with ints
        t = cycle_tournament(3)
        assert is_isomorphism(t, t, mapping) is False

    def test_relabeled_tournament_found(self):
        t = random_tournament(8, 99)
        relabeled = relabel(t, [3, 7, 0, 5, 1, 6, 2, 4])
        witness = find_isomorphism(t, relabeled)
        assert witness is not None
        assert is_isomorphism(t, relabeled, witness)

    def test_relabelled_order_64_found(self):
        # masks wider than 32 bits, at the order cap
        t = random_tournament(64, 2013)
        relabelled = relabel(t, random.Random(64).sample(range(64), 64))
        witness = find_isomorphism(t, relabelled)
        assert witness is not None
        assert is_isomorphism(t, relabelled, witness)

    @given(seed_a=seeds, seed_b=seeds, order=st.integers(1, 6))
    @settings(max_examples=60)
    def test_agrees_with_permutation_scan(self, seed_a, seed_b, order):
        a = random_tournament(order, seed_a)
        b = random_tournament(order, seed_b)
        got = find_isomorphism(a, b)
        expected = brute_force_isomorphism(a, b)
        assert (got is None) == (expected is None)
        if got is not None:
            assert is_isomorphism(a, b, got)

    def test_order_seven_sample_against_scan(self):
        for seed_a, seed_b in [(1, 2), (3, 3), (8, 15)]:
            a = random_tournament(7, seed_a)
            b = random_tournament(7, seed_b)
            got = find_isomorphism(a, b)
            expected = brute_force_isomorphism(a, b)
            assert (got is None) == (expected is None)
            if got is not None:
                assert is_isomorphism(a, b, got)

    def test_is_isomorphism_rejects_non_bijection(self):
        t = transitive_tournament(3)
        assert not is_isomorphism(t, t, (0, 0, 2))

    @given(order=st.integers(1, 12), seed_a=seeds, seed_b=seeds,
           kind=st.sampled_from(["independent", "relabelled", "three-cycle reversed"]),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_score_class_backtracker(self, order, seed_a, seed_b, kind, data):
        # A reversed 3-cycle keeps the score sequence, so only refinement
        # past the first round can tell such a pair apart.
        a = random_tournament(order, seed_a)
        if kind == "independent":
            b = random_tournament(order, seed_b)
        else:
            perm = data.draw(st.permutations(range(order)))
            b = relabel(a if kind == "relabelled" else reverse_a_three_cycle(a), perm)
        got = find_isomorphism(a, b)
        expected = next(score_class_isomorphisms(a, b), None)
        assert (got is None) == (expected is None)
        if kind == "relabelled":
            assert got is not None
        if got is not None:
            assert is_isomorphism(a, b, got)

    # 59 and 61 need masks wider than 32 bits
    @pytest.mark.parametrize("p", [19, 23, 29, 31, 37, 59, 61])
    def test_relabelled_circulants_against_multiplier_criterion(self, p):
        rng = random.Random(p)
        s = random_connection_set(rng, p)
        unit = rng.randrange(2, p)
        pairs = [(s, tuple(unit * x % p for x in s))]
        pairs += [(s, random_connection_set(rng, p)) for _ in range(2)]
        if p in (19, 23, 31, 59):
            paley = quadratic_residues(p)
            non_paley = paley[:-1] + (p - paley[-1],)
            pairs += [(paley, paley), (paley, non_paley)]
        verdicts = set()
        for s_a, s_b in pairs:
            a = relabel(circulant(p, s_a), rng.sample(range(p), p))
            b = relabel(circulant(p, s_b), rng.sample(range(p), p))
            expected = multiplier_equivalent(p, s_a, s_b)
            got = find_isomorphism(a, b)
            assert (got is not None) == expected, (s_a, s_b)
            if got is not None:
                assert is_isomorphism(a, b, got)
            verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("beats, perm", [
        ((30, 360, 170, 240, 326, 209, 389, 275, 45), (6, 0, 5, 7, 8, 4, 3, 2, 1)),
        ((174, 124, 728, 496, 1857, 468, 1921, 1810, 1543, 1067, 47),
         (6, 1, 9, 8, 7, 0, 3, 2, 10, 4, 5)),
    ])
    def test_backtracks_past_a_branch_whose_trace_matches(self, beats, perm):
        # Regular tournaments (rotational ones with some 3-cycles reversed) in
        # which the first alternative of b whose refinement matches leads to
        # no isomorphism, so the search must try the next one.
        a = Tournament(beats)
        b = relabel(a, perm)
        assert next(score_class_isomorphisms(a, b), None) is not None
        got = find_isomorphism(a, b)
        assert got is not None and is_isomorphism(a, b, got)

    def test_counterexample_halves_have_one_isomorphism(self, big_t, instance):
        # Exactly one X -> Y isomorphism exists, so the verifier's witness does
        # not depend on the order in which the search explores.
        tx, _ = restrict(big_t, instance.x_set)
        ty, _ = restrict(big_t, instance.y_set)
        identity = tuple(range(12))
        assert list(score_class_isomorphisms(tx, ty)) == [identity]
        assert find_isomorphism(tx, ty) == identity


def refine_by_rounds(beats_a, beats_b, cells_a, cells_b):
    """Reference refinement: each round splits every cell by each member's
    out-degree into every cell, until a round splits nothing; the two sides
    split in lockstep, and None means some cell split differently."""
    def split(beats, cell, cells):
        parts = {}
        for v in members(cell):
            key = tuple((beats[v] & c).bit_count() for c in cells)
            parts[key] = parts.get(key, 0) | (1 << v)
        return sorted(parts.items())

    while True:
        next_a, next_b = [], []
        for ca, cb in zip(cells_a, cells_b):
            parts_a, parts_b = split(beats_a, ca, cells_a), split(beats_b, cb, cells_b)
            if [(k, p.bit_count()) for k, p in parts_a] != [(k, p.bit_count()) for k, p in parts_b]:
                return None
            next_a += [p for _, p in parts_a]
            next_b += [p for _, p in parts_b]
        if len(next_a) == len(cells_a):
            return next_a, next_b
        cells_a, cells_b = next_a, next_b


class TestRefine:
    """The refinement walk over the cell list against the round-by-round reference."""

    @given(order=st.integers(1, 20), seed=seeds, kind=st.sampled_from(["random", "circulant"]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_cells_as_reference(self, order, seed, kind, data):
        # circulants are regular, so refinement starts only from individualised members
        if kind == "circulant" and order % 2:
            rng = random.Random(seed)
            a = circulant(order, random_connection_set(rng, order))
        else:
            a = random_tournament(order, seed)
        perm = data.draw(st.permutations(range(order)))
        b = relabel(a, perm)
        picked = data.draw(st.lists(st.integers(0, order - 1), max_size=2, unique=True))
        cells_a = [1 << v for v in picked] + [full_set(order) ^ altset(picked)]
        cells_a = [c for c in cells_a if c]
        image = [altset(perm[v] for v in members(c)) for c in cells_a]
        got = _refine(union_rows(a.beats, b.beats), order, [ca | cb << order for ca, cb in zip(cells_a, image)])
        expected = refine_by_rounds(a.beats, b.beats, cells_a, image)
        assert got is not None and expected is not None
        got_a, got_b = [c & full_set(order) for c in got], [c >> order for c in got]
        assert sorted(got_a) == sorted(expected[0])
        assert got_b == [altset(perm[v] for v in members(c)) for c in got_a]

    @pytest.mark.parametrize("a, b, cells_a, cells_b", [
        (transitive_tournament(5), transitive_tournament(5), [0b00001, 0b11110], [0b00010, 0b11101]),
        (random_tournament(7, 252), reverse_a_three_cycle(random_tournament(7, 252)),
         [full_set(7)], [full_set(7)]),
    ], ids=["scores-differ", "three-cycle-reversed"])
    def test_none_when_the_sides_split_differently(self, a, b, cells_a, cells_b):
        # 0 of a beats four members and 1 of b three, so the first singleton
        # split differs. A reversed 3-cycle keeps every score, and this pair
        # first differs in a split into four parts whose first part matches.
        n = a.order
        cells = [ca | cb << n for ca, cb in zip(cells_a, cells_b)]
        assert refine_by_rounds(a.beats, b.beats, cells_a, cells_b) is None
        assert _refine(union_rows(a.beats, b.beats), n, cells) is None


def preserves_bit_by_bit(beats_a, beats_b, cells_a, cells_b, mapping):
    """Reference for ``_preserves``: each out-neighbourhood in the union, mapped member by member."""
    union_a, union_b = sum(cells_a), sum(cells_b)
    return all(altset(mapping[w] for w in members(beats_a[v] & union_a))
               == beats_b[mapping[v]] & union_b
               for v in (c.bit_length() - 1 for c in cells_a))


class TestPreserves:
    """The packed-row dominance check of a discrete leaf against the bit-by-bit reference."""

    @given(order=st.integers(1, 64), seed=seeds, draw=st.integers(0, 2**32),
           whole=st.booleans(), broken=st.booleans())
    @example(order=64, seed=2013, draw=0, whole=True, broken=False)
    @example(order=64, seed=2013, draw=1, whole=True, broken=True)
    @example(order=64, seed=64, draw=2, whole=False, broken=False)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_bit_by_bit(self, order, seed, draw, whole, broken):
        # b is a relabelling of a; the mapping is the relabelling on the union,
        # or that with the images of two union members swapped
        rng = random.Random(draw)
        a = random_tournament(order, seed)
        perm = rng.sample(range(order), order)
        b = relabel(a, perm)
        union = full_set(order) if whole else rng.getrandbits(order) | 1 << rng.randrange(order)
        union_members = members(union)
        mapping = [0] * order
        for v in union_members:
            mapping[v] = perm[v]
        if broken and len(union_members) > 1:
            x, y = rng.sample(union_members, 2)
            mapping[x], mapping[y] = mapping[y], mapping[x]
        rng.shuffle(union_members)
        cells_a = [1 << v for v in union_members]
        cells_b = [1 << mapping[v] for v in union_members]
        cells = [ca | cb << order for ca, cb in zip(cells_a, cells_b)]
        got = _preserves(union_rows(a.beats, b.beats), order, cells, mapping)
        assert got == preserves_bit_by_bit(a.beats, b.beats, cells_a, cells_b, mapping)
        if not broken:
            assert got


def image_by_definition(mapping, s):
    """Reference for ``_mapper``: the image of s, member by member."""
    return sum(1 << mapping[j] for j in members(s))


class TestMapper:
    """The getter that maps a set at once against the image by its definition."""

    permutations = st.integers(1, 64).flatmap(lambda n: st.permutations(range(n)))
    words = st.integers(0, 2**64 - 1)

    @given(perm=permutations, bits=words)
    @example(perm=[0], bits=1)
    @example(perm=[(3 * v + 1) % 64 for v in range(64)], bits=2**64 - 2)
    @settings(max_examples=200, deadline=None)
    def test_permutation(self, perm, bits):
        everyone = full_set(len(perm))
        image = _mapper(perm, everyone, len(perm))
        assert image(bits & everyone) == image_by_definition(perm, bits & everyone)
        assert image(0) == 0
        assert image(everyone) == everyone

    @given(images=permutations, domain_bits=words, dropped=st.integers(0, 63), bits=words)
    @settings(max_examples=200, deadline=None)
    def test_partial_mapping(self, images, domain_bits, dropped, bits):
        # shaped like _match's output: the domain is a strict subset, each
        # member has its own image, and every other entry is 0
        order = len(images)
        domain = domain_bits & full_set(order) & ~(1 << dropped % order)
        mapping = [0] * order
        for v, w in zip(members(domain), images):
            mapping[v] = w
        image = _mapper(mapping, domain, order)
        assert image(bits & domain) == image_by_definition(mapping, bits & domain)
        assert image(0) == 0
        assert image(domain) == image_by_definition(mapping, domain)


def documented_beats(order, seed):
    """The rows of random_tournament(order, seed) by its definition, one derive_seed per pair."""
    beats = [0] * order
    for k, (i, j) in enumerate(itertools.combinations(range(order), 2)):
        if derive_seed(seed, k) >> 63:
            beats[i] |= 1 << j
        else:
            beats[j] |= 1 << i
    return tuple(beats)


class TestRandomTournament:
    def test_deterministic(self):
        assert random_tournament(5, 42) == random_tournament(5, 42)

    def test_order_one(self):
        assert random_tournament(1, 7).beats == (0,)

    def test_seed_changes_result(self):
        assert random_tournament(10, 1) != random_tournament(10, 2)

    @pytest.mark.parametrize("order", [0, 65])
    def test_order_bounds(self, order):
        with pytest.raises(ValueError):
            random_tournament(order, 0)

    def test_derive_seed_spread(self):
        values = {derive_seed(123, k) for k in range(1000)}
        assert len(values) == 1000

    def test_derive_seed_zero_is_splitmix64(self):
        # the first output of the reference splitmix64 generator seeded with 0
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 1, 2013, 2**63 + 5, 2**64 - 1, -2013])
    def test_matches_documented_definition(self, seed):
        for order in range(1, MAX_ORDER + 1):
            assert random_tournament(order, seed).beats == documented_beats(order, seed)

    @given(st.integers(1, MAX_ORDER), st.integers(-2**70, 2**70))
    @example(1, -2**70)
    @example(MAX_ORDER, 2**70)
    @settings(max_examples=150, deadline=None)
    def test_matches_documented_definition_at_any_seed(self, order, seed):
        assert random_tournament(order, seed).beats == documented_beats(order, seed)

    def test_orders_called_alternately(self):
        # each order's lane plan is built on first use and reused; a plan
        # that kept state from the order before would break this sequence
        _lanes.cache_clear()
        for order, seed in [(13, 5), (64, 5), (1, 5), (13, 6), (2, 5), (64, -7), (2, 8)]:
            assert random_tournament(order, seed).beats == documented_beats(order, seed)

    def test_pinned_order_eight(self):
        expected = "8\n00100001\n10111010\n00011101\n10001100\n10000110\n11000010\n10110000\n01011110\n"
        assert serialize(random_tournament(8, 2013)) == expected


class TestParseSerialize:
    def test_parse_transitive(self):
        t = parse("3\n011\n001\n000\n")
        assert t.dominates(0, 1) and t.dominates(0, 2) and t.dominates(1, 2)

    def test_parse_without_trailing_newline(self):
        assert parse("2\n01\n00") == parse("2\n01\n00\n")

    def test_crlf_line_endings(self):
        t = parse("3\n011\n001\n000\n")
        assert parse("3\r\n011\r\n001\r\n000\r\n") == parse("3\r\n011\r\n001\r\n000") == t

    @pytest.mark.parametrize("sep", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_other_line_separators_are_row_characters(self, sep):
        # str.splitlines would end a line at each of these
        with pytest.raises(FormatError) as parsed:
            parse(f"3\n0{sep}1\n001\n000\n")
        assert str(parsed.value) == f"line 2: invalid character {sep!r} at column 2"
        with pytest.raises(FormatError) as parsed:
            parse(f"3\n011{sep}001\n000\n")
        assert str(parsed.value) == "line 4: expected 3 matrix rows, found 2"

    def test_completeness_error_names_pair_and_line(self):
        with pytest.raises(FormatError, match=r"line 3: completeness violated at \(0,1\)"):
            parse("2\n00\n00\n")

    def test_asymmetry_error(self):
        with pytest.raises(FormatError, match=r"asymmetry violated at \(0,1\)"):
            parse("2\n01\n10\n")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1"):
            parse("abc\n01\n00\n")

    @pytest.mark.parametrize("header, message", [
        ("1_0", "expected integer order, got '1_0'"),
        ("+10", "expected integer order, got '\\+10'"),
        ("\u0661\u0660", "expected integer order, got '\u0661\u0660'"),  # Arabic-Indic digits for 10
        ("-", "expected integer order, got '-'"),
        ("9" * 5000, "expected integer order, got '9999"),
        ("0", "order must be between 1 and 64, got 0"),
        ("-1", "order must be between 1 and 64, got -1"),
        ("65", "order must be between 1 and 64, got 65"),
    ], ids=["underscore", "plus", "arabic-indic", "minus-only", "5000-digits", "zero", "negative", "65"])
    def test_header_is_ascii_decimal(self, header, message):
        # the rows are a valid order-10 matrix, so only the header can be at fault
        rows = serialize(random_tournament(10, 0)).split("\n", 1)[1]
        assert parse(" 10 \n" + rows) == random_tournament(10, 0)
        with pytest.raises(FormatError, match="^line 1: " + message):
            parse(header + "\n" + rows)

    def test_non_square(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("3\n0111\n001\n000\n")

    def test_missing_rows(self):
        with pytest.raises(FormatError, match="expected 3 matrix rows"):
            parse("3\n011\n001\n")

    def test_bad_character(self):
        with pytest.raises(FormatError, match=r"line 2: invalid character 'x'"):
            parse("2\n0x\n00\n")

    @pytest.mark.parametrize("char", ["_", "+", " ", "\t", "\uff11", "\u0661"],
                             ids=["underscore", "plus", "space", "tab", "fullwidth-one", "arabic-indic-one"])
    def test_rejects_what_int_base_two_takes(self, char):
        # int(row, 2) reads a row with one of these in some place: "1_0", "+10",
        # " 10", "\uff110" and "\u06610" are all 2 to it
        rows = serialize(random_tournament(9, 0)).split("\n")[1:-1]
        for column in (0, 4, 8):
            bad = rows[3][:column] + char + rows[3][column + 1:]
            with pytest.raises(FormatError) as parsed:
                parse("\n".join(["9", *rows[:3], bad, *rows[4:]]))
            assert str(parsed.value) == f"line 5: invalid character {char!r} at column {column + 1}"

    def test_diagonal(self):
        with pytest.raises(FormatError, match="line 2: diagonal"):
            parse("2\n11\n00\n")

    def test_trailing_garbage(self):
        with pytest.raises(FormatError, match="line 4: unexpected trailing"):
            parse("2\n01\n00\njunk\n")

    @given(order=st.integers(1, MAX_ORDER), near=st.booleans(), data=st.data())
    @settings(max_examples=300)
    def test_agrees_with_constructor(self, order, near, data):
        # a zero-diagonal 0/1 matrix, either arbitrary or a tournament with a
        # few off-diagonal cells toggled
        if near:
            rows = list(random_tournament(order, data.draw(seeds)).beats)
            cell = st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))
            for i, j in data.draw(st.lists(cell, max_size=3)):
                if i != j:
                    rows[i] ^= 1 << j
        else:
            rows = [data.draw(st.integers(0, full_set(order))) & ~(1 << i) for i in range(order)]
        text = "\n".join([str(order)] + ["".join(str(r >> j & 1) for j in range(order)) for r in rows])
        bad = next(((j, i) for i in range(order) for j in range(i)
                    if (rows[j] >> i & 1) == (rows[i] >> j & 1)), None)
        if bad is None:
            assert parse(text) == Tournament(rows)
            return
        j, i = bad
        message = f"{'asymmetry' if rows[i] >> j & 1 else 'completeness'} violated at ({j},{i})"
        with pytest.raises(ValueError) as built:
            Tournament(rows)
        assert str(built.value) == message
        with pytest.raises(FormatError) as parsed:
            parse(text)
        assert str(parsed.value) == f"line {i + 2}: {message}"

    def test_counterexample_round_trip(self, big_t):
        assert parse(serialize(big_t)) == big_t

    @given(seed=seeds, order=st.integers(1, MAX_ORDER))
    def test_round_trip(self, seed, order):
        t = random_tournament(order, seed)
        assert parse(serialize(t)) == t


class TestFlipEdge:
    def test_reverses_orientation(self):
        t = transitive_tournament(4)
        flipped = flip_edge(t, 0, 3)
        assert flipped.dominates(3, 0) and not flipped.dominates(0, 3)
        assert flip_edge(flipped, 3, 0) == t

    def test_rejects_reflexive(self):
        with pytest.raises(ValueError):
            flip_edge(transitive_tournament(3), 1, 1)


class TestAltSetHelpers:
    def test_round_trip(self):
        assert members(altset([5, 1, 9])) == [1, 5, 9]

    @given(st.sets(st.integers(0, 63)))
    def test_members_sorted_unique(self, xs):
        assert members(altset(xs)) == sorted(xs)

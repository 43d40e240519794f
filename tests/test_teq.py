import functools
import importlib
import itertools
import operator
import random
import time
import types

import teqtools
import teqtools.core as core_module
import teqtools.teq as teq_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teqtools.core import (
    Tournament,
    altset,
    derive_seed,
    full_set,
    members,
    random_tournament,
    restrict,
)
from teqtools.teq import (
    BRUTEFORCE_MAX_ORDER,
    DeadlineExceeded,
    TeqCache,
    _ORBIT_MIN_SIZE,
    _beaten_by_one,
    _terminal_scc_masks,
    bruteforce_minimal_retentive_sets,
    is_retentive,
    minimal_retentive_sets,
    teq,
    teq_bruteforce,
    teq_of_subset,
)
from teqtools.search import compose_structured

from conftest import (
    all_tournaments,
    circulant,
    cycle_tournament,
    flip_edge,
    paley_tournament,
    random_connection_set,
    random_regular,
    relabel,
    transitive_tournament,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def reach_sets(edges, verts):
    """v -> v plus everything reachable from v along edges[v], by plain search."""
    reach = {}
    for v in verts:
        seen, stack = {v}, [v]
        while stack:
            for w in members(edges[stack.pop()]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[v] = altset(seen)
    return reach


def first_closure(succ, candidates):
    """The ``forward`` argument of ``_terminal_scc_masks``: the lowest candidate, everything it
    reaches through candidates, and their successors, by plain search (0 for no candidates)."""
    if not candidates:
        return 0
    low = (candidates & -candidates).bit_length() - 1
    inside = {v: succ[v] & candidates for v in members(candidates)}
    reach = reach_sets(inside, [low])[low]
    return reach | altset(w for v in members(reach) for w in members(succ[v]))


def terminal_components(edges, verts):
    """Terminal SCCs of edges over verts, ordered by smallest member, from plain reach-sets.

    v's component is what v reaches and reaches v; it is terminal iff nothing
    it reaches lies outside it.
    """
    reach = reach_sets(edges, verts)
    found = []
    for v in sorted(verts):
        comp = altset(w for w in members(reach[v]) if (reach[w] >> v) & 1)
        if reach[v] == comp and comp not in found:
            found.append(comp)
    return found


def top_cycle(t, subset):
    """Members of subset that reach every member of subset by dominance inside it."""
    verts = members(subset)
    reach = reach_sets({v: t.beats[v] & subset for v in verts}, verts)
    return altset(v for v in verts if reach[v] == subset)


def uncovered(t, subset):
    """Members of subset that no y in subset covers (y beats x and everything x beats)."""
    return altset(x for x in members(subset)
                  if not any(t.beats[x] & subset & ~t.beats[y] == 0
                             for y in members(t.dom_of[x] & subset)))


def unpruned_minimal_sets(t):
    """Terminal SCCs of x -> TEQ(dom(x) & top) over every top-cycle member, no covering shortcut.

    A memoised recursion through ``_terminal_scc_masks`` with every top-cycle
    member as a candidate; it shares no code with the library's recursion
    beyond that terminal step.
    """
    memo = {}

    def minimal_sets(subset):
        top = top_cycle(t, subset)
        succ = {}
        for v in members(top):
            d = t.dom_of[v] & top
            succ[v] = teq_of(d) if d else 0
        return _terminal_scc_masks(succ, top, first_closure(succ, top))

    def teq_of(subset):
        if subset not in memo:
            memo[subset] = altset(v for m in minimal_sets(subset) for v in members(m))
        return memo[subset]

    return minimal_sets(full_set(t.order))


def three_uncovered_tournament(order, seed):
    """The first random_tournament(order, derive_seed(seed, k)), k = 0, 1, ..., whose top
    cycle has at least four members and exactly three uncovered ones.

    About 4% of order-9 tournaments qualify (37% at order 4), so 1,000 draws
    all miss with probability below 1e-16.
    """
    for k in range(1000):
        t = random_tournament(order, derive_seed(seed, k))
        top = top_cycle(t, full_set(order))
        if top.bit_count() >= 4 and uncovered(t, top).bit_count() == 3:
            return t
    raise AssertionError(f"no order-{order} draw from seed {seed} qualifies")


def eager_successors(dom_of, table, top, uncovered, deadline):
    """Reference for ``_lazy_successors``: every uncovered member recurses with no bound on its
    candidates, all are candidates, and the first closure is the lowest one's reach."""
    succ = {}
    for v in members(uncovered):
        d = dom_of[v] & top
        succ[v] = teq_module._teq_rec(dom_of, table, d, d, deadline)
    low = (uncovered & -uncovered).bit_length() - 1
    return succ, uncovered, reach_sets(succ, [low])[low]


def lazy_and_eager(t):
    """(minimal sets, memo) of t, first as computed, then with ``eager_successors`` patched in."""
    lazy = TeqCache(t)
    lazy_sets = minimal_retentive_sets(t, lazy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(teq_module, "_lazy_successors", eager_successors)
        eager = TeqCache(t)
        eager_sets = minimal_retentive_sets(t, eager)
    return (lazy_sets, lazy.table), (eager_sets, eager.table)


def retentive_sets(t):
    """Every TEQ-retentive set of t by the definition, with oracle TEQ of each dominator set."""
    inner = [lifted_oracle(t, d) if d else 0 for d in t.dom_of]
    return [x for x in range(1, 1 << t.order)
            if all(inner[v] & ~x == 0 for v in members(x))]


def shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabelled_paley(p):
    """Paley p under a seeded random relabelling, so no member order follows the rotation."""
    return relabel(paley_tournament(p), shuffled(p, p))


def with_dominated_tail(t, rest_order):
    """t, on its own indices, beating a transitive tail of ``rest_order`` further members."""
    n = t.order + rest_order
    beats = [row | full_set(n) ^ full_set(t.order) for row in t.beats]
    return Tournament(beats + [altset(range(v + 1, n)) for v in range(t.order, n)])


def dominant_cycle_tournament(top_order, rest_order):
    """A rotational cycle on 0..top_order-1 that beats a transitive rest; the cycle is the top cycle."""
    return with_dominated_tail(cycle_tournament(top_order), rest_order)


def paley_and_covered_member(beaten):
    """Paley 19 and a member z that beats the first ``beaten`` of 0's out-neighbours, relabelled.

    z loses to everyone else, 0 included, so 0 covers z, yet z reaches the
    Paley block: the top cycle is all 20 members and the uncovered set is
    the block, which does not beat z. Returns the tournament and the block.
    """
    paley = paley_tournament(19)
    z_beats = altset(members(paley.beats[0])[:beaten])
    beats = [row | (0 if z_beats >> v & 1 else 1 << 19) for v, row in enumerate(paley.beats)]
    perm = shuffled(20, beaten)
    return relabel(Tournament(beats + [z_beats]), perm), altset(perm[:19])


def condorcet_tournament(order, seed, winner=0):
    """Random tournament where ``winner`` dominates everyone else."""
    t = random_tournament(order, seed)
    bit = 1 << winner
    beats = [row & ~bit for row in t.beats]
    beats[winner] = full_set(order) ^ bit
    return Tournament(beats)


def lifted_oracle(t, subset):
    """teq_bruteforce of the subtournament on ``subset``, in t's indices."""
    sub, mapping = restrict(t, subset)
    return altset(mapping[v] for v in members(teq_bruteforce(sub)))


class TestBruteforceOracle:
    """The literal-definition oracle comes first; everything else leans on it."""

    def test_single_alternative(self):
        assert teq_bruteforce(Tournament([0])) == 1

    def test_three_cycle(self):
        # By enumeration of the 7 nonempty subsets: every proper subset has a
        # member whose dominator's TEQ escapes it, so {0,1,2} is the only
        # retentive set.
        assert teq_bruteforce(cycle_tournament(3)) == 0b111
        assert bruteforce_minimal_retentive_sets(cycle_tournament(3)) == [0b111]

    def test_condorcet_winner(self):
        for seed in range(5):
            t = condorcet_tournament(6, seed)
            assert teq_bruteforce(t) == 1
            assert bruteforce_minimal_retentive_sets(t) == [1]

    def test_order_guard(self):
        with pytest.raises(ValueError, match="order"):
            teq_bruteforce(transitive_tournament(BRUTEFORCE_MAX_ORDER + 1))

    def test_minimal_sets_are_retentive_and_minimal(self):
        for seed in range(20):
            t = random_tournament(7, seed)
            cache = TeqCache(t)
            for s in bruteforce_minimal_retentive_sets(t):
                assert is_retentive(cache, s)
                for x in members(s):
                    smaller = s ^ (1 << x)
                    assert smaller == 0 or not is_retentive(cache, smaller)


class TestTeqAgainstOracle:
    def test_exhaustive_small_orders(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                assert teq(t) == teq_bruteforce(t), t.beats

    def test_minimal_sets_match_oracle_exhaustive(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                assert minimal_retentive_sets(t) == bruteforce_minimal_retentive_sets(t), t.beats

    @pytest.mark.parametrize("order", [7, 8, 9, 10])
    def test_seeded_mid_orders(self, order):
        for trial in range(1000):
            t = random_tournament(order, derive_seed(5000 + order, trial))
            bf_sets = bruteforce_minimal_retentive_sets(t)
            assert minimal_retentive_sets(t) == bf_sets, trial
            assert teq(t) == functools.reduce(operator.or_, bf_sets), trial


class TestTeq:
    def test_single_alternative(self):
        assert teq(Tournament([0])) == 1

    def test_three_cycle(self):
        assert teq(cycle_tournament(3)) == 0b111

    def test_condorcet_winner(self):
        assert teq(condorcet_tournament(9, 3)) == 1

    def test_counterexample_dominator_subset(self, big_t):
        # dominators of x1 are 12 alternatives; their TEQ is {x4, x8, x12}
        d = big_t.dom_of[0]
        assert d.bit_count() == 12
        assert teq_of_subset(TeqCache(big_t), d) == altset([3, 7, 11])

    @given(seed=seeds, order=st.integers(1, 16))
    @settings(deadline=None)
    def test_nonempty(self, seed, order):
        t = random_tournament(order, seed)
        result = teq(t)
        assert result != 0
        assert result & ~full_set(order) == 0

    @given(seed=seeds, order=st.integers(2, 10), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_isomorphism_invariance(self, seed, order, data):
        t = random_tournament(order, seed)
        perm = data.draw(st.permutations(range(order)))
        relabeled = relabel(t, perm)
        expected = altset(perm[v] for v in members(teq(t)))
        assert teq(relabeled) == expected


class TestTeqOfSubset:
    def test_counterexample_x11_row(self, big_t):
        # TEQ of the dominators of x11 is {x1, x2, x8}
        assert teq_of_subset(TeqCache(big_t), big_t.dom_of[10]) == altset([0, 1, 7])

    def test_empty_subset_rejected(self, big_t):
        with pytest.raises(ValueError, match="empty"):
            teq_of_subset(TeqCache(big_t), 0)

    def test_out_of_range_rejected(self):
        t = transitive_tournament(4)
        with pytest.raises(ValueError, match="out-of-range"):
            teq_of_subset(TeqCache(t), 1 << 10)

    def test_second_call_hits_cache(self, big_t):
        cache = TeqCache(big_t)
        first = teq_of_subset(cache, big_t.dom_of[0])
        assert (cache.hits, cache.misses) == (0, 1)
        second = teq_of_subset(cache, big_t.dom_of[0])
        assert (cache.hits, cache.misses) == (1, 1)
        assert first == second

    @given(seed=seeds, order=st.integers(2, 12), raw=st.integers(min_value=1))
    @settings(max_examples=80, deadline=None)
    def test_matches_restrict_then_lift(self, seed, order, raw):
        t = random_tournament(order, seed)
        subset = raw % (1 << order) or 1
        sub, mapping = restrict(t, subset)
        lifted = altset(mapping[v] for v in members(teq(sub)))
        assert teq_of_subset(TeqCache(t), subset) == lifted

    def test_warm_cache_equals_cold(self, big_t):
        warm = TeqCache(big_t)
        warm_results = [teq_of_subset(warm, big_t.dom_of[v]) for v in range(24)]
        cold_results = [teq_of_subset(TeqCache(big_t), big_t.dom_of[v]) for v in range(24)]
        assert warm_results == cold_results

    def test_cached_values_contained_in_keys(self, big_t):
        cache = TeqCache(big_t)
        teq_of_subset(cache, full_set(24))
        assert cache.table
        for key, value in cache.table.items():
            assert value != 0
            assert value & ~key == 0


class TestSubsetsAgainstOracle:
    """TEQ of any subset, whose top cycle may be a proper part of it, against the oracle."""

    @given(seed=seeds, order=st.integers(2, 12), raw=st.integers(min_value=1))
    @settings(max_examples=150, deadline=None)
    def test_random_subsets(self, seed, order, raw):
        t = random_tournament(order, seed)
        subset = raw % (1 << order) or 1
        assert teq_of_subset(TeqCache(t), subset) == lifted_oracle(t, subset)

    @given(top_order=st.sampled_from([1, 3, 5, 7]), rest_order=st.integers(1, 5),
           raw=st.integers(min_value=1))
    @settings(max_examples=60, deadline=None)
    def test_dominant_cycle_subsets(self, top_order, rest_order, raw):
        t = dominant_cycle_tournament(top_order, rest_order)
        subset = raw % (1 << t.order) or 1
        assert teq_of_subset(TeqCache(t), subset) == lifted_oracle(t, subset)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @given(seed=seeds, order=st.integers(2, 12), raw=st.integers(min_value=0))
    @settings(max_examples=40, deadline=None)
    def test_condorcet_winner_anywhere(self, where, seed, order, raw):
        winner = {"first": 0, "middle": order // 2, "last": order - 1}[where]
        t = condorcet_tournament(order, seed, winner)
        subset = raw % (1 << order) | 1 << winner
        assert teq_of_subset(TeqCache(t), subset) == 1 << winner == lifted_oracle(t, subset)
        assert minimal_retentive_sets(t) == [1 << winner]


class TestTopCyclePruning:
    """TEQ and the uncovered set lie inside the top cycle; the recursion prunes by the latter."""

    @given(seed=seeds, order=st.integers(2, 12), raw=st.integers(min_value=1))
    @settings(max_examples=120, deadline=None)
    def test_teq_inside_top_cycle_and_equal_to_its_teq(self, seed, order, raw):
        t = random_tournament(order, seed)
        subset = raw % (1 << order) or 1
        top = top_cycle(t, subset)
        result = teq_of_subset(TeqCache(t), subset)
        assert result & ~top == 0
        assert result == teq_of_subset(TeqCache(t), top)
        # so one coverage pass over the subset does the top cycle's pruning
        assert uncovered(t, subset) == uncovered(t, top)
        assert uncovered(t, subset) & ~top == 0

    def test_dominant_cycle(self):
        t = dominant_cycle_tournament(5, 4)
        assert top_cycle(t, full_set(9)) == full_set(5)
        assert teq(t) == full_set(5)
        assert minimal_retentive_sets(t) == [full_set(5)]


class TestUncoveredPruning:
    """Every successor lies in the uncovered set, and so does TEQ; the recursion skips covered members."""

    @staticmethod
    def check(t):
        # TEQ of t and of every member's dominators, the lemma at _minimal_sets
        uc = uncovered(t, full_set(t.order))
        assert teq_bruteforce(t) & ~uc == 0, t.beats
        for v in range(t.order):
            if t.dom_of[v]:
                assert lifted_oracle(t, t.dom_of[v]) & ~uc == 0, (t.beats, v)

    def test_teq_inside_uncovered_set_exhaustive(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                self.check(t)

    @given(seed=seeds, order=st.integers(6, 10))
    @settings(max_examples=100, deadline=None)
    def test_teq_inside_uncovered_set_random(self, seed, order):
        self.check(random_tournament(order, seed))

    @staticmethod
    def check_few_candidates(t):
        # rule 2 at _minimal_sets, for every subset S and every uncovered v of S
        # with dominators D: if C = D & UC(S) has at most three members, TEQ(D)
        # is C's Condorcet winner, or C if it has none. The successors
        # _lazy_successors builds, by rule 2 or by recursion, match the oracle.
        memo = {}
        for s in range(1, 1 << t.order):
            uc = uncovered(t, s)
            for v in members(uc):
                d = t.dom_of[v] & s
                c = d & uc
                if d and c.bit_count() <= 3:
                    winners = [w for w in members(c) if not t.dom_of[w] & c]
                    expected = 1 << winners[0] if winners else c
                    assert teq_module._bf_teq(t.dom_of, memo, d) == expected, (t.beats, s, v)
            if uc.bit_count() > 3:  # where _minimal_sets builds successors
                table = {}
                succ, _, _ = teq_module._lazy_successors(t.dom_of, table, s, uc, None)
                assert all(found == teq_module._bf_teq(t.dom_of, memo, t.dom_of[v] & s)
                           for v, found in succ.items()), (t.beats, s)
                assert all(value == teq_module._bf_teq(t.dom_of, memo, key)
                           for key, value in table.items()), (t.beats, s)

    def test_few_candidates_exhaustive(self):
        for n in range(3, 6):
            for t in all_tournaments(n):
                self.check_few_candidates(t)

    @given(seed=seeds, order=st.integers(6, 8))
    @settings(max_examples=60, deadline=None)
    def test_few_candidates_random(self, seed, order):
        self.check_few_candidates(random_tournament(order, seed))

    def test_strong_four_tournament(self):
        # 0 -> 1 -> 2 -> 3 -> 0 with 0 -> 2 and 1 -> 3: 1 beats 2 and 3, which
        # is all 2 beats, so 2 is covered, and {0, 1, 3} is a 3-cycle
        t = Tournament([0b0110, 0b1100, 0b1000, 0b0001])
        assert top_cycle(t, full_set(4)) == full_set(4)
        assert uncovered(t, full_set(4)) == 0b1011
        assert teq_bruteforce(t) == teq(t) == 0b1011
        assert minimal_retentive_sets(t) == [0b1011]

    def test_matches_unpruned_recursion_beyond_oracle(self, big_t):
        cases = [big_t] + [random_tournament(n, 1000 + n) for n in range(13, 29)]
        cases += [compose_structured(random_tournament(n // 2, 2000 + n), n // 4)
                  for n in (16, 20, 24)]
        cases += [relabelled_paley(p) for p in (19, 23, 31)]
        # seeded circulants at prime and composite orders: regular top cycles
        # whose successors are shared across automorphism orbits
        rng = random.Random(21)
        for n in range(21, 36, 2):
            cases.append(relabel(circulant(n, random_connection_set(rng, n)), rng.sample(range(n), n)))
        for t in cases:
            assert minimal_retentive_sets(t) == unpruned_minimal_sets(t), t.beats


class TestSmallShortcuts:
    """Settled with no recursion: a Condorcet winner, so every pair, and at most three uncovered members."""

    def test_uncovered_set_facts_exhaustive(self):
        # the uncovered set is never a pair, is one member exactly when that
        # member is the Condorcet winner, and when it has at most three
        # members it is the one minimal set
        for n in range(1, 6):
            for t in all_tournaments(n):
                uc = uncovered(t, full_set(n))
                winners = [v for v in range(n) if t.dom_of[v] == 0]
                assert uc.bit_count() != 2, t.beats
                assert (uc.bit_count() == 1) == bool(winners), t.beats
                if uc.bit_count() <= 3:
                    assert bruteforce_minimal_retentive_sets(t) == [uc], t.beats
                    assert minimal_retentive_sets(t) == [uc], t.beats

    @given(seed=seeds, order=st.integers(4, 9))
    @settings(max_examples=100, deadline=None)
    def test_three_uncovered_members_are_the_minimal_set(self, seed, order):
        t = three_uncovered_tournament(order, seed)
        cache = TeqCache(t)
        assert minimal_retentive_sets(t, cache) == bruteforce_minimal_retentive_sets(t)
        # nothing was memoised, so no dominator set was recursed into
        assert cache.table == {}

    @pytest.mark.parametrize("source", ["instance", "random64"])
    def test_pair_is_its_winner(self, big_t, source):
        t = big_t if source == "instance" else random_tournament(64, 64)
        cache = TeqCache(t)
        for i in range(t.order):
            for j in range(i + 1, t.order):
                winner = i if t.dominates(i, j) else j
                assert teq_of_subset(cache, 1 << i | 1 << j) == 1 << winner, (i, j)


class TestLazyExploration:
    """Successors are built only while the unexplored uncovered members could hold a minimal set."""

    @staticmethod
    def check(t):
        def closed(dom_of, table, subset, uncovered, deadline):
            # the lemma at _minimal_sets: the explored members are closed under successors
            succ, explored, first = lazy(dom_of, table, subset, uncovered, deadline)
            assert all(found & ~explored == 0 for found in succ.values()), t.beats
            # and the first round explored exactly the lowest uncovered member's reach
            low = (uncovered & -uncovered).bit_length() - 1
            assert first == reach_sets(succ, [low])[low], t.beats
            return succ, explored, first

        lazy = teq_module._lazy_successors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(teq_module, "_lazy_successors", closed)
            (lazy_sets, lazy_memo), (eager_sets, eager_memo) = lazy_and_eager(t)
        assert lazy_sets == eager_sets, t.beats
        assert lazy_memo.keys() <= eager_memo.keys(), t.beats
        assert all(eager_memo[key] == value for key, value in lazy_memo.items())
        # a member of a minimal set has its successor memoised as before, so a
        # following is_retentive recurses no more
        top = top_cycle(t, full_set(t.order))
        for v in members(sum(lazy_sets)):
            assert (t.dom_of[v] & top in lazy_memo) == (t.dom_of[v] & top in eager_memo)
        return len(lazy_memo), len(eager_memo)

    @given(seed=seeds, order=st.integers(4, 40))
    @settings(max_examples=80, deadline=None)
    def test_random_against_eager(self, seed, order):
        self.check(random_tournament(order, seed))

    @given(seed=seeds, half=st.sampled_from(range(4, 17, 2)))
    @settings(max_examples=40, deadline=None)
    def test_structured_against_eager(self, seed, half):
        self.check(compose_structured(random_tournament(half, seed), half // 2))

    def test_instance_and_its_neighbours_against_eager(self, big_t):
        self.check(big_t)
        for a, b in itertools.combinations(range(24), 2):
            self.check(flip_edge(big_t, a, b))
        for gone in range(24):
            self.check(restrict(big_t, full_set(24) ^ 1 << gone)[0])

    def test_fewer_memo_entries_than_eager(self):
        sizes = [self.check(random_tournament(23, derive_seed(23, k))) for k in range(40)]
        lazy, eager = map(sum, zip(*sizes))
        assert lazy < eager

    @pytest.mark.parametrize("beats, explored", [
        # 1, 5 and 3 reach only each other, and 3 beats 2, 4 and 6
        ((8, 29, 81, 116, 33, 71, 19), [1, 3, 5]),
        # 0, 7 and 1 reach only each other; no one beats all of 2, 3, 5 and 6,
        # so 2 is explored, and then 2 beats 3, 5 and 6
        ((318, 476, 104, 416, 268, 338, 25, 373, 68), [0, 1, 2, 7]),
        # 0, 3 and 5 reach only each other; no one beats all of 1, 2 and 4
        # (6 loses to all three), so 1 is explored, and two members are left
        ((114, 116, 81, 71, 72, 28, 32), [0, 1, 3, 5]),
    ])
    def test_explores_until_the_rest_can_hold_no_minimal_set(self, beats, explored):
        t = Tournament(beats)
        everyone = full_set(t.order)
        succ, got, first = teq_module._lazy_successors(t.dom_of, {}, everyone, uncovered(t, everyone), None)
        assert members(got) == sorted(succ) == explored
        assert first == reach_sets(succ, explored[:1])[explored[0]]
        assert minimal_retentive_sets(t) == bruteforce_minimal_retentive_sets(t)


class TestDominance:
    """A retentive set is dominant, so the exploration may stop once one member beats the rest."""

    @given(seed=seeds, order=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_every_retentive_set_is_dominant(self, seed, order):
        t = random_tournament(order, seed)
        for x in retentive_sets(t):
            assert all(t.dom_of[y] & x for y in members(full_set(order) ^ x)), (t.beats, x)

    def test_every_retentive_set_is_dominant_exhaustive(self):
        for n in range(2, 6):
            for t in all_tournaments(n):
                for x in retentive_sets(t):
                    assert all(t.dom_of[y] & x for y in members(full_set(n) ^ x)), (t.beats, x)

    @pytest.mark.parametrize("outsider, beaten", [
        (0b111, True),    # 3 beats the whole 3-cycle
        (0b000, False),   # 3 loses to all three
        (0b011, False),   # 3 beats two of them
    ])
    def test_three_cycle_and_an_outsider(self, outsider, beaten):
        cycle = cycle_tournament(3).beats
        t = Tournament([row | (0 if outsider >> v & 1 else 0b1000) for v, row in enumerate(cycle)]
                       + [outsider])
        assert _beaten_by_one(t.dom_of, full_set(4), 0b111) is beaten
        # a member of the group never counts, so the whole set is beaten by none
        assert _beaten_by_one(t.dom_of, full_set(4), full_set(4)) is False

    def test_top_limits_who_may_beat(self):
        t = transitive_tournament(4)  # i beats every j > i
        assert _beaten_by_one(t.dom_of, 0b1110, 0b1100) is True
        assert _beaten_by_one(t.dom_of, 0b1100, 0b1100) is False
        assert _beaten_by_one(t.dom_of, full_set(4), 0b0001) is False


def z3_regular(reversed_at, first):
    """Circulant 21 with the 3-cycles {i, i+7, i+14} reversed for i in ``reversed_at``.

    Rotation by 7 maps each reversed 3-cycle onto itself, so the tournament
    stays regular and keeps that rotation as an automorphism, while the
    other rotations are lost: an automorphism group that is not transitive.
    It is relabelled so that the members in ``first`` come first, in order.
    """
    beats = list(circulant(21, [1, 2, 4, 6, 7, 9, 11, 13, 16, 18]).beats)
    for i in reversed_at:
        for x, y in ((i, i + 7), (i + 7, i + 14), (i + 14, i)):
            beats[x % 21] ^= 1 << y % 21
            beats[y % 21] ^= 1 << x % 21
    order = list(first) + [v for v in range(21) if v not in first]
    perm = [0] * 21
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(Tournament(beats), perm)


class TestOrbitSharing:
    """A regular top cycle recurses once per automorphism orbit and maps the other successors."""

    @pytest.mark.parametrize("p", [19, 23])
    def test_memo_entries_match_oracle(self, p):
        # the answer is the whole top cycle either way, so every memo entry the
        # oracle can reach is checked, the mapped successors included
        t = relabelled_paley(p)
        assert p >= _ORBIT_MIN_SIZE
        cache = TeqCache(t)
        assert minimal_retentive_sets(t, cache) == [full_set(p)]
        assert all(t.dom_of[v] in cache.table for v in range(p))
        for s, value in cache.table.items():
            if s.bit_count() <= BRUTEFORCE_MAX_ORDER:
                assert value == lifted_oracle(t, s), s

    def test_paley_59_memo_stays_small(self):
        # 68,558 memo entries when every member recursed on its own
        t = relabelled_paley(59)
        cache = TeqCache(t)
        assert minimal_retentive_sets(t, cache) == [full_set(59)]
        assert len(cache.table) < 1000
        # the mapped successors are in the memo, so checking retentiveness recurses no more
        assert is_retentive(cache, full_set(59))
        assert (cache.hits, cache.misses) == (59, 0)

    @given(order=st.sampled_from(range(9, 26, 2)), seed=seeds, reversals=st.integers(0, 12),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_regular_against_unpruned_recursion(self, order, seed, reversals, data):
        perm = data.draw(st.permutations(range(order)))
        t = relabel(random_regular(order, seed, reversals), perm)
        sets = minimal_retentive_sets(t)
        assert sets == unpruned_minimal_sets(t)
        if order <= 11:
            assert sets == bruteforce_minimal_retentive_sets(t)

    @pytest.mark.parametrize("reversed_at", [(0,), (0, 1, 3), (2, 5)])
    @pytest.mark.parametrize("first", [(), (0, 7, 14)])
    def test_intransitive_automorphism_group(self, reversed_at, first):
        # with 0, 7 and 14 first, the orbit of the lowest member is found
        # before a member outside it ends the search
        t = z3_regular(reversed_at, first)
        assert minimal_retentive_sets(t) == unpruned_minimal_sets(t)

    @staticmethod
    def orbit_calls(monkeypatch):
        """The sets ``_share_orbit`` is called on from now on, in call order."""
        calls = []

        def counted(dom_of, table, top, deadline):
            calls.append(top)
            return orbit(dom_of, table, top, deadline)

        orbit = teq_module._share_orbit
        monkeypatch.setattr(teq_module, "_share_orbit", counted)
        return calls

    def test_regular_uncovered_set_above_a_dominated_tail(self, monkeypatch):
        # the uncovered set is the Paley block, which beats the tail and is
        # the top cycle, so the orbit path runs on it though the whole set
        # is not regular
        perm = shuffled(64, 64)
        t = relabel(with_dominated_tail(paley_tournament(59), 5), perm)
        block = altset(perm[:59])
        calls = self.orbit_calls(monkeypatch)
        cache = TeqCache(t)
        assert minimal_retentive_sets(t, cache) == [block]
        # once on the block, then once inside the recursion on a member's
        # dominators, a regular tournament of 29 (as for Paley 59 alone)
        assert len(calls) == 2 and calls[0] == block
        assert calls[1].bit_count() == 29 and calls[1] & ~block == 0
        assert len(cache.table) < 1000

    @pytest.mark.parametrize("beaten", [1, 4, 8])
    def test_regular_uncovered_set_that_does_not_beat_the_rest(self, monkeypatch, beaten):
        # the uncovered set is regular, but a covered member of the top cycle
        # beats part of it, so the successors are not shared across orbits
        t, block = paley_and_covered_member(beaten)
        assert top_cycle(t, full_set(20)) == full_set(20)
        assert uncovered(t, full_set(20)) == block
        calls = self.orbit_calls(monkeypatch)
        assert minimal_retentive_sets(t) == unpruned_minimal_sets(t)
        assert calls == []
        # yet every entry the orbit step seeds on the block is TEQ of its own
        # key, so the gate decides cost, never answers (Paley 19's dominator
        # sets have 9 members)
        table = {}
        teq_module._share_orbit(t.dom_of, table, block, None)
        assert all(t.dom_of[v] & block in table for v in members(block))
        assert all(value == lifted_oracle(t, s) for s, value in table.items())

    def test_one_failed_search_per_top(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(match(*args))
            return calls[-1]

        match = teq_module._match
        monkeypatch.setattr(teq_module, "_match", counted)
        # 0's orbit is {0, 7, 14}; 1 and 4 lie outside it with the same scores
        # inside their out-neighbourhoods, so each would take a failed search
        minimal_retentive_sets(z3_regular((2,), (0, 7, 14, 1, 4)))
        assert calls.count(None) == 1

    @pytest.mark.parametrize("t", [relabelled_paley(p) for p in (19, 23, 31, 43)]
                             + [z3_regular(r, (0, 7, 14)) for r in ((0,), (0, 1, 3), (2, 5))]
                             + [relabel(with_dominated_tail(paley_tournament(43), 5), shuffled(48, 48))],
                             ids=["paley19", "paley23", "paley31", "paley43", "z3-0", "z3-013", "z3-25",
                                  "paley43-tail5"])
    def test_sharing_only_seeds_the_memo(self, monkeypatch, t):
        # with the orbit step a no-op every successor comes from its own
        # recursion, so the mapped ones are checked against it, dominator sets
        # far beyond the oracle's reach included (21 members in Paley 43). With
        # a dominated tail the top cycle is 43 of 48 members, so the orbit step
        # maps sets of a strict subset and the positions outside it are padded
        shared = TeqCache(t)
        sets = minimal_retentive_sets(t, shared)
        monkeypatch.setattr(teq_module, "_share_orbit", lambda dom_of, table, top, deadline: None)
        plain = TeqCache(t)
        assert minimal_retentive_sets(t, plain) == sets
        common = shared.table.keys() & plain.table.keys()
        assert all(t.dom_of[v] in common for v in members(sum(sets)))
        assert all(shared.table[s] == plain.table[s] for s in common)

    def test_expired_deadline_raises(self):
        t = relabelled_paley(31)
        with pytest.raises(DeadlineExceeded):
            minimal_retentive_sets(t, TeqCache(t, deadline=time.monotonic() - 1))
        with pytest.raises(DeadlineExceeded):
            teq_of_subset(TeqCache(t, deadline=time.monotonic() - 1), full_set(31))

    def test_expired_deadline_raises_inside_automorphism_search(self):
        # with the memo warm, the recursion returns at once and only the
        # automorphism search can notice the deadline
        t = relabelled_paley(31)
        cache = TeqCache(t)
        minimal_retentive_sets(t, cache)
        with pytest.raises(DeadlineExceeded):
            teq_module._share_orbit(t.dom_of, cache.table, full_set(31), time.monotonic() - 1)


class TestIsRetentive:
    def test_full_set_always(self):
        for seed in range(10):
            t = random_tournament(8, seed)
            assert is_retentive(TeqCache(t), full_set(8))

    def test_condorcet_singleton(self):
        t = condorcet_tournament(7, 1)
        assert is_retentive(TeqCache(t), 1)

    def test_counterexample_halves(self, big_t, instance):
        cache = TeqCache(big_t)
        assert is_retentive(cache, instance.x_set)
        assert is_retentive(cache, instance.y_set)

    def test_three_cycle_proper_subsets_fail(self):
        t = cycle_tournament(3)
        cache = TeqCache(t)
        for s in range(1, 7):
            assert not is_retentive(cache, s)

    def test_empty_rejected(self, big_t):
        with pytest.raises(ValueError, match="empty"):
            is_retentive(TeqCache(big_t), 0)

    def test_out_of_range_rejected(self, big_t):
        with pytest.raises(ValueError, match="^set contains out-of-range alternatives$"):
            is_retentive(TeqCache(big_t), 1 | 1 << 24)


class TestMinimalRetentiveSets:
    def test_condorcet(self):
        assert minimal_retentive_sets(condorcet_tournament(8, 2)) == [1]

    def test_three_cycle(self):
        assert minimal_retentive_sets(cycle_tournament(3)) == [0b111]

    def test_counterexample_has_two(self, big_t, instance):
        sets = minimal_retentive_sets(big_t)
        assert len(sets) >= 2
        assert any(m & ~instance.x_set == 0 for m in sets)
        assert any(m & ~instance.y_set == 0 for m in sets)

    def test_union_is_teq_and_sets_disjoint(self):
        for seed in range(30):
            t = random_tournament(9, seed)
            sets = minimal_retentive_sets(t)
            union = 0
            for m in sets:
                assert union & m == 0
                union |= m
            assert union == teq(t)

    def test_each_is_minimal(self):
        for seed in range(15):
            t = random_tournament(8, seed + 100)
            cache = TeqCache(t)
            for s in minimal_retentive_sets(t, cache):
                assert is_retentive(cache, s)
                for x in members(s):
                    smaller = s ^ (1 << x)
                    assert smaller == 0 or not is_retentive(cache, smaller)

    def test_sorted_by_smallest_member(self, big_t):
        sets = minimal_retentive_sets(big_t)
        lows = [m & -m for m in sets]
        assert lows == sorted(lows)

    def test_cache_of_another_tournament_rejected(self):
        # a cache filled for a would otherwise answer b's queries with a's TEQ values
        a, b = random_tournament(13, 1), random_tournament(13, 2)
        cache = TeqCache(a)
        minimal_retentive_sets(a, cache)
        with pytest.raises(ValueError, match="different tournament"):
            minimal_retentive_sets(b, cache)
        assert minimal_retentive_sets(b) == [8191]

    def test_cache_of_an_equal_tournament_accepted(self):
        a = random_tournament(13, 1)
        cache = TeqCache(a)
        assert minimal_retentive_sets(Tournament(a.beats), cache) == minimal_retentive_sets(a)


class TestTerminalSccs:
    def test_single_cycle_over_universe(self):
        succ = {0: 0b0010, 1: 0b0100, 2: 0b1000, 3: 0b0001}
        assert _terminal_scc_masks(succ, 0b1111, 0b1111) == [0b1111]

    def test_sink_two_cycle(self):
        # a -> b, b <-> c, nothing leaves {b, c}
        assert _terminal_scc_masks({0: 0b010, 1: 0b100, 2: 0b010}, 0b111, 0b111) == [0b110]

    def test_no_edges_all_singletons(self):
        assert _terminal_scc_masks({0: 0, 1: 0, 2: 0}, 0b111, 0b001) == [0b001, 0b010, 0b100]

    def test_no_candidates(self):
        assert _terminal_scc_masks({}, 0, 0) == []

    def test_every_digraph_on_four_vertices(self):
        # all 2^12 arc sets on 4 vertices, each with every nonempty candidate set,
        # given successors for the candidates only
        verts = range(4)
        arcs = [(v, w) for v in verts for w in verts if v != w]
        for pattern in range(1 << len(arcs)):
            succ = dict.fromkeys(verts, 0)
            for i, (v, w) in enumerate(arcs):
                if pattern >> i & 1:
                    succ[v] |= 1 << w
            expected = terminal_components(succ, verts)
            for candidates in range(1, 16):
                given = {v: succ[v] for v in members(candidates)}
                got = _terminal_scc_masks(given, candidates, first_closure(given, candidates))
                assert got == [c for c in expected if c & ~candidates == 0], (pattern, candidates)

    @given(order=st.integers(1, 16), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_digraphs_against_closure(self, order, data):
        verts = data.draw(st.lists(st.integers(0, 19), min_size=order, max_size=order, unique=True))
        universe = altset(verts)
        succ = {v: data.draw(st.integers(0, universe)) & universe & ~(1 << v) for v in verts}
        expected = terminal_components(succ, verts)
        assert _terminal_scc_masks(succ, universe, first_closure(succ, universe)) == expected
        # restricted to candidates, with no successors given for the rest: only
        # the terminal SCCs inside the candidates remain, and none reaches out
        candidates = data.draw(st.integers(0, universe)) & universe
        given = {v: succ[v] for v in members(candidates)}
        restricted = _terminal_scc_masks(given, candidates, first_closure(given, candidates))
        assert restricted == [c for c in expected if c & ~candidates == 0]
        reach = reach_sets(succ, verts)
        for comp in restricted:
            for v in members(comp):
                assert reach[v] == comp


class TestPackageNamespace:
    def test_teq_names_the_module(self):
        import teqtools.teq as m

        assert isinstance(m, types.ModuleType)
        assert m is importlib.import_module("teqtools.teq")
        assert m.minimal_retentive_sets is minimal_retentive_sets
        assert m.teq is teq


class TestDeadline:
    def test_expired_deadline_raises(self, big_t):
        cache = TeqCache(big_t, deadline=time.monotonic() - 1)
        with pytest.raises(DeadlineExceeded):
            teq_of_subset(cache, full_set(24))

    def test_expired_deadline_raises_with_condorcet_winner(self):
        # subsets of one or two members too: a memo miss on them reaches the
        # deadline check before the coverage pass answers it
        t = transitive_tournament(5)
        for subset in (full_set(5), 0b1000, 0b10100):
            with pytest.raises(DeadlineExceeded):
                teq_of_subset(TeqCache(t, deadline=time.monotonic() - 1), subset)
        with pytest.raises(DeadlineExceeded):
            minimal_retentive_sets(t, TeqCache(t, deadline=time.monotonic() - 1))

    def test_expired_deadline_raises_with_proper_top_cycle(self):
        t = dominant_cycle_tournament(3, 3)
        with pytest.raises(DeadlineExceeded):
            teq_of_subset(TeqCache(t, deadline=time.monotonic() - 1), full_set(6))
        with pytest.raises(DeadlineExceeded):
            minimal_retentive_sets(t, TeqCache(t, deadline=time.monotonic() - 1))

    def test_expired_deadline_raises_in_match(self):
        t = relabelled_paley(31)
        everyone = full_set(31)
        assert core_module._match(t.beats, t.beats, [everyone], [everyone]) is not None
        with pytest.raises(DeadlineExceeded):
            core_module._match(t.beats, t.beats, [everyone], [everyone], time.monotonic() - 1)

    def test_one_class_everywhere(self):
        assert DeadlineExceeded is core_module.DeadlineExceeded is teqtools.DeadlineExceeded

    def test_unset_deadline_is_unlimited(self, big_t):
        assert teq_of_subset(TeqCache(big_t, deadline=None), full_set(24))

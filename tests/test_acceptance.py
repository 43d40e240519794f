"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The full module takes 9–18 s on two CPUs; criteria 5 and 6 do the heavy sampling (8–15 s of it).
"""

import time

from teqtools.core import (
    Tournament,
    altset,
    derive_seed,
    find_isomorphism,
    full_set,
    is_isomorphism,
    members,
    parse,
    random_tournament,
    restrict,
    serialize,
)
from teqtools.counterexample import (
    build_counterexample,
    expected_teq_masks,
    verify_claims,
)
from teqtools.search import SearchConfig, search_random
from teqtools.teq import (
    TeqCache,
    is_retentive,
    minimal_retentive_sets,
    teq,
    teq_bruteforce,
    teq_of_subset,
)

from conftest import all_tournaments, flip_edge, relabel


def _report(number, name, ok, extra=""):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {name}{extra}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_embedded_teq_table(big_t):
    started = time.monotonic()
    cache = TeqCache(big_t)
    expected = expected_teq_masks()
    mismatches = []
    for i in range(1, 13):
        got = teq_of_subset(cache, big_t.dom_of[i - 1])
        if got != expected[i]:
            mismatches.append(i)
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 10.0
    _report(1, "all twelve TEQ(dominators of x_i) equal the expected table",
            ok, f" ({elapsed:.2f}s)")


def test_criterion_2_retentiveness_and_minimal_sets(big_t, instance):
    cache = TeqCache(big_t)
    x_ret = is_retentive(cache, instance.x_set)
    y_ret = is_retentive(cache, instance.y_set)
    disjoint = instance.x_set & instance.y_set == 0
    minimal = minimal_retentive_sets(big_t, cache)
    ok = (x_ret and y_ret and disjoint
          and len(minimal) >= 2
          and any(m & ~instance.x_set == 0 for m in minimal)
          and any(m & ~instance.y_set == 0 for m in minimal))
    _report(2, "X and Y retentive, disjoint, and >= 2 minimal sets (one in each)",
            ok, f" (found {len(minimal)} minimal sets)")


def test_criterion_3_symmetry(big_t):
    cache = TeqCache(big_t)
    ok = True
    for i in range(12):
        tx = teq_of_subset(cache, big_t.dom_of[i])
        ty = teq_of_subset(cache, big_t.dom_of[i + 12])
        for j in range(12):
            if ((tx >> j) & 1) != ((ty >> (j + 12)) & 1):
                ok = False
    _report(3, "all 144 (i, j) pairs agree between the X and Y TEQ rows", ok)


def test_criterion_4_halves_isomorphic(big_t, instance):
    tx, _ = restrict(big_t, instance.x_set)
    ty, _ = restrict(big_t, instance.y_set)
    witness = find_isomorphism(tx, ty)
    ok = witness is not None and is_isomorphism(tx, ty, witness)
    _report(4, "induced subtournaments on X and Y have a validated isomorphism", ok)


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    ok = True

    for t in all_tournaments(6):
        if teq(t) != teq_bruteforce(t):
            ok = False
            break
        checked += 1

    if ok:
        for order in (7, 8, 9, 10):
            for trial in range(1000):
                t = random_tournament(order, derive_seed(5000 + order, trial))
                if teq(t) != teq_bruteforce(t):
                    ok = False
                    break
                checked += 1
            if not ok:
                break

    elapsed = time.monotonic() - started
    _report(5, "teq equals the brute-force oracle",
            ok, f" ({checked} tournaments: 32768 exhaustive at order 6 "
                f"+ 1000 random at each of orders 7-10, {elapsed:.1f}s)")


def test_criterion_6_uniqueness_sampling_orders_8_to_12():
    started = time.monotonic()
    ok = True
    checked = 0
    for order in (8, 9, 10, 11, 12):
        for trial in range(10000):
            t = random_tournament(order, derive_seed(6000 + order, trial))
            if len(minimal_retentive_sets(t)) != 1:
                ok = False
                break
            checked += 1
        if not ok:
            break
    elapsed = time.monotonic() - started
    _report(6, "10,000 random tournaments at each order 8-12 all have a unique minimal set",
            ok, f" ({checked} tournaments, {elapsed:.1f}s)")


def test_criterion_7_property_suites():
    failures = []

    # nonemptiness
    for order in range(1, 13):
        t = random_tournament(order, derive_seed(700, order))
        if teq(t) == 0:
            failures.append(f"empty teq at order {order}")

    # Condorcet consistency: graft a dominant alternative onto random tournaments
    for seed in range(50):
        t = random_tournament(8, derive_seed(701, seed))
        beats = list(t.beats)
        beats[0] = full_set(8) ^ 1
        for v in range(1, 8):
            beats[v] &= ~1
        if teq(Tournament(beats)) != 1:
            failures.append(f"condorcet failure at seed {seed}")

    # isomorphism invariance under an index rotation
    for seed in range(50):
        t = random_tournament(9, derive_seed(702, seed))
        perm = [(v + 1) % 9 for v in range(9)]
        if teq(relabel(t, perm)) != altset(perm[v] for v in members(teq(t))):
            failures.append(f"invariance failure at seed {seed}")

    # cache warm/cold equality
    t = build_counterexample().tournament
    warm = TeqCache(t)
    if [teq_of_subset(warm, t.dom_of[v]) for v in range(24)] != \
            [teq_of_subset(TeqCache(t), t.dom_of[v]) for v in range(24)]:
        failures.append("warm/cold cache mismatch")

    # serialize/parse round trip
    for seed in range(100):
        t = random_tournament(1 + seed % 20, derive_seed(703, seed))
        if parse(serialize(t)) != t:
            failures.append(f"round-trip failure at seed {seed}")

    # deterministic generation and search
    if random_tournament(10, 99) != random_tournament(10, 99):
        failures.append("gen nondeterministic")
    config = SearchConfig(order=8, trials=100, seed=99)
    if search_random(config).to_dict(include_timing=False) != \
            search_random(config).to_dict(include_timing=False):
        failures.append("search nondeterministic")

    _report(7, "property suites (nonemptiness, Condorcet, invariance, cache, "
               "round-trip, determinism)",
            not failures, f" {failures}" if failures else "")


def test_criterion_8_mutation_sensitivity(instance):
    started = time.monotonic()
    detected = 0
    total = 0
    for i in range(12):
        for j in range(12, 24):
            total += 1
            m = instance._replace(tournament=flip_edge(instance.tournament, i, j))
            if not verify_claims(m).all_passed:
                detected += 1
    elapsed = time.monotonic() - started
    ok = total == 144 and detected >= int(0.95 * total)
    _report(8, "single cross-edge flips are detected by the claim verifier",
            ok, f" ({detected}/{total} flips detected, {elapsed:.1f}s)")

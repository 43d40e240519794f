import itertools
import random
from pathlib import Path

import pytest
from hypothesis import settings

import teqtools
import teqtools.search
from teqtools.core import Tournament, altset, members, restrict
from teqtools.counterexample import GOLDEN_FILE, build_counterexample

# A falsified property test prints its @reproduce_failure blob, so a failure
# seen only in CI can be replayed locally. Loaded before any test module, so
# every @settings inherits it.
settings.register_profile("teqtools", print_blob=True)
settings.load_profile("teqtools")


def cycle_tournament(n):
    """i beats i+1..i+(n-1)//2 (mod n); the rotational regular tournament, odd n only."""
    assert n % 2 == 1
    return circulant(n, range(1, (n + 1) // 2))


def transitive_tournament(n):
    """i beats every j > i."""
    return Tournament([altset(range(i + 1, n)) for i in range(n)])


def circulant(n, connection):
    """Alternative i beats i + s (mod n) for every s in the connection set."""
    return Tournament([altset((i + s) % n for s in connection) for i in range(n)])


def quadratic_residues(p):
    """The nonzero squares mod p, sorted."""
    return tuple(sorted({x * x % p for x in range(1, p)}))


def random_connection_set(rng, n):
    """One of d and n - d for each d in 1..(n-1)/2: a regular circulant tournament for odd n."""
    return tuple(d if rng.random() < 0.5 else n - d for d in range(1, (n - 1) // 2 + 1))


def paley_tournament(p):
    """i beats j iff j - i is a nonzero square mod p; a tournament for primes p = 3 mod 4."""
    return circulant(p, quadratic_residues(p))


def random_regular(n, seed, reversals):
    """A seeded circulant of odd order n with ``reversals`` random directed 3-cycles reversed.

    Reversing a directed 3-cycle keeps every score, so the result is regular.
    With no reversal it is vertex-transitive; a few reversals usually leave a
    trivial automorphism group.
    """
    rng = random.Random(seed)
    beats = list(circulant(n, random_connection_set(rng, n)).beats)
    for _ in range(reversals):
        a = rng.randrange(n)
        b = rng.choice(members(beats[a]))
        # c with b -> c -> a closes the 3-cycle a -> b -> c -> a; in a regular
        # tournament of order >= 3 every arc lies on one
        c = rng.choice(members(beats[b] & ~beats[a] & ~(1 << a)))
        for x, y in ((a, b), (b, c), (c, a)):
            beats[x] ^= 1 << y
            beats[y] ^= 1 << x
    return Tournament(beats)


def relabel(t, perm):
    """t with alternative v renamed perm[v]."""
    beats = [0] * t.order
    for v in range(t.order):
        beats[perm[v]] = altset(perm[w] for w in members(t.beats[v]))
    return Tournament(beats)


def flip_edge(t, a, b):
    """Copy of t with the orientation of pair {a, b} reversed."""
    beats = list(t.beats)
    winner, loser = (a, b) if t.dominates(a, b) else (b, a)
    beats[winner] ^= 1 << loser
    beats[loser] |= 1 << winner
    return Tournament(beats)


def all_tournaments(n):
    """Every labeled tournament of order n, one per orientation code."""
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        beats = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (code >> k) & 1:
                beats[i] |= 1 << j
            else:
                beats[j] |= 1 << i
        yield Tournament(beats)


@pytest.fixture(scope="session")
def instance():
    return build_counterexample()


@pytest.fixture(scope="session")
def big_t(instance):
    return instance.tournament


@pytest.fixture
def embedded_half(monkeypatch, big_t, instance):
    """Every structured-mode search trial draws the X half of the embedded instance."""
    half, _ = restrict(big_t, instance.x_set)
    monkeypatch.setattr(teqtools.search, "random_tournament", lambda order, seed: half)


@pytest.fixture(scope="session")
def golden_text():
    """The serialized order-24 instance shipped beside the package."""
    return (Path(teqtools.__file__).parent / "data" / GOLDEN_FILE).read_text()

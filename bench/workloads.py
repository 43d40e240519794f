"""The benchmark's three workloads: ``search``, ``regular`` and ``cli``.

A workload builds its inputs one round at a time from a seeded RNG, so the
same workload seed gives the same inputs and no op repeats an earlier input.
For every op it provides:

* ``run(spec)``: the op as a user runs it, timed with tracing off;
* ``run_traced(spec, tracer)``: the same work split into calls to each
  layer's public functions, with a span around each call;
* ``verify(spec, raw)`` / ``verify_traced(spec, raw)``: checks that raise
  ``CheckFailed`` and otherwise return the op's canonical result, the part
  that every correct implementation must reproduce exactly;
* ``replay(spec, tracer)``: extra in-process layer calls recorded in the
  traced run only (used by ``cli``, whose own work happens in a subprocess).

Checks never trust the program against itself where an independent answer
is cheap: dominator lists and isomorphism verdicts come from the inputs the
benchmark wrote, and TEQ results must satisfy the defining invariants.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import NULL_TRACER

core = importlib.import_module("teqtools.core")
teq = importlib.import_module("teqtools.teq")
search = importlib.import_module("teqtools.search")
counterexample = importlib.import_module("teqtools.counterexample")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def round_rng(workload: str, seed: int, part) -> random.Random:
    """The RNG for one round (or other named part) of a workload's inputs."""
    return random.Random(f"{workload}:{seed}:{part}")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


# --- inputs the benchmark builds itself, independent of the program under test

def random_beats(rng: random.Random, n: int) -> list[int]:
    beats = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                beats[i] |= 1 << j
            else:
                beats[j] |= 1 << i
    return beats


def tournament_text(beats: list[int]) -> str:
    n = len(beats)
    rows = ("".join("1" if row >> j & 1 else "0" for j in range(n)) for row in beats)
    return f"{n}\n" + "".join(row + "\n" for row in rows)


def circulant_beats(n: int, connection: tuple[int, ...], perm: list[int]) -> list[int]:
    """Circulant tournament on Z_n (i beats i+s for s in ``connection``), relabelled by perm."""
    beats = [0] * n
    for i in range(n):
        row = 0
        for s in connection:
            row |= 1 << perm[(i + s) % n]
        beats[perm[i]] = row
    return beats


def random_connection_set(rng: random.Random, n: int) -> tuple[int, ...]:
    """One of each pair {k, n-k}: the connection set of a regular tournament of odd order n."""
    return tuple(sorted(k if rng.getrandbits(1) else n - k for k in range(1, (n - 1) // 2 + 1)))


def paley_connection_set(p: int) -> tuple[int, ...]:
    """Quadratic residues mod p; a tournament connection set when p = 3 mod 4."""
    return tuple(sorted({x * x % p for x in range(1, p)}))


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def multiplier_equivalent(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    target = set(b)
    return any({u * s % n for s in a} == target for u in range(1, n) if math.gcd(u, n) == 1)


def preserves_dominance(a: list[int], b: list[int], mapping: list[int]) -> bool:
    n = len(a)
    if sorted(mapping) != list(range(n)):
        return False
    return all((a[i] >> j & 1) == (b[mapping[i]] >> mapping[j] & 1)
               for i in range(n) for j in range(n) if i != j)


# --- TEQ layer: the traced split of one minimal_retentive_sets call, and its checks

def traced_minimal_sets(t, tracer):
    """minimal_retentive_sets(t, TeqCache(t)) split into validation, recursion and top SCC."""
    with tracer.span("core.tournament_init"):
        t = core.Tournament(t.beats)
    cache = teq.TeqCache(t)
    with tracer.span("teq.recursion"):
        for dominators in t.dom_of:
            if dominators:
                teq.teq_of_subset(cache, dominators)
    with tracer.span("teq.top_scc"):
        sets = teq.minimal_retentive_sets(t, cache)
    tracer.count("teq.memo_entries", len(cache.table))
    tracer.high_water("teq.memo_entries_max", len(cache.table))
    tracer.count("teq.query_hits", cache.hits)
    tracer.count("teq.query_misses", cache.misses)
    return t, cache, sets


def check_minimal_sets(t, cache, sets) -> None:
    """Nonempty, ordered by smallest member, pairwise disjoint, retentive, union = TEQ."""
    require(bool(sets), "no minimal retentive set")
    require(sets == sorted(sets, key=lambda m: m & -m), "minimal sets out of order")
    union = 0
    for s in sets:
        require(s != 0 and union & s == 0, "minimal sets empty or overlapping")
        require(teq.is_retentive(cache, s), "a minimal set is not retentive")
        union |= s
    require(union == teq.teq_of_subset(cache, core.full_set(t.order)),
            "union of the minimal sets is not TEQ")


def cross_check(seed: int, per_order: int = 60) -> int:
    """Fast path against the brute-force oracle at orders 8..12, plus the order-24 answer.

    Returns the number of tournaments compared; raises CheckFailed on a mismatch.
    """
    rng = round_rng("cross", seed, 0)
    compared = 0
    for n in range(8, 13):
        for _ in range(per_order):
            t = core.Tournament(random_beats(rng, n))
            require(teq.minimal_retentive_sets(t) == teq.bruteforce_minimal_retentive_sets(t),
                    f"order {n}: minimal sets differ from the brute-force oracle")
            compared += 1
    inst = counterexample.build_counterexample()
    require(teq.minimal_retentive_sets(inst.tournament) == [inst.x_set, inst.y_set],
            "order-24 instance: minimal sets are not X and Y")
    return compared + 1


# --- child interpreters

def child_env() -> dict:
    """The caller's environment, importing this checkout, with bytecode caching on.

    Users run an installed package whose modules are compiled once; without a
    .pyc cache every op would recompile the package from source.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_import_seconds(module: str, cwd: Path) -> float:
    """Import time of ``module`` in a fresh interpreter, checked to come from this checkout."""
    probe = ("import time; t0 = time.perf_counter(); import " + module +
             "; t1 = time.perf_counter(); import teqtools; print(t1 - t0); print(teqtools.__file__)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=child_env(), check=True,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S).stdout.splitlines()
    origin = Path(out[1]).resolve()
    require(origin.is_relative_to(SRC.resolve()), f"child imported teqtools from {origin}")
    return float(out[0])


def child_wall_seconds(code: str, cwd: Path) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=cwd, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - started


# --- search: the paper's search harness

SEARCH_CONFIGS = ((13, "uniform"), (17, "uniform"), (21, "uniform"), (23, "uniform"),
                  (16, "structured"), (20, "structured"), (24, "structured"))
SEARCH_TRIALS = 20


class SearchWorkload:
    """One op is search_random over SEARCH_TRIALS trials at one (order, mode)."""

    name = "search"
    import_module = "teqtools"

    def make_round(self, rng: random.Random, workdir: Path) -> list:
        return [(order, mode, rng.getrandbits(63)) for order, mode in SEARCH_CONFIGS]

    def run(self, spec):
        order, mode, seed = spec
        config = search.SearchConfig(order=order, trials=SEARCH_TRIALS, seed=seed, mode=mode)
        return search.search_random(config).to_dict(include_timing=False)

    def run_traced(self, spec, tracer):
        return self._rebuild(spec, tracer)

    def verify(self, spec, report):
        rebuilt = self._rebuild(spec, NULL_TRACER)
        require(rebuilt[0] == report, "search report differs from its per-trial rebuild")
        return self.verify_traced(spec, rebuilt)

    def verify_traced(self, spec, rebuilt):
        report, trials = rebuilt
        require(report["timed_out"] == 0, "a trial timed out")
        for t, cache, sets in trials:
            check_minimal_sets(t, cache, sets)
        return {"report": report, "sets": [sets for _, _, sets in trials]}

    def replay(self, spec, tracer) -> None:
        pass

    def _rebuild(self, spec, tracer):
        """The search report recomputed trial by trial from the public API."""
        order, mode, seed = spec
        report = {"order": order, "trials": SEARCH_TRIALS, "seed": seed, "mode": mode,
                  "found": 0, "timed_out": 0, "witnesses": []}
        trials = []
        for trial in range(SEARCH_TRIALS):
            with tracer.span("core.derive_seed"):
                trial_seed = core.derive_seed(seed, trial)
            if mode == "uniform":
                with tracer.span("core.random_tournament"):
                    t = core.random_tournament(order, trial_seed)
            else:
                with tracer.span("core.random_tournament"):
                    half = core.random_tournament(order // 2, trial_seed)
                with tracer.span("search.compose_structured"):
                    t = search.compose_structured(half, order // 4)
            t, cache, sets = traced_minimal_sets(t, tracer)
            if len(sets) >= 2:
                report["found"] += 1
                if len(report["witnesses"]) < search.DEFAULT_WITNESS_CAP:
                    report["witnesses"].append(core.serialize(t))
            trials.append((t, cache, sets))
        return report, trials


# --- regular: regular tournaments, where no shortcut applies

PALEY_ORDERS = (31, 43, 59)
CIRCULANT_ORDERS = tuple(range(31, 46, 2))
CIRCULANTS_PER_ORDER = 4


class RegularWorkload:
    """One op is minimal_retentive_sets(t, TeqCache(t)) on a relabelled regular tournament."""

    name = "regular"
    import_module = "teqtools"

    def __init__(self):
        self.paley_sets: dict[int, list] = {}

    def make_round(self, rng: random.Random, workdir: Path) -> list:
        bases = [("paley", p, paley_connection_set(p)) for p in PALEY_ORDERS]
        bases += [("circulant", n, random_connection_set(rng, n))
                  for n in CIRCULANT_ORDERS for _ in range(CIRCULANTS_PER_ORDER)]
        rng.shuffle(bases)
        ops = []
        for family, n, connection in bases:
            perm = shuffled(rng, n)
            ops.append((family, n, connection, perm,
                        core.Tournament(circulant_beats(n, connection, perm))))
        return ops

    def run(self, spec):
        t = spec[-1]
        cache = teq.TeqCache(t)
        return t, cache, teq.minimal_retentive_sets(t, cache)

    def run_traced(self, spec, tracer):
        return traced_minimal_sets(spec[-1], tracer)

    def verify(self, spec, raw):
        t, cache, sets = raw
        check_minimal_sets(t, cache, sets)
        family, n, connection, perm, _ = spec
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        canonical = sorted((sorted(inverse[v] for v in core.iter_members(s)) for s in sets))
        if family == "paley":
            known = self.paley_sets.setdefault(n, canonical)
            require(canonical == known, f"Paley {n}: answer changed under relabelling")
        return {"family": family, "order": n, "connection": list(connection), "sets": canonical}

    verify_traced = verify

    def replay(self, spec, tracer) -> None:
        pass


# --- cli: the user-facing entry point, one subprocess per op

ISO_ORDERS = (17, 19, 21, 23, 25)
# Distinct connection sets are drawn at one prime order. At a prime order two
# circulant tournaments are isomorphic iff a multiplier maps one connection
# set onto the other (Adam's conjecture, proved for prime orders by Turner,
# 1967), which gives the expected verdict without trusting the program. A
# single order keeps the refutation cost, which sets op_p90_ms, from mixing
# orders whose costs differ several-fold.
DISTINCT_ISO_ORDER = 19
GEN_ORDER = 64
MALFORMED_ORDER = 8


@dataclass
class CliOp:
    kind: str
    args: list[str]
    files: list[Path] = field(default_factory=list)
    expect: object = None


def malformed_text(rng: random.Random) -> str:
    """A valid order-8 file with one defect: header, row length, character, diagonal, pair or row count."""
    n = MALFORMED_ORDER
    lines = tournament_text(random_beats(rng, n)).splitlines()
    kind = rng.randrange(6)
    r = rng.randrange(n)
    row = lines[r + 1]
    if kind == 0:
        lines[0] = "eight"
    elif kind == 1:
        lines[r + 1] = row[:-1]
    elif kind == 2:
        c = (r + 1) % n
        lines[r + 1] = row[:c] + "2" + row[c + 1:]
    elif kind == 3:
        lines[r + 1] = row[:r] + "1" + row[r + 1:]
    elif kind == 4:
        c = (r + 1) % n
        lines[r + 1] = row[:c] + ("0" if row[c] == "1" else "1") + row[c + 1:]
    else:
        lines.pop()
    return "\n".join(lines) + "\n"


class CliWorkload:
    """One op is one ``python -m teqtools.cli`` subprocess; a round mixes every command."""

    name = "cli"
    import_module = "teqtools.cli"

    def __init__(self):
        self.golden = SRC / "teqtools" / "data" / counterexample.GOLDEN_FILE
        self._claims = None
        self._golden_sets = None

    def make_round(self, rng: random.Random, workdir: Path) -> list:
        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, text: str) -> Path:
            path = workdir / name
            path.write_text(text)
            return path

        ops = [CliOp("verify", ["verify-counterexample", "--json"]),
               CliOp("minimal", ["minimal-retentive", "--json", str(self.golden)], [self.golden])]
        gen_seed = rng.getrandbits(32)
        ops.append(CliOp("gen", ["gen", "--order", str(GEN_ORDER), "--seed", str(gen_seed)],
                         expect=gen_seed))
        beats = random_beats(rng, GEN_ORDER)
        path = write("dominators.txt", tournament_text(beats))
        alt = rng.randrange(GEN_ORDER)
        ops.append(CliOp("dominators", ["dominators", "--json", str(path), "--alt", str(alt + 1)],
                         [path], [j + 1 for j in range(GEN_ORDER) if beats[j] >> alt & 1]))
        for k, distinct in enumerate((False, False, True, True)):
            n = DISTINCT_ISO_ORDER if distinct else rng.choice(ISO_ORDERS)
            s = random_connection_set(rng, n)
            t = s
            while distinct and t == s:
                t = random_connection_set(rng, n)
            a = circulant_beats(n, s, shuffled(rng, n))
            b = circulant_beats(n, t, shuffled(rng, n))
            pa = write(f"iso{k}a.txt", tournament_text(a))
            pb = write(f"iso{k}b.txt", tournament_text(b))
            ops.append(CliOp("isomorphic", ["isomorphic", "--json", str(pa), str(pb)], [pa, pb],
                             (a, b, multiplier_equivalent(n, s, t))))
        for k in range(2):
            path = write(f"malformed{k}.txt", malformed_text(rng))
            command = rng.choice(("teq", "minimal-retentive"))
            ops.append(CliOp("malformed", [command, str(path)], [path]))
        rng.shuffle(ops)
        return ops

    def run(self, op: CliOp):
        proc = subprocess.run([sys.executable, "-m", "teqtools.cli", *op.args],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, op: CliOp, tracer):
        return self.run(op)

    def verify(self, op: CliOp, raw):
        code, out, err = raw
        if op.kind == "malformed":
            require(code == 3 and out == "" and err.startswith("teqtools: error: "),
                    f"malformed input: exit {code}, stderr {err[:80]!r}")
            return {"kind": op.kind, "exit": code}
        if op.kind == "gen":
            require(code == 0, f"gen exited {code}")
            t = core.parse(out)
            require(t.order == GEN_ORDER and core.serialize(t) == out, "gen output does not round-trip")
            require(out == core.serialize(core.random_tournament(GEN_ORDER, op.expect)),
                    "gen output differs from the library's tournament")
            return {"kind": op.kind, "exit": code, "stdout_sha256": digest(out)}
        payload = json.loads(out)
        if op.kind == "verify":
            claims = [[c["id"], c["passed"]] for c in payload["claims"]]
            require(code == 0 and payload["all_passed"] is True, "verify-counterexample failed")
            require(claims == self.expected_claims(), "claims differ from verify_claims in-process")
            return {"kind": op.kind, "exit": code, "claims": claims}
        if op.kind == "minimal":
            sets = payload["minimal_retentive_sets"]
            require(code == 0 and sets == self.golden_sets(), f"golden file: wrong minimal sets {sets}")
            return {"kind": op.kind, "exit": code, "sets": sets}
        if op.kind == "dominators":
            require(code == 0 and payload["dominators"] == op.expect, "wrong dominators")
            return {"kind": op.kind, "exit": code, "dominators": op.expect}
        a, b, expected = op.expect
        verdict = payload["isomorphic"]
        require(code == (0 if verdict else 1), f"isomorphic exited {code}")
        require(verdict == expected, f"isomorphic said {verdict}, expected {expected}")
        if verdict:
            require(preserves_dominance(a, b, [m - 1 for m in payload["mapping"]]),
                    "isomorphism witness does not preserve dominance")
        return {"kind": op.kind, "exit": code, "isomorphic": verdict}

    verify_traced = verify

    def expected_claims(self):
        if self._claims is None:
            report = counterexample.verify_claims(counterexample.build_counterexample())
            self._claims = [[c.claim_id, c.passed] for c in report.claims]
        require(all(passed for _, passed in self._claims), "verify_claims fails in-process")
        return self._claims

    def golden_sets(self):
        if self._golden_sets is None:
            t = core.parse(self.golden.read_text())
            cache = teq.TeqCache(t)
            sets = teq.minimal_retentive_sets(t, cache)
            check_minimal_sets(t, cache, sets)
            self._golden_sets = [[v + 1 for v in core.iter_members(s)] for s in sets]
        return self._golden_sets

    def replay(self, op: CliOp, tracer) -> None:
        """The op's library calls made in-process, so their layers get spans."""
        texts = [path.read_text() for path in op.files]
        parsed = []
        for text in texts:
            tracer.count("core.parse.bytes", len(text.encode()))
            try:
                with tracer.span("core.parse"):
                    parsed.append(core.parse(text))
            except core.FormatError:
                pass
        if op.kind == "verify":
            with tracer.span("counterexample.verify_claims"):
                report = counterexample.verify_claims(counterexample.build_counterexample())
            tracer.count("counterexample.claims_passed", sum(c.passed for c in report.claims))
        elif op.kind == "minimal":
            traced_minimal_sets(parsed[0], tracer)
        elif op.kind == "gen":
            with tracer.span("core.random_tournament"):
                t = core.random_tournament(GEN_ORDER, op.expect)
            with tracer.span("core.serialize"):
                core.serialize(t)
        elif op.kind == "isomorphic":
            with tracer.span("core.find_isomorphism"):
                found = core.find_isomorphism(*parsed) is not None
            tracer.count("core.find_isomorphism.found", int(found))

    def startup_seconds(self, cwd: Path, reps: int) -> dict:
        """Median wall time of a bare interpreter, and of importing the CLI on top of it."""
        bare = statistics.median(child_wall_seconds("pass", cwd) for _ in range(reps))
        cli = statistics.median(child_wall_seconds("import teqtools.cli", cwd) for _ in range(reps))
        return {"cli.interp_s": bare, "cli.import_s": cli - bare}


WORKLOADS = {w.name: w for w in (SearchWorkload, RegularWorkload, CliWorkload)}

import pytest

import hashlib
import itertools
import json
import time
from collections import Counter

from teqtools import counterexample
from teqtools.core import altset, dominators, full_set, is_isomorphism, parse, restrict, serialize
from teqtools.counterexample import (
    DOM_X_TABLE,
    EXPECTED_TEQ_TABLE,
    build_counterexample,
    expected_teq_masks,
    label,
    label_set,
    verify_claims,
)
from teqtools.teq import minimal_retentive_sets

from conftest import flip_edge


# the top and bottom blocks of six in each half
X1, X2 = altset(range(0, 6)), altset(range(6, 12))
Y1, Y2 = X1 << 12, X2 << 12


class TestBuild:
    def test_partitions(self, instance):
        assert instance.x_set | instance.y_set == full_set(24)
        assert instance.x_set & instance.y_set == 0
        assert X1 | X2 == instance.x_set
        assert Y1 | Y2 == instance.y_set

    def test_deterministic_and_matches_golden_file(self, instance, golden_text):
        assert serialize(instance.tournament) == golden_text
        assert build_counterexample().tournament == instance.tournament

    def test_golden_file_parses_back(self, instance, golden_text):
        assert parse(golden_text) == instance.tournament

    def test_dominators_of_x5_within_x(self, big_t, instance):
        assert dominators(big_t, instance.x_set, 4) == altset([1, 2, 3, 7, 9, 10])

    def test_dominators_of_x7_in_full_tournament(self, big_t):
        # dominators inside X plus the whole bottom Y block
        expected = altset([0, 4, 5, 10, 11]) | altset(range(18, 24))
        assert dominators(big_t, full_set(24), 6) == expected

    def test_table_cardinalities_sum_to_66(self):
        assert sum(len(v) for v in DOM_X_TABLE.values()) == 66

    def test_cross_block_dominance(self, big_t):
        def block_beats(a_block, b_block):
            return all(big_t.dominates(a, b)
                       for a in range(24) if (a_block >> a) & 1
                       for b in range(24) if (b_block >> b) & 1)

        assert block_beats(X1, Y2)
        assert block_beats(X2, Y1)
        assert block_beats(Y1, X1)
        assert block_beats(Y2, X2)

    def test_y_half_is_shifted_copy(self, big_t):
        for i in range(12):
            for j in range(12):
                if i != j:
                    assert big_t.dominates(i, j) == big_t.dominates(i + 12, j + 12)

    def test_table_orientations_consistent(self):
        for i in DOM_X_TABLE:
            for j in DOM_X_TABLE:
                if i != j:
                    assert (j in DOM_X_TABLE[i]) != (i in DOM_X_TABLE[j])

    def test_labels(self):
        assert label(0) == "x1"
        assert label(11) == "x12"
        assert label(12) == "y1"
        assert label(23) == "y12"
        assert label_set(altset([0, 23])) == "{x1, y12}"


class TestVerifyClaims:
    def test_all_claims_pass(self, instance):
        started = time.monotonic()
        report = verify_claims(instance)
        assert time.monotonic() - started < 10.0
        assert report.all_passed
        assert [c.claim_id for c in report.claims if not c.passed] == []

    def test_claim_inventory(self, instance):
        report = verify_claims(instance)
        ids = [c.claim_id for c in report.claims]
        assert [f"teq-dom-x{i}" for i in range(1, 13)] == ids[:12]
        for required in ("x-retentive", "teq-dom-y-inside-y", "y-retentive",
                         "x-y-disjoint", "halves-isomorphic", "x-y-symmetry",
                         "two-minimal-sets"):
            assert required in ids
        assert len(report.notes) == 2

    def test_halves_isomorphic_witness_is_identity(self, instance):
        claim = next(c for c in verify_claims(instance).claims if c.claim_id == "halves-isomorphic")
        assert claim.details == "witness " + " ".join(f"x{i}->y{i}" for i in range(1, 13))

    def test_expected_table_row_12(self):
        assert EXPECTED_TEQ_TABLE[12] == (3, 4, 9)
        assert expected_teq_masks()[12] == altset([2, 3, 8])

    def test_claims_recomputable_from_tournament_alone(self, instance):
        # round-trip the tournament through text; claims must still pass
        rebuilt = instance._replace(tournament=parse(serialize(instance.tournament)))
        assert verify_claims(rebuilt).all_passed


# sha256 of the JSON of every claim (id, description, verdict, details) in the
# reports for the instance and each of its 276 single-arc reversals, in
# itertools.combinations order
REPORT_DIGEST = "d66993fa8baf2f7f99484d9404f10bd0e00001e7c1c72663f18de74a3e1cd688"

# how many of the 276 single-arc reversals fail each claim
FAILURE_TALLY = {
    "teq-dom-x1": 34, "teq-dom-x2": 32, "teq-dom-x3": 32, "teq-dom-x4": 32,
    "teq-dom-x5": 32, "teq-dom-x6": 30, "teq-dom-x7": 34, "teq-dom-x8": 33,
    "teq-dom-x9": 33, "teq-dom-x10": 33, "teq-dom-x11": 33, "teq-dom-x12": 33,
    "x-retentive": 132, "teq-dom-y-inside-y": 132, "y-retentive": 132,
    "x-y-disjoint": 264, "halves-isomorphic": 132, "x-y-symmetry": 276,
    "two-minimal-sets": 264,
}


class TestWholeReport:
    """Every claim of the report, failing details included, is pinned."""

    @pytest.fixture(scope="class")
    def reports(self, instance):
        t = instance.tournament
        return [verify_claims(instance)] + [
            verify_claims(instance._replace(tournament=flip_edge(t, a, b)))
            for a, b in itertools.combinations(range(24), 2)
        ]

    def test_digest(self, reports):
        blob = json.dumps([[list(c) for c in r.claims] for r in reports])
        assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_DIGEST

    def test_failure_tally(self, reports):
        assert reports[0].all_passed
        assert not any(r.all_passed for r in reports[1:])
        tally = Counter(c.claim_id for r in reports[1:] for c in r.claims if not c.passed)
        assert dict(tally) == FAILURE_TALLY


class TestSabotage:
    """A wrong answer from a fast-path routine fails exactly the claim that checks it."""

    def failing(self, instance):
        return [c for c in verify_claims(instance).claims if not c.passed]

    def test_lone_minimal_set(self, instance, monkeypatch):
        monkeypatch.setattr(counterexample, "minimal_retentive_sets",
                            lambda t, cache=None: [instance.x_set])
        assert [c.claim_id for c in self.failing(instance)] == ["two-minimal-sets"]

    def test_isomorphism_witness_is_rechecked(self, big_t, instance, monkeypatch):
        rotation = list(range(1, 12)) + [0]
        tx, _ = restrict(big_t, instance.x_set)
        ty, _ = restrict(big_t, instance.y_set)
        assert not is_isomorphism(tx, ty, rotation)
        monkeypatch.setattr(counterexample, "find_isomorphism", lambda a, b: rotation)
        [claim] = self.failing(instance)
        assert claim.claim_id == "halves-isomorphic"
        assert claim.details.startswith("witness x1->y2 x2->y3 ")


class TestNeighbourhood:
    """The instance is isolated: few single changes keep two minimal retentive sets."""

    def test_twelve_arc_reversals_keep_two_sets(self, big_t):
        counts = [len(minimal_retentive_sets(flip_edge(big_t, *pair)))
                  for pair in itertools.combinations(range(24), 2)]
        assert (counts.count(2), counts.count(1), len(counts)) == (12, 264, 276)

    @pytest.mark.parametrize("removed", [1, 2])
    def test_no_vertex_deletion_keeps_two_sets(self, big_t, removed):
        for gone in itertools.combinations(range(24), removed):
            sub, _ = restrict(big_t, full_set(24) & ~altset(gone))
            assert len(minimal_retentive_sets(sub)) == 1, gone

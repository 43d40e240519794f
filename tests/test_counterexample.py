import pytest

import itertools

from teqtools.core import altset, dominators, full_set, parse, restrict, serialize
from teqtools.counterexample import (
    DOM_X_TABLE,
    EXPECTED_TEQ_TABLE,
    CounterexampleInstance,
    build_counterexample,
    expected_teq_masks,
    label,
    label_set,
    verify_claims,
)
from teqtools.teq import TeqCache, minimal_retentive_sets, teq_of_subset

from conftest import flip_edge


def mutated(inst, a, b):
    return CounterexampleInstance(
        tournament=flip_edge(inst.tournament, a, b),
        x_set=inst.x_set, y_set=inst.y_set,
        x1=inst.x1, x2=inst.x2, y1=inst.y1, y2=inst.y2,
    )


class TestBuild:
    def test_partitions(self, instance):
        assert instance.x_set | instance.y_set == full_set(24)
        assert instance.x_set & instance.y_set == 0
        assert instance.x1 | instance.x2 == instance.x_set
        assert instance.y1 | instance.y2 == instance.y_set
        for block in (instance.x1, instance.x2, instance.y1, instance.y2):
            assert block.bit_count() == 6

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

    def test_cross_block_dominance(self, big_t, instance):
        def block_beats(a_block, b_block):
            return all(big_t.dominates(a, b)
                       for a in range(24) if (a_block >> a) & 1
                       for b in range(24) if (b_block >> b) & 1)

        assert block_beats(instance.x1, instance.y2)
        assert block_beats(instance.x2, instance.y1)
        assert block_beats(instance.y1, instance.x1)
        assert block_beats(instance.y2, instance.x2)

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
        report = verify_claims(instance)
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
        rebuilt = CounterexampleInstance(
            tournament=parse(serialize(instance.tournament)),
            x_set=instance.x_set, y_set=instance.y_set,
            x1=instance.x1, x2=instance.x2, y1=instance.y1, y2=instance.y2,
        )
        assert verify_claims(rebuilt).all_passed

    @pytest.mark.parametrize("pair", [(0, 12), (0, 18), (6, 12), (11, 23), (5, 19)])
    def test_cross_edge_flip_detected(self, instance, pair):
        report = verify_claims(mutated(instance, *pair))
        assert not report.all_passed

    def test_within_half_flip_detected(self, instance):
        # breaking the X half's internal structure must fail the table claims
        report = verify_claims(mutated(instance, 0, 3))
        assert not report.all_passed

    def test_teq_x1_value(self, big_t):
        cache = TeqCache(big_t)
        assert teq_of_subset(cache, big_t.dom_of[0]) == altset([3, 7, 11])


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

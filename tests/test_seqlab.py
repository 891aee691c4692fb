"""Rank profiles of zero-extended finite sequences, and the window suprema that `support.partial_sup` checks them by."""

import math

import pytest

from reachmax.seqlab import (
    BEYOND_PREFIX,
    INFINITE,
    FiniteC0Sequence,
    NoRank,
    rank_profile,
)

from support import (
    check_profile_properties,
    hump_seq,
    partial_sup,
    plateau_seq,
    random_sequences,
    strictly_negative_seq,
    touch_zero_seq,
)


class TestFiniteC0Sequence:
    def test_nested_array_is_not_a_sequence(self):
        with pytest.raises(ValueError, match="sequence must be a flat array of numbers"):
            FiniteC0Sequence([[1.0, 2.0], [3.0, 4.0]])

    def test_empty_array_has_no_stored_term(self):
        with pytest.raises(ValueError, match="sequence needs at least one stored term"):
            FiniteC0Sequence([])


class TestPartialSup:
    def test_all_negative_tail_is_zero(self):
        u = FiniteC0Sequence([-1.0, -2.0, -3.0])
        assert partial_sup(u, 1, math.inf) == 0.0

    def test_single_index_window(self):
        u = FiniteC0Sequence([2.0, 1.21, 1.0])
        assert partial_sup(u, 0, 0) == 2.0

    def test_finite_window(self):
        u = FiniteC0Sequence([0.0, 5.0, 3.0])
        assert partial_sup(u, 0, 2) == 5.0

    def test_window_beyond_prefix_sees_padding(self):
        u = FiniteC0Sequence([-1.0, -2.0])
        assert partial_sup(u, 0, 10) == 0.0
        assert partial_sup(u, 5, math.inf) == 0.0

    def test_invalid_window(self):
        u = FiniteC0Sequence([1.0])
        with pytest.raises(ValueError, match=r"invalid window \[3, 2\]"):
            partial_sup(u, 3, 2)


class TestGoldenProfiles:
    def test_hump_sequence(self):
        p = rank_profile(FiniteC0Sequence(hump_seq(41)))
        assert (p.k_geq, p.k_gt, p.K_geq, p.K_gt) == (1, 2, 4, 4)

    def test_plateau_sequence(self):
        p = rank_profile(FiniteC0Sequence(plateau_seq(41)))
        assert (p.k_geq, p.k_gt, p.K_geq, p.K_gt) == (2, 3, 4, 11)

    def test_strictly_negative_sequence_has_no_finite_ranks(self):
        p = rank_profile(FiniteC0Sequence(strictly_negative_seq(41)))
        assert p.k_geq is BEYOND_PREFIX
        assert p.K_geq is BEYOND_PREFIX
        assert p.k_gt is INFINITE
        assert p.K_gt is INFINITE

    def test_touch_zero_sequence(self):
        p = rank_profile(FiniteC0Sequence(touch_zero_seq(41)))
        assert p.k_geq == 4
        assert p.K_geq == 4
        assert p.k_gt is INFINITE
        assert p.K_gt is INFINITE

    def test_golden_profiles_stable_under_longer_prefix(self):
        # the plotted prefix is long enough: a 10x longer tail changes nothing
        for gen, expected in [
            (hump_seq, (1, 2, 4, 4)),
            (plateau_seq, (2, 3, 4, 11)),
        ]:
            p = rank_profile(FiniteC0Sequence(gen(400)))
            assert (p.k_geq, p.k_gt, p.K_geq, p.K_gt) == expected
        p = rank_profile(FiniteC0Sequence(strictly_negative_seq(400)))
        assert p.k_geq is BEYOND_PREFIX and p.k_gt is INFINITE
        p = rank_profile(FiniteC0Sequence(touch_zero_seq(400)))
        assert p.k_geq == 4 and p.K_geq == 4 and p.k_gt is INFINITE and p.K_gt is INFINITE

    def test_single_zero(self):
        p = rank_profile(FiniteC0Sequence([0.0]))
        assert p.sup_value == 0.0
        assert p.argmax_set == {0}
        assert p.k_geq == 0 and p.K_geq == 0
        assert p.k_gt is INFINITE and p.K_gt is INFINITE


class TestProfileProperties:
    def test_thousand_random_profiles(self):
        for u in random_sequences(1000, seed=424242):
            check_profile_properties(u)

    def test_rank_values_are_ints_or_sentinels(self):
        for u in random_sequences(50, seed=9):
            p = rank_profile(u)
            for r in (p.k_geq, p.k_gt, p.K_geq, p.K_gt):
                assert isinstance(r, (int, NoRank))

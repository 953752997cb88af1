import pytest

from cyclepack import CycleProfile, ProfileError, make_profile


def test_single_cycle():
    p = make_profile([6])
    assert p.k == 1 and p.n == 6


def test_multi_cycle_sorted_descending():
    p = make_profile([6, 6, 8])
    assert p.k == 3 and p.n == 20
    assert p.lengths == (8, 6, 6)


def test_theorem_mode_rejects_four():
    with pytest.raises(ProfileError) as err:
        make_profile([4, 6])
    assert "position 0" in str(err.value)


def test_conjecture_mode_allows_four():
    p = make_profile([4, 6], mode="conjecture")
    assert p.n == 10 and p.lengths == (6, 4)


def test_odd_length_rejected():
    with pytest.raises(ProfileError):
        make_profile([6, 7])


def test_empty_rejected():
    with pytest.raises(ProfileError):
        make_profile([])


def test_unknown_mode_rejected():
    with pytest.raises(ProfileError):
        make_profile([6], mode="loose")


def test_threshold_values():
    assert make_profile([6]).threshold == 3
    assert make_profile([6, 6]).threshold == 5
    assert make_profile([4, 6], mode="conjecture").threshold == 4


def test_uniform_threshold_consistency_exhaustive():
    # k cycles of length 2s: n/2 - k + 1 equals (s-1)k + 1 across the whole grid
    for s in range(3, 11):
        for k in range(1, 11):
            assert make_profile([2 * s] * k).threshold == (s - 1) * k + 1


def test_profile_is_hashable_value():
    assert make_profile([6, 8]) == CycleProfile((8, 6))
    assert hash(make_profile([6, 8])) == hash(CycleProfile((8, 6)))

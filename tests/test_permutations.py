import pytest

from ewens_stein.ewens import EwensParams, cycle_type_pmf
from ewens_stein.oracle import (
    Permutation,
    cycle_type,
    mapping_cycle_count,
    mapping_cycles,
    reduce_delete,
)


def test_image_roundtrip_and_call():
    p = Permutation([2, 3, 1, 5, 4])
    assert p.n == 5
    assert p.image == (2, 3, 1, 5, 4)
    assert p(1) == 2
    assert p(3) == 1
    assert p(5) == 4


def test_rejects_non_bijection():
    with pytest.raises(ValueError, match="label 2 appears twice"):
        Permutation([2, 2, 1])
    with pytest.raises(ValueError, match="outside"):
        Permutation([1, 2, 4])
    with pytest.raises(ValueError):
        Permutation([])


def test_identity_and_from_cycles():
    e = Permutation.identity(4)
    assert e.image == (1, 2, 3, 4)
    p = Permutation.from_cycles(5, [(1, 3, 2), (4, 5)])
    assert p.image == (3, 1, 2, 5, 4)
    # omitted labels stay fixed
    q = Permutation.from_cycles(4, [(2, 4)])
    assert q.image == (1, 4, 3, 2)
    with pytest.raises(ValueError, match="two cycles"):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_inverse():
    p = Permutation([3, 1, 2, 4])
    for x in range(1, 5):
        assert p.inverse(p(x)) == x
        assert p(p.inverse(x)) == x


def test_cycles_and_cycle_type():
    p = Permutation([2, 1, 4, 5, 3, 6])
    assert p.cycles() == ((1, 2), (3, 4, 5), (6,))
    assert p.cycle_count() == 3
    ct = cycle_type(p)
    assert ct == (1, 1, 1, 0, 0, 0)
    assert sum(j * c for j, c in enumerate(ct, start=1)) == p.n
    assert sum(ct) == 3
    assert cycle_type(Permutation.identity(4)) == (4, 0, 0, 0)


def test_cycle_type_validity():
    # a count vector of weight sum_j j*c_j != n has no permutation
    assert cycle_type_pmf((1, 1, 1), EwensParams(n=3, theta=1.0)) == 0.0  # weight 6
    assert cycle_type_pmf((1, 1, 0, 0, 0), EwensParams(n=5, theta=2.0)) == 0.0  # weight 3
    assert cycle_type_pmf((1, 1, 0), EwensParams(n=3, theta=1.0)) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        cycle_type_pmf((1, -1), EwensParams(n=2, theta=1.0))
    with pytest.raises(ValueError, match="^cycle counts must be nonnegative$"):
        cycle_type_pmf((1, -1, 1), EwensParams(n=3, theta=1.0))
    # weight 2 - 2 + 3 = n, but a negative count is still no cycle type
    with pytest.raises(ValueError, match="nonnegative"):
        cycle_type_pmf((2, -1, 1), EwensParams(n=3, theta=1.0))


def test_cycle_len():
    p = Permutation([2, 1, 4, 5, 3, 6])
    assert p.cycle_len(1) == 2
    assert p.cycle_len(4) == 3
    assert p.cycle_len(6) == 1


def test_fixed_points():
    assert Permutation([1, 3, 2, 4]).fixed_points() == (1, 4)
    assert Permutation([2, 3, 1]).fixed_points() == ()


def test_conjugate_by_transposition():
    """tau pi tau must equal the composition computed from raw images."""
    p = Permutation([3, 5, 4, 1, 2, 6, 7])
    for i, j in [(1, 2), (2, 6), (6, 7), (3, 4), (1, 7)]:
        tau = list(range(1, 8))
        tau[i - 1], tau[j - 1] = j, i
        expected = [tau[p(tau[x - 1]) - 1] for x in range(1, 8)]
        assert p.conjugate_by_transposition(i, j).image == tuple(expected)
    assert p.conjugate_by_transposition(3, 3) is p


def test_conjugation_preserves_cycle_type():
    p = Permutation([4, 6, 5, 2, 3, 1, 7, 8])
    for i, j in [(1, 2), (5, 8), (7, 3)]:
        q = p.conjugate_by_transposition(i, j)
        assert cycle_type(q) == cycle_type(p)


def test_equality_and_hash():
    a = Permutation([2, 1, 3])
    b = Permutation((2, 1, 3))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Permutation([1, 2, 3])
    assert len({a, b}) == 1


def test_repr_uses_cycle_notation():
    assert repr(Permutation([2, 1, 3])) == "Permutation[(1 2)(3)]"


def test_reduce_delete():
    # (1 2 3)(4 5): deleting 2 closes the gap 1 -> 3
    p = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert reduce_delete(p, {2}) == {1: 3, 3: 1, 4: 5, 5: 4}
    # deleting a whole cycle leaves the others untouched
    assert reduce_delete(p, {4, 5}) == {1: 2, 2: 3, 3: 1}
    # deleting 1 and 3 leaves 2 as a fixed point of the reduced map
    assert reduce_delete(p, {1, 3}) == {2: 2, 4: 5, 5: 4}
    assert reduce_delete(p, frozenset()) == {x: p(x) for x in range(1, 6)}


def test_reduce_delete_is_a_bijection_of_survivors():
    p = Permutation([3, 6, 5, 1, 4, 2, 8, 7])
    for B in ({2}, {1, 5}, {3, 6, 7}, {1, 2, 3, 4}):
        red = reduce_delete(p, B)
        survivors = set(range(1, 9)) - B
        assert set(red.keys()) == survivors
        assert set(red.values()) == survivors


def test_mapping_cycles():
    assert mapping_cycles({1: 2, 2: 1, 5: 5}) == [(1, 2), (5,)]
    assert mapping_cycle_count({1: 2, 2: 1, 5: 5}) == 2
    assert mapping_cycle_count({}) == 0
    with pytest.raises(ValueError, match="not a bijection"):
        mapping_cycles({1: 2, 3: 2})

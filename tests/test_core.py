import pytest

from tabkit.core import (
    all_permutations,
    apply_window,
    compositions,
    composition_to_subset,
    descent_composition,
    flip,
    inverse_descent_set,
    partitions,
    position_array,
    reverse_word,
    slinky,
    sort_to_partition,
    strict_partitions,
    subset_to_composition,
    window_table,
    word_from_str,
    word_to_str,
)
from tabkit.operators import (
    CYCLIC_WINDOW_TABLE,
    RESTRICTED_WINDOW_TABLE,
    SHIFTED_WINDOW_TABLE,
)
from tabkit.rsk import DUAL_WINDOW_TABLE

from oracles import (
    apply_window_by_index,
    conjugate,
    invert,
    slinky_by_swaps,
    standardize,
    standardized_yamanouchi,
    yamanouchi_words,
)


def test_composition_counts():
    # 2^(n-1) compositions of n
    for n in range(1, 9):
        assert len(compositions(n)) == 2 ** (n - 1)
    assert compositions(0) == [()]
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_compositions_are_sorted_without_repeats():
    # the recursion lists them in lexicographic order, with no sort
    for n in range(13):
        comps = compositions(n)
        assert comps == sorted(set(comps))
        assert all(sum(alpha) == n and all(alpha) for alpha in comps)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(partitions(n)) == count
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_strict_partition_counts():
    # number of partitions into distinct parts
    expected = [1, 1, 1, 2, 2, 3, 4, 5, 6]
    for n, count in enumerate(expected):
        assert len(strict_partitions(n)) == count
    assert strict_partitions(6) == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_conjugate():
    assert conjugate((4, 4, 1)) == (3, 2, 2, 2)
    assert conjugate(()) == ()
    for n in range(1, 8):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_inverse_descent_set_golden():
    # row reading words of the two tableaux with shape (4,4,1)
    assert inverse_descent_set((9, 5, 6, 7, 8, 1, 2, 3, 4)) == {4, 8}
    assert inverse_descent_set((6, 3, 4, 8, 9, 1, 2, 5, 7)) == {2, 5, 7}


def test_descent_composition_golden():
    assert descent_composition((9, 5, 6, 7, 8, 1, 2, 3, 4)) == (4, 4, 1)
    assert descent_composition((6, 3, 4, 8, 9, 1, 2, 5, 7)) == (2, 3, 2, 2)
    assert descent_composition((1, 2, 3)) == (3,)
    assert descent_composition((3, 2, 1)) == (1, 1, 1)
    assert descent_composition(()) == ()


def test_descent_composition_reads_the_position_array():
    # the runs read off the position array give the gap encoding of the
    # inverse descent set, on every permutation of 1 <= n <= 7
    for n in range(1, 8):
        for word in all_permutations(n):
            pos = position_array(word)
            assert [word[p] for p in pos[1:]] == list(range(1, n + 1))
            assert descent_composition(word) == subset_to_composition(inverse_descent_set(word), n)


def test_subset_composition_round_trip():
    for n in range(1, 9):
        for alpha in compositions(n):
            assert subset_to_composition(composition_to_subset(alpha), n) == alpha


def test_descents_work_on_partial_value_sets():
    # words over arbitrary distinct values: i counts only when i, i+1 present
    assert inverse_descent_set((3, 2, 6, 5, 8, 7, 4)) == {2, 4, 5, 7}


def test_standardize():
    assert standardize((2, 1, 1)) == (3, 1, 2)
    assert standardize((1, 2, 1)) == (1, 3, 2)
    for w in all_permutations(4):
        assert standardize(w) == w


def test_window_table_and_apply_window():
    table = window_table(("x1y",))
    assert table == {(2, 1, 3): (3, 1, 2), (3, 1, 2): (2, 1, 3)}
    # the values 3..5 read (5, 3, 4) in place order, i.e. window (3, 1, 2)
    w = (5, 3, 1, 4, 2)
    assert apply_window(w, 3, 5, table) == (4, 3, 1, 5, 2)
    assert apply_window(w, 2, 4, table) == w


def _window_tables():
    """Every window table of the library, and the restricted one with an
    entry that is no swap."""
    broken = dict(RESTRICTED_WINDOW_TABLE)
    broken[(2, 1, 3, 4)] = (3, 1, 4, 2)
    return [DUAL_WINDOW_TABLE, RESTRICTED_WINDOW_TABLE, SHIFTED_WINDOW_TABLE,
            CYCLIC_WINDOW_TABLE, broken]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_apply_window_matches_index_oracle_on_s_n():
    # every window of every table on every word of S_n, n <= 7, with the
    # windows that run past n (a value missing) raising the same error
    for table in _window_tables():
        k = len(next(iter(table)))
        for n in range(1, 8):
            for w in all_permutations(n):
                for low in range(0, n + 1):
                    high = low + k - 1
                    assert _outcome(apply_window, w, low, high, table) == _outcome(
                        apply_window_by_index, w, low, high, table
                    ), (w, low, table)


def test_apply_window_missing_value_raises():
    table = window_table(("x1y",))
    for word in [(1, 3, 4), (1, 2), (5, 3, 1, 4), (2, 2, 3), ()]:
        with pytest.raises(ValueError, match=r"values \[1, 3\] not all present"):
            apply_window(word, 1, 3, table)
        with pytest.raises(ValueError):
            apply_window_by_index(word, 1, 3, table)


def test_flip_and_invert():
    assert flip((2, 4, 5, 3, 1)) == (5, 3, 1, 2, 4)
    for w in all_permutations(4):
        assert flip(flip(w)) == w
        assert invert(invert(w)) == w
        assert reverse_word(reverse_word(w)) == w


def test_slinky_golden():
    # gravity examples: (1,3,6) drops to (4,3,3) with 3 total row drops
    assert slinky((1, 3, 6)) == (-1, (4, 3, 3))
    assert slinky((2, 2, 3)) is None
    assert slinky(()) == (1, ())
    for n in range(1, 8):
        for lam in partitions(n):
            assert slinky(lam) == (1, lam)


def test_slinky_matches_swap_oracle():
    for n in range(1, 9):
        for alpha in compositions(n):
            assert slinky(alpha) == slinky_by_swaps(alpha)


def test_yamanouchi_words():
    assert yamanouchi_words((2, 1)) == [(1, 2, 1), (2, 1, 1)]
    assert yamanouchi_words((3,)) == [(1, 1, 1)]
    # suffix condition holds for every generated word
    for lam in partitions(5):
        for w in yamanouchi_words(lam):
            for start in range(len(w)):
                suffix = w[start:]
                for i in range(1, len(lam)):
                    assert suffix.count(i) >= suffix.count(i + 1)


def test_standardized_yamanouchi_golden():
    assert standardized_yamanouchi((2, 1)) == [(1, 3, 2), (3, 1, 2)]
    assert standardized_yamanouchi((3,)) == [(1, 2, 3)]
    assert standardized_yamanouchi((1, 1, 1)) == [(3, 2, 1)]


def test_word_serialization():
    assert word_to_str((1, 3, 2)) == "132"
    assert word_from_str("132") == (1, 3, 2)
    long = tuple(range(1, 12))
    assert word_from_str(word_to_str(long)) == long


def test_word_to_str_digit_words():
    # words of values 0..9 and length at most 9 take the byte translation
    for n in range(8):
        for word in all_permutations(n):
            assert word_to_str(word) == "".join(map(str, word))
    assert word_to_str((0, 9, 0)) == "090"
    assert word_to_str(tuple(range(9, 0, -1))) == "987654321"


def test_word_to_str_other_words():
    # the strings of words outside the digit path, as the joins spell them
    assert word_to_str(()) == ""
    assert word_to_str((10,)) == "10"
    assert word_to_str((1, 10, 2)) == "1102"
    assert word_to_str((48, 57)) == "4857"  # the byte values of "0" and "9"
    assert word_to_str((255, 256)) == "255256"
    assert word_to_str((-1, 2)) == "-12"
    assert word_to_str((3, -300)) == "3-300"
    assert word_to_str(tuple(range(10))) == "0,1,2,3,4,5,6,7,8,9"
    assert word_to_str(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    assert word_to_str((5,) * 12) == "5,5,5,5,5,5,5,5,5,5,5,5"
    for word in [(10,), (1, 10, 2), (48, 57), (255, 256), (-1, 2), (1, 2, 3, 4, 5, 6, 7, 8, 100)]:
        assert word_to_str(word) == "".join(map(str, word))


def test_sort_to_partition():
    assert sort_to_partition((1, 3, 2)) == (3, 2, 1)

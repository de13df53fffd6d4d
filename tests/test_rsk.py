import pytest

from tabkit.core import all_permutations, inverse_descent_set, partitions
from tabkit.rsk import dual_move, knuth_move, rsk, rsk_inverse
from tabkit.tableaux import InvalidTableauError, enumerate_tableaux, superstandard

from oracles import (
    act_via_insertion,
    dual_move_tableau,
    insertion_tableau,
    knuth_move_by_inverse,
)


def test_rsk_round_trip():
    for n in range(1, 7):
        for w in all_permutations(n):
            p, q = rsk(w)
            assert p.shape == q.shape
            assert rsk_inverse(p, q) == w


def test_dual_move_tableau_returns_t_for_an_identity_move():
    # no rebuild when the word move fixes the row reading word
    for n in range(3, 7):
        for lam in partitions(n):
            for t in enumerate_tableaux(lam, "SYT"):
                word = t.reading_word()
                for i in range(2, n):
                    moved = dual_move_tableau(i, t)
                    assert (moved is t) == (dual_move(i, word) == word)
                    assert moved.reading_word() == dual_move(i, word)


def test_rsk_surjective_on_pairs():
    for n in range(1, 6):
        seen = set()
        for w in all_permutations(n):
            seen.add(rsk(w))
        expected = sum(
            len(enumerate_tableaux(lam, "SYT")) ** 2 for lam in partitions(n)
        )
        assert len(seen) == expected


def test_insertion_preserves_inverse_descents():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert inverse_descent_set(rsk(w)[0].reading_word()) == inverse_descent_set(w)


def test_identity_and_reverse():
    n = 5
    w = tuple(range(1, n + 1))
    p, q = rsk(w)
    assert p == superstandard((n,))
    p, q = rsk(tuple(range(n, 0, -1)))
    assert p.shape == (1,) * n


def test_dual_move_chain_golden():
    # the full move orbit on the reading words of the shape-(4,1) tableaux
    assert dual_move(2, (2, 1, 3, 4, 5)) == (3, 1, 2, 4, 5)
    assert dual_move(3, (3, 1, 2, 4, 5)) == (4, 1, 2, 3, 5)
    assert dual_move(4, (4, 1, 2, 3, 5)) == (5, 1, 2, 3, 4)


def test_dual_move_fixed_when_middle():
    assert dual_move(2, (1, 2, 3)) == (1, 2, 3)
    assert dual_move(3, (1, 4, 3, 2)) == (1, 4, 3, 2)


def test_dual_move_involution():
    for n in range(3, 7):
        for w in all_permutations(n):
            for i in range(2, n):
                assert dual_move(i, dual_move(i, w)) == w


def test_dual_move_fixes_recording_tableau():
    for n in range(3, 7):
        for w in all_permutations(n):
            for i in range(2, n):
                moved = dual_move(i, w)
                assert rsk(moved)[1] == rsk(w)[1]
                assert insertion_tableau(moved) == dual_move_tableau(i, insertion_tableau(w))


def test_knuth_move_matches_inverse_conjugation():
    for n in range(3, 7):
        for w in all_permutations(n):
            for i in range(2, n):
                assert knuth_move(i, w) == knuth_move_by_inverse(i, w)


def test_knuth_move_golden():
    assert knuth_move(4, (4, 2, 1, 5, 3)) == (4, 2, 5, 1, 3)


def test_knuth_move_fixes_insertion_tableau():
    for n in range(3, 6):
        for w in all_permutations(n):
            for i in range(2, n):
                assert insertion_tableau(knuth_move(i, w)) == insertion_tableau(w)


def test_act_via_insertion():
    f = lambda t: dual_move_tableau(2, t)
    for w in all_permutations(4):
        image = act_via_insertion(f, w)
        assert insertion_tableau(image) == f(insertion_tableau(w))
        assert rsk(image)[1] == rsk(w)[1]


def test_rsk_inverse_rejects_tableaux_of_two_shapes():
    with pytest.raises(InvalidTableauError, match="^insertion and recording shapes differ$"):
        rsk_inverse(superstandard((2, 1)), superstandard((3,)))

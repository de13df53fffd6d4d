import re
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

from tabkit.core import all_permutations, compositions, partitions, strict_partitions
from tabkit.operators import mason_rho
from tabkit.rsk import rsk
from tabkit.tableaux import (
    InvalidTableauError,
    Tableau,
    _fillings,
    enumerate_tableaux,
    in_single_pistol,
    reading_cells,
    restrict_to,
    superstandard,
)

from oracles import (
    brute_force_tableaux,
    conjugate,
    pistol,
    position_of,
    run_cells,
    syt_from_word,
)

# rows are listed bottom-to-top throughout


def test_syt_validation():
    Tableau([(1, 2, 3, 4), (5, 6, 7, 8), (9,)], "SYT")
    with pytest.raises(InvalidTableauError):
        Tableau([(2, 1)], "SYT")
    with pytest.raises(InvalidTableauError):
        Tableau([(1, 3), (2, 2)], "SYT")  # repeated value
    with pytest.raises(InvalidTableauError):
        Tableau([(3, 4), (1, 2)], "SYT")  # column decreasing
    with pytest.raises(InvalidTableauError):
        Tableau([(1,), (2, 3)], "SYT")  # shape not a partition


def test_srt_validation():
    Tableau([(8, 6, 3), (7, 5), (4, 2)], "SRT")
    with pytest.raises(InvalidTableauError):
        Tableau([(3, 6, 8), (5, 7), (2, 4)], "SRT")


def test_srct_triple_rule():
    # golden composition tableau of shape (2,3,2) over values 2..8
    Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    # swapping 5 and 6 breaks the triple rule
    with pytest.raises(InvalidTableauError):
        Tableau([(8, 6), (7, 5, 3), (4, 2)], "SRCT")


def test_sst_validation():
    Tableau([(1, 2, 4), (3, 5)], "SST")
    with pytest.raises(InvalidTableauError):
        Tableau([(1, 2), (3, 4)], "SST")  # shape not strict
    with pytest.raises(InvalidTableauError):
        Tableau([(1, 4, 5), (2, 3)], "SST")  # shifted column violated


def test_trusted_constructions_are_valid():
    # rsk, the enumerations and the column sort build without validation
    for n in range(1, 8):
        for w in all_permutations(n):
            p, q = rsk(w)
            assert p._validate() is None and q._validate() is None
        for flavor, shapes in (
            ("SYT", partitions(n)),
            ("SRT", partitions(n)),
            ("SST", strict_partitions(n)),
            ("SRCT", compositions(n)),
        ):
            for shape in shapes:
                for t in enumerate_tableaux(shape, flavor):
                    assert t._validate() is None
                    if flavor == "SRCT":
                        assert mason_rho(t)._validate() is None
    for word in [(1, 1), (2, 1, 2)]:
        with pytest.raises(InvalidTableauError):
            rsk(word)


def test_row_reading_word_golden():
    u = superstandard((4, 4, 1))
    assert u.reading_word() == (9, 5, 6, 7, 8, 1, 2, 3, 4)
    assert u.inverse_descent_set() == {4, 8}
    assert u.descent_composition() == (4, 4, 1)

    t = Tableau([(1, 2, 5, 7), (3, 4, 8, 9), (6,)], "SYT")
    assert t.reading_word() == (6, 3, 4, 8, 9, 1, 2, 5, 7)
    assert t.inverse_descent_set() == {2, 5, 7}
    assert t.descent_composition() == (2, 3, 2, 2)


def test_reverse_column_word_golden():
    t = Tableau([(8, 6, 3), (7, 5), (4, 2)], "SRT")
    # columns right to left, each read upward
    assert t.reading_word() == (3, 6, 5, 2, 8, 7, 4)


def test_bent_reading_word_golden():
    t = Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    assert t.reading_word() == (3, 2, 6, 5, 8, 7, 4)


def _shapes(n):
    return (
        ("SYT", partitions(n)),
        ("SRT", partitions(n)),
        ("SST", strict_partitions(n)),
        ("SRCT", compositions(n)),
    )


def test_reading_cells_list_each_cell_once():
    for n in range(1, 7):
        for flavor, shapes in _shapes(n):
            for shape in shapes:
                cells = reading_cells(flavor, tuple(shape))
                diagram = {(r, c) for r, part in enumerate(shape) for c in range(part)}
                assert len(cells) == len(diagram) and set(cells) == diagram


def test_with_word_identity_rule_and_position_of():
    for n in range(1, 7):
        for flavor, shapes in _shapes(n):
            for shape in shapes:
                tableaux = enumerate_tableaux(shape, flavor)
                for t, other in zip(tableaux, tableaux[1:] + tableaux[:1]):
                    assert t.with_word(t.reading_word()) is t
                    # a moved word: the reading word of another tableau of
                    # the shape, read back from a fresh, uncached tableau
                    w = other.reading_word()
                    image = t.with_word(w)
                    assert image == other and image.reading_word() == w
                    assert Tableau(image.rows, flavor).reading_word() == w
                    for r, row in enumerate(t.rows):
                        for c, v in enumerate(row):
                            assert position_of(t, v) == (r, c)
                    for missing in (0, n + 1):
                        with pytest.raises(KeyError):
                            position_of(t, missing)


def test_monotone_validator_messages():
    cases = [
        ([(2, 1)], "SYT", "row not increasing"),
        ([(3, 4), (1, 2)], "SYT", "column not increasing"),
        ([(1,), (2, 3)], "SYT", "shape is not a partition"),
        ([(2, 1), (3, 4)], "SRT", "row not decreasing"),
        ([(3, 1), (4, 2)], "SRT", "column not decreasing"),
        ([(2,), (3, 1)], "SRT", "shape is not a partition"),
        ([(1, 2), (3, 4)], "SST", "shape is not a strict partition"),
        ([(1, 4, 5), (2, 3)], "SST", "column not increasing"),
        ([(2, 1, 3)], "SST", "row not increasing"),
    ]
    for rows, flavor, message in cases:
        with pytest.raises(InvalidTableauError, match=f"^{message}$"):
            Tableau(rows, flavor)


def test_with_word_round_trip():
    for lam in partitions(5):
        for t in enumerate_tableaux(lam, "SYT"):
            assert t.with_word(t.reading_word()) == t


def test_superstandard():
    u = superstandard((3, 2))
    assert u.rows == ((1, 2, 3), (4, 5))
    assert u.descent_composition() == (3, 2)


def test_syt_from_word_round_trip():
    for lam in partitions(5):
        for t in enumerate_tableaux(lam, "SYT"):
            assert syt_from_word(t.reading_word(), lam) == t


def test_run_cells_follow_values():
    t = Tableau([(1, 2, 5, 7), (3, 4, 8, 9), (6,)], "SYT")
    runs = run_cells(t)
    assert [len(r) for r in runs] == [2, 3, 2, 2]
    assert runs[0] == [(0, 0), (0, 1)]
    assert runs[1] == [(1, 0), (1, 1), (0, 2)]


def test_restrict_and_first_runs():
    t = Tableau([(1, 2, 5, 7), (3, 4, 8, 9), (6,)], "SYT")
    assert restrict_to(t, 4).rows == ((1, 2), (3, 4))


def test_pistols_golden():
    # bullet sets of shape (5,3,4,3), rows bottom-to-top
    shape = (5, 3, 4, 3)
    assert pistol(shape, (2, 1)) == {(0, 1), (1, 1), (2, 1), (2, 0), (3, 0)}
    assert pistol(shape, (0, 4)) == {(0, 4), (0, 3), (2, 3)}
    # a first-column pistol is just the cells below in the column
    assert pistol(shape, (1, 0)) == {(0, 0), (1, 0)}
    assert in_single_pistol(shape, [(0, 1), (2, 0)])
    assert not in_single_pistol(shape, [(0, 0), (0, 4)])


def test_in_single_pistol_matches_the_pistols():
    # the closed form against the union of every pistol of the diagram
    checked = 0
    for n in range(1, 9):
        for shape in compositions(n):
            diagram = [(r, c) for r, part in enumerate(shape) for c in range(part)]
            pistols = [pistol(shape, cell) for cell in diagram]
            for size in (1, 2, 3):
                for cells in combinations(diagram, size):
                    expected = any(set(cells) <= p for p in pistols)
                    assert in_single_pistol(shape, cells) == expected, (shape, cells)
                    checked += 1
    assert checked == 17667
    assert not in_single_pistol((2, 1), [(0, 0), (1, 1)])  # (1, 1) is outside


def _hook_length_count(lam):
    """f^lam = n! / (product of the hook lengths)."""
    columns = conjugate(lam)
    hooks = prod(
        part - c + columns[c] - r - 1 for r, part in enumerate(lam) for c in range(part)
    )
    return factorial(sum(lam)) // hooks


def _schur_shifted_count(lam):
    """g^lam = n! / prod(lam_i!) * prod over i < j of (lam_i - lam_j) / (lam_i + lam_j)."""
    count = Fraction(factorial(sum(lam)), prod(factorial(part) for part in lam))
    for a, b in combinations(lam, 2):
        count *= Fraction(a - b, a + b)
    assert count.denominator == 1
    return count.numerator


def test_enumerate_counts():
    # hook length counts for SYT
    expected = {(3, 2): 5, (2, 2, 1): 5, (4, 1): 4, (1, 1, 1): 1, (3, 3): 5}
    for lam, count in expected.items():
        assert _hook_length_count(lam) == count
        assert len(enumerate_tableaux(lam, "SYT")) == count
        assert len(enumerate_tableaux(lam, "SRT")) == count
    # up to the default degree cap: the hook length formula for SYT and
    # SRT, and Schur's formula for shifted tableaux
    for n in range(0, 10):
        for lam in partitions(n):
            count = _hook_length_count(lam)
            assert len(enumerate_tableaux(lam, "SYT")) == count, lam
            assert len(enumerate_tableaux(lam, "SRT")) == count, lam
        for lam in strict_partitions(n):
            assert len(enumerate_tableaux(lam, "SST")) == _schur_shifted_count(lam), lam


def test_enumerate_matches_brute_force():
    # n = 0: the empty shape has one tableau of each flavor
    for n in range(0, 7):
        for lam in partitions(n):
            assert enumerate_tableaux(lam, "SYT") == brute_force_tableaux(lam, "SYT")
            assert enumerate_tableaux(lam, "SRT") == brute_force_tableaux(lam, "SRT")
        for alpha in compositions(n):
            assert enumerate_tableaux(alpha, "SRCT") == brute_force_tableaux(alpha, "SRCT")
        for lam in strict_partitions(n):
            assert enumerate_tableaux(lam, "SST") == brute_force_tableaux(lam, "SST")


def _enumerated(tableaux):
    return [(t.rows, t.shape, t.reading_word(), t._validate()) for t in tableaux]


@pytest.mark.parametrize("shapes", [
    pytest.param([lam for n in range(10) for lam in partitions(n)], id="partitions"),
    pytest.param([(), (0,), (2, 0), (1, 1, 0)], id="zero-parts"),
])
def test_syt_and_srt_words_match_the_backtracking_fill(shapes):
    # SYT and SRT come from the SYT reading words built corner by corner;
    # the backtracking fill of the shape, sorted by reading word, is the
    # reference.  A partition's zero parts are dropped: each tableau has
    # only nonempty rows, so it passes _validate()
    for shape in shapes:
        lam = tuple(part for part in shape if part)
        syt = sorted(_fillings(lam, "SYT"), key=Tableau.reading_word)
        n = sum(lam)
        srt = sorted(
            (Tableau([[n + 1 - v for v in row] for row in t.rows], "SRT") for t in syt),
            key=Tableau.reading_word,
        )
        for flavor, expected in (("SYT", syt), ("SRT", srt)):
            found = _enumerated(enumerate_tableaux(shape, flavor))
            assert found == _enumerated(expected), (shape, flavor)
            assert len(found) == len(set(found)) == _hook_length_count(lam)
            assert all(problem is None for *_, problem in found)


def _valid_srct(alpha):
    """SRCT(alpha), each checked to pass _validate() and to occur once, in
    reading-word order: the fill keeps each SRCT it completes unfiltered."""
    srct = enumerate_tableaux(alpha, "SRCT")
    assert all(t._validate() is None and t.shape == alpha for t in srct), alpha
    words = [t.reading_word() for t in srct]
    assert words == sorted(set(words)), alpha
    return srct


def test_srct_count_equals_shape_fiber():
    # composition tableaux of all alpha with sorted shape lambda biject with
    # the reverse tableaux of lambda; with each valid and listed once, the
    # enumeration is SRCT(alpha) for every alpha up to the degree cap
    for n in range(1, 10):
        for lam in partitions(n):
            total = sum(
                len(_valid_srct(alpha))
                for alpha in compositions(n)
                if tuple(sorted(alpha, reverse=True)) == lam
            )
            assert total == len(enumerate_tableaux(lam, "SRT"))


def test_json_round_trip():
    t = Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    assert Tableau.from_json(t.to_json()) == t


def test_render_smoke():
    text = superstandard((3, 2)).render()
    assert text.splitlines() == ["4 5", "1 2 3"]


def test_tableau_rejects_an_unknown_flavor_and_an_empty_row():
    with pytest.raises(InvalidTableauError, match="^unknown flavor 'XYZ'$"):
        Tableau([(1,)], "XYZ")
    with pytest.raises(InvalidTableauError, match="^empty row$"):
        Tableau([(1, 2), ()], "SYT")


def test_with_word_rejects_a_word_of_the_wrong_length():
    t = Tableau([(1, 2), (3,)], "SYT")
    with pytest.raises(InvalidTableauError, match="^word length does not match shape$"):
        t.with_word((1, 2))


@pytest.mark.parametrize("shape, flavor, message", [
    ((2, 1), "XYZ", "unknown flavor 'XYZ'"),
    ((2, 0, 1), "SRCT", "(2, 0, 1) is not a composition"),
    ((2, 2), "SST", "(2, 2) is not a strict partition"),
    ((1, 2), "SYT", "(1, 2) is not a partition"),
])
def test_enumerate_tableaux_rejects_a_shape_outside_its_flavor(shape, flavor, message):
    with pytest.raises(InvalidTableauError, match=f"^{re.escape(message)}$"):
        enumerate_tableaux(shape, flavor)

import re
from itertools import combinations

import pytest

from tabkit import operators
from tabkit.core import (
    all_permutations,
    compositions,
    flip,
    partitions,
    reverse_word,
    slinky,
)
from tabkit.equivalence import srct_classes
from tabkit.operators import (
    CYCLIC_WINDOW_TABLE,
    RESTRICTED_WINDOW_TABLE,
    SHIFTED_WINDOW_TABLE,
    cyclic_dual_move,
    mason_rho,
    mason_rho_inverse,
    restricted_dual_move,
    restricted_dual_move_by_guard,
    restricted_dual_move_tableau,
    shifted_dual_move,
    slink,
    slink_context,
    slink_star,
    slink_star_word,
    slink_word,
)
from tabkit.qsym import qsym_sum, quasi_schur
from tabkit.rsk import DUAL_WINDOW_TABLE, dual_move, knuth_move
from tabkit.tableaux import (
    InvalidTableauError,
    Tableau,
    enumerate_tableaux,
    reading_cells,
    superstandard,
)

from oracles import (
    _slink_context_by_rows,
    duplicated_exchange,
    from_runs,
    fundamental_of_tableau,
    misfiled_exchange,
    quasi_dual_move_srct,
    quasi_dual_move_srt,
    run_cells,
    slink_by_runs,
    slink_star_by_runs,
    syt_from_word,
    syt_universe,
)


def syt(word, shape):
    return syt_from_word(word, shape)


# ---------------------------------------------------------------------------
# slink and slink_star golden edges (two full classes, twelve edges)

HOOK = (6, 1, 1, 1)
FAT = (6, 2, 1)


def test_slink_class_one_edges():
    a = syt((4, 3, 2, 1, 5, 6, 7, 8, 9), HOOK)
    b = syt((6, 5, 4, 1, 2, 3, 7, 8, 9), HOOK)
    c = syt((8, 3, 2, 1, 4, 5, 6, 7, 9), HOOK)
    d = syt((8, 5, 4, 1, 2, 3, 6, 7, 9), HOOK)
    e = syt((8, 6, 2, 1, 3, 4, 5, 7, 9), HOOK)
    f = syt((8, 6, 4, 1, 2, 3, 5, 7, 9), HOOK)
    assert slink_star(a) == b and slink_star(b) == a
    assert slink_star(c) == d and slink_star(d) == c
    assert slink_star(e) == f and slink_star(f) == e
    assert slink(a) == c
    assert slink(b) == d
    assert slink(c) == e
    assert slink(d) == f
    assert slink(e) == f  # bottom edge carries both labels


def test_slink_class_two_edges():
    a = syt((5, 3, 4, 1, 2, 6, 7, 8, 9), FAT)
    b = syt((6, 4, 5, 1, 2, 3, 7, 8, 9), FAT)
    c = syt((7, 3, 4, 1, 2, 5, 6, 8, 9), FAT)
    d = syt((7, 4, 5, 1, 2, 3, 6, 8, 9), FAT)
    assert slink_star(a) == b and slink_star(b) == a
    assert slink_star(c) == d and slink_star(d) == c
    assert slink(a) == c
    assert slink(b) == d
    assert slink(c) == d  # bottom edge carries both labels


def test_run_exchange_tie_takes_the_first_split():
    # two splits of the pooled cells give a standard tableau with the right
    # run sizes; both maps take the first in reading order
    t = Tableau([(1, 2, 6), (3, 5), (4,)], "SYT")
    first = Tableau([(1, 2, 6), (3, 4), (5,)], "SYT")
    second = Tableau([(1, 2, 4), (3, 6), (5,)], "SYT")
    assert first.descent_composition() == second.descent_composition()
    assert slink(t) == slink_star(t) == first


def run_exchange_by_search(t, donor, j, take):
    """Oracle for the run exchange: the donor takes the first `take`-subset
    of the pooled cells, in combinations order over the pool sorted in
    reading order, that fills a standard tableau with the prescribed run
    sizes; None when no split does."""
    runs = run_cells(t)
    beta = t.descent_composition()
    pool = sorted(
        runs[donor - 1] + [c for c in runs[j - 1] if c[0] < j - 1],
        key=reading_cells("SYT", t.shape).index,
    )
    kept = [c for c in runs[j - 1] if c[0] >= j - 1]
    expected = list(beta)
    expected[donor - 1] = take
    expected[j - 1] = beta[donor - 1] + beta[j - 1] - take
    for subset in combinations(pool, take):
        new_runs = list(runs)
        new_runs[donor - 1] = list(subset)
        new_runs[j - 1] = kept + [c for c in pool if c not in subset]
        cand = from_runs(t.shape, new_runs)
        if cand._validate() is None and list(cand.descent_composition()) == expected:
            return cand
    return None


def test_run_exchange_rule_matches_search():
    # the closed-form split is the search's first qualifying split, ties
    # included, on every SYT of size <= 9
    for n in range(1, 10):
        for t in syt_universe(n):
            ctx = slink_context(t.reading_word(), t.shape)
            if ctx is None:
                continue
            j, i, beta = ctx
            assert slink(t) == run_exchange_by_search(t, j - 1, j, beta[j - 1] - 1)
            assert slink_star(t) == run_exchange_by_search(t, i, j, beta[j - 1] + i - j)


def test_slink_words_match_the_run_cell_oracle():
    # the moves on reading words, and the tableau moves through them, equal
    # the run exchange on cells on every SYT of size <= 9
    checked = 0
    for n in range(1, 10):
        for t in syt_universe(n):
            word = t.reading_word()
            for move, word_move, oracle in (
                (slink, slink_word, slink_by_runs),
                (slink_star, slink_star_word, slink_star_by_runs),
            ):
                expected = oracle(t)
                assert word_move(word, t.shape) == expected.reading_word()
                assert move(t) == expected
            checked += 1
    assert checked == 3735


def test_run_exchange_checks_its_run_sizes(monkeypatch):
    # an exchange that hands one donor position to run j misses the
    # prescribed run sizes, and the move names the word and both sizes
    monkeypatch.setattr(operators, "_exchange", misfiled_exchange(operators._exchange))
    message = (
        "run exchange on (2, 1, 3, 4, 5, 6) of shape (5, 1) gives run sizes"
        " (3, 3), not (4, 2)"
    )
    for move in (slink_word, slink_star_word):
        with pytest.raises(InvalidTableauError) as caught:
            move((2, 1, 3, 4, 5, 6), (5, 1))
        assert str(caught.value) == message


def test_run_exchange_covers_each_position_once(monkeypatch):
    # an exchange that puts one of run j's positions in the donor's place
    # leaves another position in no run; on every SYT of size 3..7 the move
    # names the word, by its run sizes or by the position left out
    monkeypatch.setattr(operators, "_exchange", duplicated_exchange(operators._exchange))
    raised = 0
    for n in range(3, 8):
        for t in syt_universe(n):
            if t == superstandard(t.shape):
                continue
            word = t.reading_word()
            for move in (slink_word, slink_star_word):
                with pytest.raises(InvalidTableauError) as caught:
                    move(word, t.shape)
                assert re.fullmatch(
                    re.escape(f"run exchange on {word} of shape {t.shape} ")
                    + r"(gives run sizes \(.*\), not \(.*\)|leaves position \d out of its runs)",
                    str(caught.value),
                )
                raised += 1
    # 348 SYT of size 3..7, 41 of them superstandard, one per shape
    assert raised == 2 * (348 - 41)


def test_slink_context_matches_the_row_oracle():
    # the context read off the word's position array equals the one read
    # off the tableau's rows on every SYT of size <= 9, None exactly for the
    # superstandard tableau of each shape
    checked = fixed = 0
    for n in range(1, 10):
        for t in syt_universe(n):
            ctx = slink_context(t.reading_word(), t.shape)
            assert ctx == _slink_context_by_rows(t)
            assert (ctx is None) == (t == superstandard(t.shape))
            checked += 1
            fixed += ctx is None
    assert (checked, fixed) == (3735, sum(len(partitions(n)) for n in range(1, 10)))


def test_slink_fixes_superstandard():
    for lam in [(3,), (2, 1), (4, 4, 1), (3, 2, 1)]:
        u = superstandard(lam)
        assert slink(u) == u
        assert slink_star(u) == u
        assert slink_context(u.reading_word(), u.shape) is None


def test_slink_star_involution():
    for n in range(1, 8):
        for t in syt_universe(n):
            assert slink_star(slink_star(t)) == t


def test_slink_commutes_with_slink_star():
    for n in range(1, 8):
        for t in syt_universe(n):
            assert slink(slink_star(t)) == slink_star(slink(t))


def test_slink_chain_identity():
    # slink^(j-i) equals slink^(j-i-1) after slink_star
    for n in range(1, 8):
        for t in syt_universe(n):
            ctx = slink_context(t.reading_word(), t.shape)
            if ctx is None:
                continue
            j, i, _ = ctx
            x = t
            for _ in range(j - i):
                x = slink(x)
            y = slink_star(t)
            for _ in range(j - i - 1):
                y = slink(y)
            assert x == y


def test_slink_sign_law():
    # straightened symbols of T and slink_star(T) cancel unless superstandard
    for n in range(1, 8):
        for t in syt_universe(n):
            if t == superstandard(t.shape):
                continue
            a = slinky(t.descent_composition())
            b = slinky(slink_star(t).descent_composition())
            if a is None:
                assert b is None
            else:
                assert b == (-a[0], a[1])


# ---------------------------------------------------------------------------
# value-window tables: (table, window size, entries, values each entry moves)

WINDOW_TABLES = {
    "dual": (DUAL_WINDOW_TABLE, 3, 4, 2),
    "cyclic": (CYCLIC_WINDOW_TABLE, 3, 4, 3),
    "restricted": (RESTRICTED_WINDOW_TABLE, 4, 10, 2),
    "shifted": (SHIFTED_WINDOW_TABLE, 4, 16, 2),
}


@pytest.mark.parametrize("name", sorted(WINDOW_TABLES))
def test_window_table_is_an_involution(name):
    table, k, entries, moved = WINDOW_TABLES[name]
    assert len(table) == entries
    perms = set(all_permutations(k))
    for window, image in table.items():
        assert window in perms and image in perms
        assert table[image] == window
        # v -> the value in v's position afterwards: a swap moves two
        # values, a rotation three
        sigma = dict(zip(window, image))
        assert sum(v != u for v, u in sigma.items()) == moved


@pytest.mark.parametrize(
    "move, i, word",
    [
        (dual_move, 2, (1, 2, 4)),
        (cyclic_dual_move, 2, (1, 2, 4)),
        (restricted_dual_move, 2, (1, 2, 3, 5)),
        (shifted_dual_move, 1, (1, 2, 3, 5)),
    ],
)
def test_moves_reject_a_missing_window_value(move, i, word):
    with pytest.raises(ValueError, match="not all present"):
        move(i, word)


@pytest.mark.parametrize(
    "move, i, word, message",
    [
        (dual_move, 1, (1, 2, 3), r"index 1 out of range \[2, 2\]"),
        (dual_move, 3, (1, 2, 3), r"index 3 out of range \[2, 2\]"),
        (knuth_move, 1, (2, 1, 3), r"index 1 out of range \[2, 2\]"),
        (knuth_move, 3, (2, 1, 3), r"index 3 out of range \[2, 2\]"),
        (restricted_dual_move, 1, (1, 2, 3, 4), r"index 1 out of range \[2, 2\]"),
        (restricted_dual_move, 3, (1, 2, 3, 4), r"index 3 out of range \[2, 2\]"),
        (shifted_dual_move, 0, (1, 2, 3, 4), r"index 0 out of range \[1, 1\]"),
        (shifted_dual_move, 2, (1, 2, 3, 4), r"index 2 out of range \[1, 1\]"),
        (shifted_dual_move, 2, (1, 2, 3), "index 2 out of range for n=3"),
    ],
)
def test_moves_reject_an_index_out_of_range(move, i, word, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        move(i, word)


# ---------------------------------------------------------------------------
# restricted dual move

def test_restricted_matches_guard_oracle():
    for n in range(4, 7):
        for w in all_permutations(n):
            for i in range(2, n - 1):
                assert restricted_dual_move(i, w) == restricted_dual_move_by_guard(i, w)


def test_restricted_involution():
    for n in range(4, 7):
        for w in all_permutations(n):
            for i in range(2, n - 1):
                assert restricted_dual_move(i, restricted_dual_move(i, w)) == w


def test_restricted_tableau_agrees_with_word_action():
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        n = sum(lam)
        for t in enumerate_tableaux(lam, "SYT"):
            for i in range(2, n - 1):
                assert (
                    restricted_dual_move_tableau(i, t).reading_word()
                    == restricted_dual_move(i, t.reading_word())
                )


def test_restricted_tableau_returns_t_for_an_identity_move():
    # no rebuild when the word move fixes the reading word
    for n in range(4, 7):
        for t in syt_universe(n):
            word = t.reading_word()
            for i in range(2, n - 1):
                moved = restricted_dual_move_tableau(i, t)
                assert (moved is t) == (restricted_dual_move(i, word) == word)
                assert moved.reading_word() == restricted_dual_move(i, word)


# ---------------------------------------------------------------------------
# shifted dual move

def test_shifted_golden():
    assert shifted_dual_move(1, (2, 4, 5, 3, 1)) == (1, 4, 5, 3, 2)


def test_shifted_involution():
    for n in range(4, 8):
        for w in all_permutations(n):
            for i in range(1, n - 2):
                assert shifted_dual_move(i, shifted_dual_move(i, w)) == w


def test_shifted_nontrivial_actions_are_dual_moves():
    for n in range(4, 7):
        for w in all_permutations(n):
            for i in range(1, n - 2):
                moved = shifted_dual_move(i, w)
                if moved != w:
                    assert moved in {dual_move(k, w) for k in (i + 1, i + 2) if 2 <= k <= n - 1}


def test_shifted_bridges():
    # the reverse bridge lands at index i-1, the flip bridge at n-i-1
    for n in range(4, 7):
        for w in all_permutations(n):
            for i in range(2, n - 1):
                r = reverse_word(restricted_dual_move(i, reverse_word(w)))
                if r != w:
                    assert shifted_dual_move(i - 1, w) == r
                f = flip(restricted_dual_move(i, flip(w)))
                if f != w:
                    assert shifted_dual_move(n - i - 1, w) == f


def test_shifted_tableau_action_stays_shifted():
    for lam in [(3, 1), (4, 2), (3, 2, 1)]:
        n = sum(lam)
        for t in enumerate_tableaux(lam, "SST"):
            for i in range(1, n - 2):
                image = t.with_word(shifted_dual_move(i, t.reading_word()))
                assert image.flavor == "SST" and image.shape == t.shape


# ---------------------------------------------------------------------------
# cyclic move and the quasi-dual moves

def test_cyclic_move_involution():
    for w in all_permutations(5):
        for i in range(2, 5):
            assert cyclic_dual_move(i, cyclic_dual_move(i, w)) == w


def test_cyclic_move_golden():
    # rotates i-1, i, i+1 among their (sorted) positions
    assert cyclic_dual_move(2, (2, 1, 3)) == (1, 3, 2)
    assert cyclic_dual_move(2, (1, 3, 2)) == (2, 1, 3)
    assert cyclic_dual_move(2, (1, 2, 3)) == (1, 2, 3)


def test_quasi_dual_srct_golden():
    t = Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    assert quasi_dual_move_srct(6, t).rows == ((8, 7), (6, 5, 3), (4, 2))
    assert quasi_dual_move_srct(3, t).rows == ((8, 5), (7, 6, 4), (3, 2))


def test_quasi_dual_srct_involution():
    from tabkit.core import compositions

    for n in range(3, 7):
        for alpha in compositions(n):
            for t in enumerate_tableaux(alpha, "SRCT"):
                for i in range(2, n):
                    assert quasi_dual_move_srct(i, quasi_dual_move_srct(i, t)) == t


def test_quasi_dual_srct_flavor_guard():
    with pytest.raises(InvalidTableauError):
        quasi_dual_move_srct(2, superstandard((2, 1)))


# ---------------------------------------------------------------------------
# SRCT((3,1,3,1)): the least shape on which the quasi-dual move is not
# transitive, and why no one-window move can repair it

SPLIT = (3, 1, 3, 1)


def test_split_shape_has_quasi_dual_classes_of_7_and_2():
    assert sorted(len(cls) for cls in srct_classes(SPLIT)) == [2, 7]


def test_split_shape_has_no_cover_by_quasi_schur_blocks():
    # six of the 511 nonempty subsets of SRCT((3,1,3,1)) sum to some S_beta,
    # and the only partition into such blocks is the whole set: a move whose
    # classes each generate a quasisymmetric Schur function is transitive here
    members = enumerate_tableaux(SPLIT, "SRCT")
    beta_of = {quasi_schur(beta): beta for beta in compositions(8)}
    blocks = {}
    for mask in range(1, 1 << len(members)):
        part = (fundamental_of_tableau(t) for k, t in enumerate(members) if mask >> k & 1)
        beta = beta_of.get(qsym_sum(part, 8))
        if beta is not None:
            blocks[mask] = beta
    assert sorted(blocks.values()) == [
        (2, 1, 2, 1, 2), (2, 1, 3, 1, 1), (2, 1, 3, 1, 1), (2, 1, 3, 2), (2, 1, 3, 2), SPLIT,
    ]

    def covers(rest):
        """Every partition of the set `rest` into blocks, as mask lists."""
        if not rest:
            return [[]]
        low = rest & -rest
        return [
            [block] + cover
            for block in blocks
            if block & low and block & rest == block
            for cover in covers(rest & ~block)
        ]

    whole = (1 << len(members)) - 1
    assert covers(whole) == [[whole]]


def test_split_shape_has_no_dual_or_cyclic_edge_between_its_classes():
    # every valid SRCT that a dual or cyclic move makes of a member's bent
    # reading word lies in the member's own class
    small, large = sorted(srct_classes(SPLIT), key=len)
    images = 0
    for cls in (small, large):
        for t in cls:
            for i in range(2, 8):
                for move in (dual_move, cyclic_dual_move):
                    try:
                        image = t.with_word(move(i, t.reading_word()))
                    except InvalidTableauError:
                        continue
                    assert image in cls
                    images += image != t
    assert images > 0


def test_split_shape_has_no_move_between_the_srt_images_of_its_classes():
    # on the column-sorted side: no dual, cyclic or Knuth move on the reading
    # word of a member's SRT image gives the reading word of an image of the
    # other class, though some give that of another image of its own
    small, large = (
        {mason_rho(t).reading_word() for t in cls}
        for cls in sorted(srct_classes(SPLIT), key=len)
    )
    inner = 0
    for words, other in ((small, large), (large, small)):
        for w in words:
            for i in range(2, 8):
                for move in (dual_move, cyclic_dual_move, knuth_move):
                    image = move(i, w)
                    assert image not in other
                    inner += image != w and image in words
    assert inner > 0


# ---------------------------------------------------------------------------
# the column-sorting bijection

def test_mason_golden():
    t = Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    assert mason_rho(t).rows == ((8, 6, 3), (7, 5), (4, 2))
    assert mason_rho_inverse(mason_rho(t), (2, 3, 2)) == t


def test_mason_commutes_with_quasi_dual():
    t = Tableau([(8, 5), (7, 6, 3), (4, 2)], "SRCT")
    for i in (3, 6):
        assert mason_rho(quasi_dual_move_srct(i, t)) == quasi_dual_move_srt(i, mason_rho(t))


def test_mason_bijection_exhaustive():
    # of the SRT of shape sort(alpha), exactly the column sorts of SRCT(alpha)
    # come back, each to its SRCT; every other one is rejected, either while
    # the columns are placed or by the constructor of the rebuilt filling
    outcomes = {"ok": 0}
    for n in range(1, 7):
        for alpha in compositions(n):
            images = {}
            for t in enumerate_tableaux(alpha, "SRCT"):
                image = mason_rho(t)
                assert image not in images
                images[image] = t
                assert mason_rho_inverse(image, alpha) == t
            for t in enumerate_tableaux(sorted(alpha, reverse=True), "SRT"):
                try:
                    found = mason_rho_inverse(t, alpha)
                except InvalidTableauError as exc:
                    assert t not in images
                    outcomes[str(exc)] = outcomes.get(str(exc), 0) + 1
                else:
                    assert found == images[t]
                    outcomes["ok"] += 1
    assert outcomes == {
        "ok": 119,
        "tableau is not in the image of the column sort": 165,
        "triple rule violated": 98,
    }


def test_mason_inverse_rejects_outside_image():
    t = Tableau([(3, 1), (2,)], "SRT")
    # in the image for shape (1,2) but not for shape (2,1)
    assert mason_rho(mason_rho_inverse(t, (1, 2))) == t
    with pytest.raises(InvalidTableauError):
        mason_rho_inverse(t, (2, 1))
    # an unvalidated column-increasing filling rebuilds a valid SRCT whose
    # column sort is not the input
    with pytest.raises(InvalidTableauError, match="^round trip failed$"):
        mason_rho_inverse(Tableau._trusted([(1,), (2,)], "SRT"), (1, 1))


def test_shifted_dual_move_below_four_letters():
    # no window of four values fits: h_1 is the identity, any other index raises
    for word in [(), (1,), (2, 1), (3, 1, 2)]:
        assert shifted_dual_move(1, list(word)) == word
    for i in (0, 2):
        with pytest.raises(ValueError, match=f"^index {i} out of range for n=3$"):
            shifted_dual_move(i, (3, 1, 2))


def test_mason_maps_reject_the_wrong_flavor_and_shape():
    with pytest.raises(InvalidTableauError, match="^expected an SRCT$"):
        mason_rho(Tableau([(1, 2), (3,)], "SYT"))
    with pytest.raises(InvalidTableauError, match="^expected an SRT$"):
        mason_rho_inverse(Tableau([(1, 2), (3,)], "SYT"), (2, 1))
    with pytest.raises(InvalidTableauError, match="^shape mismatch$"):
        mason_rho_inverse(Tableau([(3, 1), (2,)], "SRT"), (3,))

import json
import re

import pytest

from tabkit import equivalence, operators
from tabkit.core import (
    all_permutations,
    compositions,
    flip,
    partitions,
    reverse_word,
    word_from_str,
    word_to_str,
)
from tabkit.equivalence import (
    CARRIERS,
    CarrierError,
    EquivClass,
    MOVES,
    RELATIONS,
    SHAPE_FREE,
    WORD_RELATIONS,
    all_classes,
    classes_for_cli,
    classes_json_text,
    classes_to_dot,
    closure,
    key_of,
    member_strings,
    move_tables,
    moves_for,
    perm_class,
    perm_classes,
    srct_classes,
    srt_image_classes,
    syt_classes,
)
from tabkit.operators import (
    RESTRICTED_WINDOW_TABLE,
    SHIFTED_WINDOW_TABLE,
    mason_rho,
    restricted_dual_move,
    shifted_dual_move,
)
from tabkit.rsk import DUAL_WINDOW_TABLE, dual_move, knuth_move, rsk, rsk_inverse
from tabkit.tableaux import Tableau, enumerate_tableaux, superstandard

from oracles import (
    all_classes_by_elements,
    classes_to_json,
    insertion_tableau,
    refines,
    slink_by_runs,
    slink_star_by_runs,
    syt_universe,
    tableau_moves,
)


# class counts over all SYT of size n, frozen from the closure engine and
# re-checked here against an independent pairwise-reachability recount
FROZEN_COUNTS = {
    "equiv0": [1, 2, 4, 9, 23, 63, 190],
    "equiv1": [1, 2, 4, 9, 22, 59, 172],
    "equiv2": [1, 2, 4, 8, 17, 37, 83],
}


def test_frozen_class_counts():
    for relation, counts in FROZEN_COUNTS.items():
        for n, expected in zip(range(1, 8), counts):
            assert len(syt_classes(n, relation)) == expected


def test_classes_partition_universe():
    for relation in ("equiv0", "equiv1", "equiv2", "dual"):
        for n in range(1, 7):
            classes = syt_classes(n, relation)
            members = [key_of(m) for cls in classes for m in cls.members]
            assert sorted(members) == sorted(
                key_of(t) for t in syt_universe(n)
            )
            assert len(members) == len(set(members))


def test_refinement_chain():
    for n in range(1, 8):
        c0 = syt_classes(n, "equiv0")
        c1 = syt_classes(n, "equiv1")
        c2 = syt_classes(n, "equiv2")
        assert refines(c0, c1)
        assert refines(c1, c2)
        assert not refines(c2, c0) or len(c2) == len(c0)


def test_straddling_names_the_classes_that_do_not_refine():
    dual, equiv2 = syt_classes(5, "dual"), syt_classes(5, "equiv2")
    straddling = list(equivalence._straddling(dual, equiv2))
    assert straddling and not refines(dual, equiv2)
    # each witness is the least key of a dual class spread over equiv2 classes
    for key in straddling:
        (cls,) = [c for c in dual if c.key == key]
        assert len({c.key for c in equiv2 for m in cls.members if m in c}) > 1
    assert list(equivalence._straddling(equiv2, dual)) == []


def test_superstandard_classes_are_singletons():
    from tabkit.core import partitions

    for n in range(1, 8):
        for relation in ("equiv0", "equiv1"):
            classes = syt_classes(n, relation)
            for lam in partitions(n):
                u = superstandard(lam)
                owner = next(c for c in classes if u in c)
                assert len(owner) == 1


def test_duplicate_generating_functions_are_distinct_classes():
    # two singleton classes of S-different shapes sharing descent data
    classes = syt_classes(5, "equiv2")
    a = word_from_str("43125")
    b = word_from_str("43512")
    owners = [cls for cls in classes if any(key_of(m) in (a, b) for m in cls.members)]
    assert len(owners) == 2
    assert all(len(cls) == 1 for cls in owners)


def test_closure_matches_all_classes():
    # closure closes a word: each class key of SYT(5) under the word moves
    # closes to the reading words of its class
    moves = moves_for("equiv2", (5,))
    for cls in syt_classes(5, "equiv2"):
        words = [key_of(t) for t in cls.members]
        assert closure(cls.key, moves, "equiv2") == EquivClass("equiv2", words)


def test_closure_takes_a_list_seed():
    # a seed given as a list is closed as its word
    moves = moves_for("dual", (4,))
    cls = closure([2, 1, 3, 4], moves, "dual")
    assert cls == closure((2, 1, 3, 4), moves, "dual")
    assert (2, 1, 3, 4) in cls and all(type(w) is tuple for w in cls)


def test_carrier_error():
    # dual moves do not preserve a single arbitrary shape's tableau set
    universe = enumerate_tableaux((3, 1), "SYT")
    bad = [t for t in universe if t.reading_word() != (4, 1, 2, 3)]
    with pytest.raises(CarrierError):
        all_classes(bad, moves_for("dual", (3, 1)), "dual")


def test_dual_and_restricted_images_of_syt_are_syt():
    # syt_classes checks the images of the registry's word moves on SYT(lam)
    # by carrier membership only; Tableau's validation must accept every one,
    # and each must be the reading word of its own insertion tableau
    for n in range(1, 9):
        for t in syt_universe(n):
            w = t.reading_word()
            for relation in SHAPE_FREE:
                for name, i, move in moves_for(relation, (n,)):
                    image = move(w)
                    assert Tableau(t.with_word(image).rows, "SYT").shape == t.shape
                    assert insertion_tableau(image).reading_word() == image, (name, i, w)


def _tableau_moves(relation, n):
    # the run exchange on cells, the validated tableau moves, or the word
    # moves read through insertion
    if relation == "equiv0":
        return [("slink*", 0, slink_star_by_runs)]
    if relation == "equiv1":
        return [("slink", 0, slink_by_runs)]
    moves = tableau_moves(relation, n)
    if relation in ("equiv2", "dual"):
        return moves
    return [
        (name, i, lambda t, m=move: insertion_tableau(m(t.reading_word())))
        for name, i, move in moves
    ]


@pytest.mark.parametrize(
    "relation", ["equiv0", "equiv1", "equiv2", "dual", "shifted", "equiv2rev", "equiv2flip"]
)
def test_syt_classes_match_tableau_moves(relation):
    # reference: close the tableaux themselves under tableau-level moves,
    # element by element
    for n in range(1, 8):
        moves = _tableau_moves(relation, n)
        expected = all_classes_by_elements(syt_universe(n), moves, relation)
        assert syt_classes(n, relation) == expected
        for lam in partitions(n):
            expected = all_classes_by_elements(enumerate_tableaux(lam, "SYT"), moves, relation)
            assert syt_classes(lam, relation) == expected


@pytest.mark.parametrize("relation", ["equiv0", "equiv1"])
def test_slink_classes_move_no_tableau(monkeypatch, relation):
    # the slink classes close reading words: with every tableau-level slink
    # and Tableau.with_word broken, the classes come out the same
    expected = syt_classes(7, relation)

    def fail(*args):
        raise AssertionError("a tableau was moved")

    for target in (
        "tabkit.operators.slink",
        "tabkit.operators.slink_star",
        "tabkit.tableaux.Tableau.with_word",
    ):
        monkeypatch.setattr(target, fail)
    assert syt_classes(7, relation) == expected


def test_slink_word_that_leaves_syt_is_named(monkeypatch):
    # the carrier check of syt_classes is what proves each slink image an SYT
    monkeypatch.setattr(equivalence, "slink_word", lambda w, lam: tuple(reversed(w)))
    with pytest.raises(CarrierError) as caught:
        syt_classes(6, "equiv1")
    assert str(caught.value) == "move slink_0 left the carrier at (1, 2, 3, 4, 5, 6)"


# srct_classes and srt_image_classes, by way of the CLI's carrier selection
QUASI_DUAL = [r for r in RELATIONS if CARRIERS[r] in ("SRCT", "SRT")]


def _quasi_dual_classes(relation, alpha):
    return equivalence.classes_for_cli(relation, alpha=alpha)


@pytest.mark.parametrize("relation", QUASI_DUAL)
def test_quasi_dual_classes_match_tableau_moves(relation):
    # reference: close the tableaux themselves under the validated tableau
    # moves of tableau_moves, element by element
    for n in range(1, 8):
        moves = tableau_moves(relation, n)
        for alpha in compositions(n):
            universe = enumerate_tableaux(alpha, "SRCT")
            if CARRIERS[relation] == "SRT":
                universe = [mason_rho(t) for t in universe]
            expected = all_classes_by_elements(universe, moves, relation)
            assert _quasi_dual_classes(relation, alpha) == expected


@pytest.mark.parametrize("relation", QUASI_DUAL)
def test_quasi_dual_classes_move_no_tableau(monkeypatch, relation):
    # the SRCT and SRT classes close reading words: the library keeps no
    # tableau-level quasi-dual move, and with Tableau.with_word broken the
    # classes come out the same
    assert not hasattr(operators, "quasi_dual_move_srct")
    assert not hasattr(operators, "quasi_dual_move_srt")
    alphas = compositions(7)
    expected = [_quasi_dual_classes(relation, alpha) for alpha in alphas]

    def fail(*args):
        raise AssertionError("a tableau was moved")

    monkeypatch.setattr("tabkit.tableaux.Tableau.with_word", fail)
    assert [_quasi_dual_classes(relation, alpha) for alpha in alphas] == expected


@pytest.mark.parametrize(
    "relation, alpha, message",
    [
        ("quasiDualSRCT", (2, 1, 2), "move DQ_2 left the carrier at (1, 4, 5, 3, 2)"),
        ("quasiDualSRT", (2, 2, 2), "move dQ_2 left the carrier at (5, 3, 1, 6, 4, 2)"),
    ],
    ids=["SRCT", "SRT"],
)
def test_quasi_dual_word_that_leaves_the_carrier_is_named(monkeypatch, relation, alpha, message):
    # the carrier check of the class engine is what proves each image an
    # SRCT, or an SRT in the image of the column sort
    for name in ("quasi_dual_word_srct", "quasi_dual_word_srt"):
        monkeypatch.setattr(equivalence, name, lambda i, w, shape: tuple(reversed(w)))
    with pytest.raises(CarrierError) as caught:
        _quasi_dual_classes(relation, alpha)
    assert str(caught.value) == message


def test_perm_classes_transport_consistency():
    # slink classes on words come from insertion-tableau classes; every
    # word class must project onto exactly one tableau class
    for n in range(1, 6):
        for relation in ("equiv0", "equiv1"):
            tab_keys = {}
            for cls in syt_classes(n, relation):
                for t in cls.members:
                    tab_keys[key_of(t)] = cls.key
            for cls in perm_classes(n, relation):
                images = {tab_keys[key_of(insertion_tableau(w))] for w in cls.members}
                assert len(images) == 1


@pytest.mark.parametrize(
    "relation", ["equiv2", "dual", "shifted", "equiv2rev", "equiv2flip"]
)
def test_perm_classes_transport_matches_word_sweep(relation):
    # reference: close S_n under the word-level moves directly
    for n in range(1, 8):
        expected = all_classes(all_permutations(n), moves_for(relation, (n,)), relation)
        assert perm_classes(n, relation) == expected


def _carried_by_inverse_rsk(n, relation):
    """Reference: each tableau class C of SYT(lam) carried across each Q in
    SYT(lam) by one inverse RSK per pair (P, Q)."""
    classes = []
    for lam in partitions(n):
        tableau_classes = syt_classes(lam, relation)
        for q in enumerate_tableaux(lam, "SYT"):
            classes.extend(
                EquivClass(relation, [rsk_inverse(p, q) for p in cls.members])
                for cls in tableau_classes
            )
    return sorted(classes, key=lambda cls: cls.key)


@pytest.mark.parametrize(
    "relation, top", [(relation, 7) for relation in WORD_RELATIONS] + [("shifted", 8)]
)
def test_perm_classes_match_inverse_rsk_pair_by_pair(relation, top):
    # the transport along the Knuth class of the root against inverse RSK of
    # each pair
    for n in range(1, top + 1):
        assert perm_classes(n, relation) == _carried_by_inverse_rsk(n, relation)


# one broken entry in the table of each shape-free relation, each taking
# some SYT reading word of size 6 outside its shape; on some shapes the
# first word that any move takes outside is not the first word of the
# first move that escapes, so the witness shows the order of the check
BROKEN_ENTRIES = {
    "equiv2": (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2)),
    "dual": (DUAL_WINDOW_TABLE, (2, 1, 3), (1, 2, 3)),
    "shifted": (SHIFTED_WINDOW_TABLE, (1, 2, 4, 3), (1, 2, 3, 4)),
    "equiv2rev": (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2)),
    "equiv2flip": (RESTRICTED_WINDOW_TABLE, (1, 3, 4, 2), (3, 1, 4, 2)),
}


def _carrier_witness(build, *args):
    with pytest.raises(CarrierError) as caught:
        build(*args)
    return str(caught.value)


@pytest.mark.parametrize("relation", SHAPE_FREE)
def test_carrier_witness_matches_the_element_major_reference(monkeypatch, relation):
    # the move tables name the element and move that a check made element
    # by element names first, shape by shape and for the whole degree
    table, window, image = BROKEN_ENTRIES[relation]
    monkeypatch.setitem(table, window, image)
    witnesses = []
    for lam in partitions(6):
        words = [t.reading_word() for t in enumerate_tableaux(lam, "SYT")]
        moves = moves_for(relation, lam)
        try:
            expected = all_classes_by_elements(words, moves, relation)
        except CarrierError as exc:
            witnesses.append(str(exc))
            assert _carrier_witness(all_classes, words, moves, relation) == str(exc)
        else:
            assert all_classes(words, moves, relation) == expected
    assert witnesses
    assert _carrier_witness(syt_classes, 6, relation) == witnesses[0]
    assert _carrier_witness(perm_classes, 6, relation) == witnesses[0]


def _carriers(relation, n):
    """Each carrier of the relation at degree n that a class builder closes,
    with the shape its moves take: SYT(lam) for the SYT and S_n relations
    (perm_classes carries the latter's SYT(lam) classes across Q), SRCT(alpha)
    or its SRT image for the quasi-dual ones."""
    if CARRIERS[relation] in ("SYT", "S_n"):
        return [(enumerate_tableaux(lam, "SYT"), lam) for lam in partitions(n)]
    carriers = []
    for alpha in compositions(n):
        srct = enumerate_tableaux(alpha, "SRCT")
        if CARRIERS[relation] == "SRCT":
            carriers.append((srct, alpha))
        else:
            carriers.append(([mason_rho(t) for t in srct], tuple(sorted(alpha, reverse=True))))
    return carriers


def _tables_or_witness(elements, moves):
    try:
        return move_tables(elements, moves)
    except CarrierError as exc:
        return str(exc)


def _break_move(monkeypatch, relation):
    """Send some carrier element of size 6 outside its carrier: a broken
    window entry, or a slink word move that reverses the word."""
    if relation in ("equiv0", "equiv1"):
        name = "slink_star_word" if relation == "equiv0" else "slink_word"
        monkeypatch.setattr(equivalence, name, lambda w, lam: tuple(reversed(w)))
    elif relation in BROKEN_ENTRIES:
        monkeypatch.setitem(*BROKEN_ENTRIES[relation])
    elif relation == "quasiDualSRT-restricted":
        monkeypatch.setitem(*BROKEN_ENTRIES["equiv2"])
    else:
        monkeypatch.setitem(*BROKEN_ENTRIES["dual"])


@pytest.mark.parametrize("relation", RELATIONS)
def test_move_tables_read_each_elements_key(monkeypatch, relation):
    # a carrier of tableaux is tabulated as the list of their reading words
    # is, and a move that leaves it is named by the same text
    def outcomes():
        return [
            (
                _tables_or_witness(elements, moves),
                _tables_or_witness([key_of(e) for e in elements], moves),
            )
            for n in range(1, 7)
            for elements, shape in _carriers(relation, n)
            for moves in [moves_for(relation, shape)]
        ]

    assert all(tableaux == words for tableaux, words in outcomes())
    _break_move(monkeypatch, relation)
    broken = outcomes()
    assert all(tableaux == words for tableaux, words in broken)
    assert any(isinstance(tableaux, str) for tableaux, _ in broken)


@pytest.mark.parametrize("build, args", [
    (syt_classes, (6, "equiv0")),
    (syt_classes, (6, "equiv2")),
    (syt_classes, ((3, 2, 1), "shifted")),
    (srct_classes, ((2, 1, 2),)),
    (srt_image_classes, ((2, 2, 2), "quasiDualSRT")),
    (srt_image_classes, ((3, 1, 2), "quasiDualSRT-restricted")),
])
def test_tableau_classes_are_built_once_on_the_enumerated_tableaux(monkeypatch, build, args):
    # the class builders close the tableaux they enumerate (or column sort):
    # one EquivClass per class returned, with those Tableau objects as members
    built, made = [], []

    class Counted(EquivClass):
        __slots__ = ()

        def __init__(self, *init):
            built.append(self)
            super().__init__(*init)

    def kept(fn):
        def wrapped(*call):
            result = fn(*call)
            made.extend(result if isinstance(result, list) else [result])
            return result
        return wrapped

    monkeypatch.setattr(equivalence, "EquivClass", Counted)
    if build is srt_image_classes:
        monkeypatch.setattr(equivalence, "mason_rho", kept(equivalence.mason_rho))
    else:
        monkeypatch.setattr(
            equivalence, "enumerate_tableaux", kept(equivalence.enumerate_tableaux)
        )
    classes = build(*args)
    assert sorted(map(id, built)) == sorted(map(id, classes))
    assert sorted(id(m) for cls in classes for m in cls.members) == sorted(map(id, made))
    assert all(isinstance(m, Tableau) for m in made)


def test_knuth_class_of_the_root_aligns_the_q_columns():
    # perm_classes carries each P along the Knuth class of r, the word with
    # P = Q = T0: each edge is a K_j move from a word already reached, the
    # edges reach each word with P = T0 once, every word of a carried class
    # has the same Q, and the carried classes hold each word of S_n once
    for n in range(1, 9):
        knuth = [("K", j, lambda w, j=j: knuth_move(j, w)) for j in range(2, n)]
        for lam in partitions(n):
            tableaux = enumerate_tableaux(lam, "SYT")
            root = rsk_inverse(tableaux[0], tableaux[0])
            reached = equivalence._search(root, knuth)
            order = list(reached)
            for k, (parent, _name, j) in enumerate(list(reached.values())[1:], start=1):
                assert order.index(parent) < k and knuth_move(j, parent) == order[k]
            assert sorted(order) == sorted(rsk_inverse(tableaux[0], q) for q in tableaux)
        for relation in ("dual", "shifted"):
            classes = perm_classes(n, relation)
            assert all(len({rsk(w)[1] for w in cls.members}) == 1 for cls in classes)
            assert sorted(w for cls in classes for w in cls) == all_permutations(n)


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_perm_classes_enumerates_each_shape_once(monkeypatch, relation):
    # one SYT(lam) list serves the root of the transport and the classes of lam
    calls = []
    real = equivalence.enumerate_tableaux
    monkeypatch.setattr(
        equivalence, "enumerate_tableaux",
        lambda shape, flavor: calls.append((tuple(shape), flavor)) or real(shape, flavor),
    )
    perm_classes(6, relation)
    assert calls == [(lam, "SYT") for lam in partitions(6)]


def test_key_of_returns_a_tuple_word_itself():
    word = (3, 1, 2)
    assert key_of(word) is word
    assert key_of([3, 1, 2]) == word
    t = enumerate_tableaux((2, 1), "SYT")[0]
    assert key_of(t) is t.reading_word()


@pytest.mark.parametrize("relation", ["shifted", "equiv2rev", "equiv2flip"])
def test_perm_classes_sweeps_no_permutations(monkeypatch, relation):
    # the word relations' classes come from SYT(shape) carried across Q;
    # the sweep of S_n is only this test's reference
    expected = all_classes(all_permutations(6), moves_for(relation, (6,)), relation)

    def fail(*args):
        raise AssertionError("perm_classes swept S_n")

    monkeypatch.setattr("tabkit.core.all_permutations", fail)
    assert not hasattr(equivalence, "all_permutations")
    assert perm_classes(6, relation) == expected


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_perm_class_matches_perm_classes(relation):
    # every word for n <= 5; at n = 6, 7 the first and last member of each
    # class, except that a slink-relation query partitions one shape (a few
    # ms at n = 7), so there each tableau class is queried once, through the
    # word class at the last recording tableau of its shape
    for n in range(1, 8):
        last_q = {
            lam: enumerate_tableaux(lam, "SYT")[-1] for lam in partitions(n)
        }
        for cls in perm_classes(n, relation):
            if n <= 5:
                queries = cls.members
            elif relation in SHAPE_FREE:
                queries = (cls.members[0], cls.members[-1])
            else:
                q = rsk(cls.members[0])[1]
                queries = cls.members[:1] if q == last_q[q.shape] else ()
            for w in queries:
                assert perm_class(w, relation) == cls


@pytest.mark.parametrize("relation", list(SHAPE_FREE))
def test_word_relations_fix_q_and_act_on_p(relation):
    # each move keeps the recording tableau Q and sends the insertion
    # tableau P to a tableau that depends on P alone; perm_classes relies on
    # this to carry the word classes across Q, and perm_class to close one
    # word under the moves
    for n in range(1, 8):
        moves = moves_for(relation, (n,))
        on_p = {}
        for w in all_permutations(n):
            p, q = rsk(w)
            for name, i, move in moves:
                moved = move(w)
                image_p, image_q = (p, q) if moved == w else rsk(moved)
                assert image_q == q, (name, i, w)
                assert on_p.setdefault((i, p), image_p) == image_p, (name, i, w)


def test_perm_classes_of_the_empty_word():
    for relation in WORD_RELATIONS:
        assert perm_classes(0, relation) == [EquivClass(relation, [()])]


def test_perm_classes_partition_sn():
    for n in range(1, 6):
        for relation in ("equiv0", "equiv1", "equiv2", "shifted"):
            classes = perm_classes(n, relation)
            members = sorted(w for cls in classes for w in cls.members)
            assert members == sorted(all_permutations(n))


def test_srct_transitive_small():
    from tabkit.core import compositions

    for n in range(1, 8):
        for alpha in compositions(n):
            if not enumerate_tableaux(alpha, "SRCT"):
                continue
            assert len(srct_classes(alpha)) == 1


def test_srt_image_restricted_not_transitive_on_222():
    # the restricted move splits the column-sorted image of shape (2,2,2)
    classes = srt_image_classes((2, 2, 2), "quasiDualSRT-restricted")
    assert len(classes) == 2
    assert len(srt_image_classes((2, 2, 2), "quasiDualSRT")) == 1


def test_relation_registry():
    for relation in RELATIONS:
        moves = moves_for(relation, (6,))
        assert all(callable(move) for _name, _idx, move in moves)
    with pytest.raises(ValueError):
        moves_for("nope", (4,))


def test_equivclass_api():
    cls = EquivClass("equiv2", [(2, 1, 3), (1, 2, 3)])
    assert len(cls) == 2
    assert (1, 2, 3) in cls
    assert cls.key == (1, 2, 3)
    assert list(cls) == [(1, 2, 3), (2, 1, 3)]


def test_json_and_dot_export():
    classes = syt_classes(4, "equiv2")
    data = classes_to_json(classes)
    assert sum(entry["size"] for entry in data) == len(syt_universe(4))
    dot = classes_to_dot(classes)
    assert dot.startswith("graph")
    assert dot.rstrip().endswith("}")


_DOT_EDGE = re.compile(r'  "([\d,]+)" -- "([\d,]+)" \[label="(.+)_(\d+)"\];')


def _reference_dot_edges(classes, relation, n):
    """Each edge a member's tableau move takes to another member, as
    (lesser key, greater key, generator, index)."""
    moves = tableau_moves(relation, n)
    edges = set()
    for cls in classes:
        for member in cls.members:
            for name, idx, move in moves:
                a, b = key_of(member), key_of(move(member))
                if a != b:
                    edges.add((min(a, b), max(a, b), name, idx))
    return edges


def _dot_edges(text):
    edges = [_DOT_EDGE.fullmatch(line) for line in text.splitlines() if " -- " in line]
    assert all(edges)
    return [
        (word_from_str(a), word_from_str(b), name, int(idx))
        for a, b, name, idx in (m.groups() for m in edges)
    ]


@pytest.mark.parametrize("relation", RELATIONS)
def test_dot_edges_match_tableau_moves(relation):
    # reference: the validated tableau moves applied to each member; the
    # export reads the move tables each class was built with
    if CARRIERS[relation] in ("SYT", "S_n"):
        top = 8 if CARRIERS[relation] == "S_n" else 7
        cases = [(n, classes_for_cli(relation, n=n)) for n in range(1, top)]
    else:
        cases = [
            (n, classes_for_cli(relation, alpha=alpha))
            for n in (5, 6)
            for alpha in compositions(n)
        ]
    for n, classes in cases:
        dot = classes_to_dot(classes)
        lines = dot.splitlines()
        assert lines[0] == "graph classes {" and lines[-1] == "}"
        vertices = [line for line in lines[1:-1] if " -- " not in line]
        assert vertices == [f'  "{m}";' for cls in classes for m in member_strings(cls)]
        edges = _dot_edges(dot)
        assert len(edges) == len(set(edges))
        assert set(edges) == _reference_dot_edges(classes, relation, n)


@pytest.mark.parametrize("relation", RELATIONS)
def test_dot_export_calls_no_move(monkeypatch, relation):
    # the export reads the tables each class was built with: with every
    # move made to raise, it writes the same text
    carrier = {"n": 6} if CARRIERS[relation] in ("SYT", "S_n") else {"alpha": (2, 1, 2, 1)}
    classes = classes_for_cli(relation, **carrier)
    expected = classes_to_dot(classes)

    def broken(*args):
        raise AssertionError(f"a move of {relation} applied to {args}")

    # a window relation's moves are `apply_window` bound to their windows,
    # the others' the move(i, word, shape) of MOVES
    monkeypatch.setattr(equivalence, "apply_window", broken)
    for name, entry in MOVES.items():
        if callable(entry[3]):
            monkeypatch.setitem(MOVES, name, entry[:3] + (broken,))
    with pytest.raises(AssertionError):
        classes_for_cli(relation, **carrier)
    assert classes_to_dot(classes) == expected


@pytest.mark.parametrize("relation", RELATIONS)
def test_class_rebuilt_from_an_iterator_exports_the_same_dot(relation):
    # a class keeps its members in the order given as a tuple, so a class
    # rebuilt from an iterator over them has the graph of the original
    carrier = {"n": 5} if CARRIERS[relation] in ("SYT", "S_n") else {"alpha": (2, 1, 2, 1)}
    classes = classes_for_cli(relation, **carrier)
    rebuilt = [EquivClass(relation, iter(cls.order), cls.graph) for cls in classes]
    assert [list(cls.order) for cls in rebuilt] == [list(cls.order) for cls in classes]
    assert rebuilt == classes
    assert classes_to_dot(rebuilt) == classes_to_dot(classes)


def _reference_json(classes):
    return json.dumps(classes_to_json(classes), indent=2) + "\n"


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_classes_json_text_matches_reference(relation):
    for n in range(1, 7):
        classes = classes_for_cli(relation, n=n)
        assert classes_json_text(classes) + "\n" == _reference_json(classes)


@pytest.mark.parametrize("relation", ["quasiDualSRCT", "quasiDualSRT", "quasiDualSRT-restricted"])
def test_classes_json_text_matches_reference_on_compositions(relation):
    for alpha in compositions(5):
        classes = classes_for_cli(relation, alpha=alpha)
        assert classes_json_text(classes) + "\n" == _reference_json(classes)


def test_classes_json_text_of_no_classes():
    assert classes_json_text([]) + "\n" == _reference_json([]) == "[]\n"


def test_equiv_class_hash_and_repr():
    one = EquivClass("dual", [(2, 1), (1, 2)])
    assert hash(one) == hash(EquivClass("dual", [(1, 2), (2, 1)]))
    assert len({one, EquivClass("dual", [(1, 2), (2, 1)]), EquivClass("equiv2", one)}) == 2
    assert repr(one) == "EquivClass('dual', 2 members)"


def _outcome(thunk):
    try:
        return thunk()
    except TypeError as exc:  # a member that is a list has no hash
        return type(exc)


@pytest.mark.parametrize("build", [
    list, tuple, lambda ms: (m for m in ms), lambda ms: map(tuple, ms),
    lambda ms: EquivClass("dual", ms), lambda ms: [list(m) for m in ms],
])
def test_equiv_class_sorts_words_as_key_of_does(build):
    # words sort natively, in the order of their keys, from any iterable
    words = [(3, 1, 2, 4), (1, 2, 3, 4), (2, 1, 3, 4), (1, 3, 2, 4)]
    expected = tuple(sorted(build(words), key=key_of))
    cls = EquivClass("equiv2", build(words))
    assert cls.members == expected
    assert _outcome(lambda: hash(cls)) == _outcome(lambda: hash(("equiv2", expected)))
    assert repr(cls) == "EquivClass('equiv2', 4 members)"
    assert cls.key == key_of(expected[0]) == (1, 2, 3, 4)
    assert member_strings(cls) == ["1234", "1324", "2134", "3124"]


def test_equiv_class_sorts_tableaux_by_reading_word():
    tableaux = enumerate_tableaux((2, 2), "SYT")[::-1] + enumerate_tableaux((3, 1), "SYT")
    cls = EquivClass("dual", tableaux)
    assert cls.members == tuple(sorted(tableaux, key=key_of))
    assert hash(cls) == hash(("dual", cls.members))
    assert repr(cls) == f"EquivClass('dual', {len(tableaux)} members)"
    assert member_strings(cls) == [word_to_str(key_of(t)) for t in cls.members]
    assert cls == EquivClass("dual", iter(tableaux)) == EquivClass("dual", cls)


# each window relation's move as its operator composed by hand, from the
# operators that the suites and oracles call
WINDOW_OPERATORS = {
    "equiv2": restricted_dual_move,
    "dual": dual_move,
    "quasiDualSRT-restricted": restricted_dual_move,
    "shifted": shifted_dual_move,
    "equiv2rev": lambda i, w: reverse_word(restricted_dual_move(i, reverse_word(w))),
    "equiv2flip": lambda i, w: flip(restricted_dual_move(i, flip(w))),
}


def _binding_words():
    """S_n for n <= 7, and every SYT reading word of size 8."""
    return [w for n in range(1, 8) for w in all_permutations(n)] + [
        t.reading_word() for lam in partitions(8) for t in enumerate_tableaux(lam, "SYT")
    ]


@pytest.mark.parametrize("broken", [None, *BROKEN_ENTRIES])
def test_window_moves_are_their_operators(monkeypatch, broken):
    # moves_for binds each window relation's move to its window, with the
    # conjugated table built when it is called; with a table entry patched
    # first, the patch reaches every relation that reads the table
    if broken is not None:
        monkeypatch.setitem(*BROKEN_ENTRIES[broken])
    assert set(WINDOW_OPERATORS) == {r for r, entry in MOVES.items() if not callable(entry[3])}
    by_length = {}
    for w in _binding_words():
        by_length.setdefault(len(w), []).append(w)
    for relation, operator in WINDOW_OPERATORS.items():
        for n, words in by_length.items():
            for _name, i, move in moves_for(relation, (n,)):
                assert [move(w) for w in words] == [operator(i, w) for w in words], (relation, i)

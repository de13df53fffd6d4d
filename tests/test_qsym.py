import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from tabkit import qsym
from tabkit.core import compositions, partitions, word_from_str
from tabkit.equivalence import (
    WORD_RELATIONS,
    EquivClass,
    perm_classes,
    srct_classes,
    syt_classes,
)
from tabkit.qsym import (
    DecompositionError,
    NotSymmetricError,
    NotUnitriangularError,
    QsymElement,
    SchurExpansion,
    class_union_qsym,
    decompose_in_fk,
    fk_lead_table,
    lead_table,
    qsym_sum,
    quasi_schur,
    schur_expand_by_slinky,
    schur_expand_fsum,
    schur_fundamental,
    solve_exact,
)
from tabkit.operators import mason_rho
from tabkit.tableaux import enumerate_tableaux, enumerate_words, superstandard

from oracles import (
    class_union_qsym_by_members,
    conjugate,
    exact_rank,
    family_independence_report,
    fk_family,
    fundamental_of_tableau,
    fundamental_of_word,
    refinement_monomials,
    refinements,
    schur_expand_class_union,
    symmetry_witness_by_refinements,
)


def F(*alpha):
    return QsymElement.fundamental(alpha)


def test_refinements():
    assert sorted(refinements((2,))) == [(1, 1), (2,)]
    assert sorted(refinements((2, 1))) == [(1, 1, 1), (2, 1)]
    for n in range(1, 7):
        # refinements of (n) are all compositions of n
        assert sorted(refinements((n,))) == compositions(n)


def test_arithmetic_and_vector():
    q = F(2, 1) + F(1, 2) - F(2, 1)
    assert q == F(1, 2)
    assert q.scale(3).coeffs == {(1, 2): 3}
    vec = F(1, 2).to_vector()
    assert sum(vec) == 1 and vec[1] == 1  # descent set {1} -> bitmask 1
    assert QsymElement.zero(3).is_zero()


def test_monomial_expansion():
    # F_(2) = M_(2) + M_(1,1); F_(1,1) = M_(1,1)
    assert F(2).to_monomial() == {(2,): 1, (1, 1): 1}
    assert F(1, 1).to_monomial() == {(1, 1): 1}


def _transform_inputs():
    """Class functions of every class of the seven word relations at n <= 6,
    the Schur functions of degree <= 9, and seeded random signed
    F-combinations at every degree 0..9."""
    for relation in WORD_RELATIONS:
        for n in range(1, 7):
            for cls in perm_classes(n, relation):
                yield f"{relation} class of {cls.key}", class_union_qsym([cls])
    for n in range(10):
        for lam in partitions(n):
            yield f"s{lam}", schur_fundamental(lam)
    rng = random.Random(25)
    for n in range(10):
        comps = compositions(n)
        for trial in range(12):
            support = rng.sample(comps, rng.randint(0, min(len(comps), 40)))
            yield f"random {n}/{trial}", QsymElement(
                n, {alpha: rng.choice((-3, -2, -1, 1, 2, 3)) for alpha in support}
            )


def test_monomial_transform_matches_refinements():
    # the subset-sum transform gives the term-by-term refinement expansion,
    # and the same witness pair, not only the same verdict
    seen = Counter()
    for label, q in _transform_inputs():
        assert q.to_monomial() == refinement_monomials(q), label
        witness = q.symmetry_witness()
        assert witness == symmetry_witness_by_refinements(q), label
        seen[witness is None] += 1
    assert seen[True] and seen[False]


def test_qsym_sum_checks_degree_and_drops_zeros():
    with pytest.raises(ValueError, match="degree mismatch"):
        qsym_sum([F(2, 1), F(1, 1)], 3)
    with pytest.raises(ValueError, match="degree mismatch"):
        qsym_sum([F(1, 1)], 3)
    total = qsym_sum([F(2, 1), F(1, 2).scale(2), F(2, 1).scale(-1), F(3)], 3)
    assert total.coeffs == {(1, 2): 2, (3,): 1}
    assert qsym_sum([F(1, 2), -F(1, 2)], 3).coeffs == {}
    assert qsym_sum([], 4) == QsymElement.zero(4)


def test_symmetry_witness():
    # s_(2,1) is symmetric, a lone fundamental of degree 3 is not
    assert schur_fundamental((2, 1)).is_symmetric()
    witness = F(2, 1).symmetry_witness()
    assert witness is not None
    a, b = witness
    assert sorted(a, reverse=True) == sorted(b, reverse=True)


def test_omega_involution_and_descent_complement():
    # omega F_(2,1) complements descent set {2} in [2] to {1}
    assert F(2, 1).omega() == F(1, 2)
    for n in range(1, 6):
        for alpha in compositions(n):
            assert F(*alpha).omega().omega() == F(*alpha)


def test_omega_on_schur_conjugates():
    for n in range(1, 7):
        for lam in partitions(n):
            assert schur_fundamental(lam).omega() == schur_fundamental(conjugate(lam))


def test_schur_fundamental_golden():
    assert schur_fundamental((2, 1)) == F(2, 1) + F(1, 2)
    assert schur_fundamental((3,)) == F(3)
    assert schur_fundamental((1, 1, 1)) == F(1, 1, 1)


def test_degree_zero_functions_are_one():
    assert schur_fundamental(()) == quasi_schur(()) == QsymElement(0, {(): 1})


def test_slinky_straightening_of_schur():
    for n in range(1, 7):
        for lam in partitions(n):
            assert schur_expand_by_slinky(schur_fundamental(lam)) == SchurExpansion(
                n, {lam: 1}
            )


def test_quasi_schur_golden():
    assert quasi_schur((2, 3)) == F(1, 3, 1) + F(2, 2, 1) + F(3, 2)
    # quasi Schur functions of all shapes refine the Schur function
    for n in range(1, 7):
        for lam in partitions(n):
            total = qsym_sum(
                (
                    quasi_schur(alpha)
                    for alpha in compositions(n)
                    if tuple(sorted(alpha, reverse=True)) == lam
                ),
                n,
            )
            assert total == schur_fundamental(lam)


def test_class_union_schur_expansion():
    # the union of all classes of degree n is sum of all Schur functions
    for n in range(1, 6):
        for relation in ("equiv0", "equiv1", "equiv2"):
            classes = syt_classes(n, relation)
            expansion = schur_expand_class_union(classes)
            assert expansion == SchurExpansion(n, {lam: 1 for lam in partitions(n)})


def test_single_shape_union_is_schur():
    for n in range(1, 7):
        for lam in partitions(n):
            classes = syt_classes(lam, "equiv1")
            assert schur_expand_class_union(classes) == SchurExpansion(n, {lam: 1})


def test_not_symmetric_raises_with_witness():
    classes = syt_classes(4, "equiv2")
    single = next(
        [cls]
        for cls in classes
        if not class_union_qsym([cls]).is_symmetric()
    )
    with pytest.raises(NotSymmetricError) as err:
        schur_expand_class_union(single)
    a, b = err.value.witness
    assert sorted(a, reverse=True) == sorted(b, reverse=True)


def test_shifted_union_expansion():
    # full S_n under the shifted relation expands positively, with each
    # Schur coefficient equal to the number of standard tableaux of its shape
    from tabkit.tableaux import enumerate_tableaux

    for n in range(1, 6):
        classes = perm_classes(n, "shifted")
        expansion = schur_expand_class_union(classes)
        assert expansion.is_positive()
        assert expansion == SchurExpansion(
            n, {lam: len(enumerate_tableaux(lam, "SYT")) for lam in partitions(n)}
        )


def _class_of(classes, word):
    return next(cls for cls in classes if word_from_str(word) in cls)


def test_equiv2rev_union_with_a_class_taken_twice_keeps_its_markers():
    # 132546's and 315264's classes share one function.  Read from each
    # member's own word, the markers put one s_(3,3) in the second class and
    # none in the first, so this union counted 6 against the straightened 5;
    # read from the reversed words, neither class holds a marker
    classes = perm_classes(6, "equiv2rev")
    first, second = _class_of(classes, "132546"), _class_of(classes, "315264")
    assert class_union_qsym([first]) == class_union_qsym([second])
    swapped = [second if cls is first else cls for cls in classes]
    expansion = schur_expand_class_union(swapped)
    assert expansion == schur_expand_class_union(classes)
    assert expansion.coeffs[(3, 3)] == 5


@pytest.mark.parametrize("relation", ["shifted", "equiv2rev", "equiv2flip"])
def test_classes_with_one_function_have_equal_markers(relation):
    # otherwise the all-ones union with one of them taken twice and the
    # other dropped is symmetric, and its markers miscount its Schur
    # coefficients
    for n in range(1, 8):
        markers = {}
        for cls in perm_classes(n, relation):
            counts = Counter(qsym._marker_shape(m, relation) for m in cls.members)
            counts.pop(None, None)
            assert markers.setdefault(class_union_qsym([cls]), counts) == counts, cls.key


def test_syt_reading_words_mark_their_shape_when_superstandard():
    # an SYT reading word inserts to its own tableau, so the one marker rule
    # marks the superstandard tableau of each shape and no other
    for relation in ("equiv0", "equiv1", "equiv2", "dual"):
        for n in range(1, 7):
            for lam in partitions(n):
                first = superstandard(lam).reading_word()
                for w in enumerate_words(lam, "SYT"):
                    assert qsym._marker_shape(w, relation) == (lam if w == first else None)


@pytest.mark.parametrize("relation", ["quasiDualSRCT", "quasiDualSRT", "quasiDualSRT-restricted"])
def test_quasi_dual_relations_have_no_markers(relation):
    # not even on a word whose P is superstandard: SRCT((3,)) reads as 123,
    # which marks s(3) under a word relation
    assert enumerate_words((3,), "SRCT") == ((1, 2, 3),)
    assert qsym._marker_shape((1, 2, 3), "equiv2") == (3,)
    assert qsym._marker_shape((1, 2, 3), relation) is None
    for n in range(1, 6):
        for alpha in compositions(n):
            for w in enumerate_words(alpha, "SRCT"):
                image = mason_rho(w, alpha)
                assert qsym._marker_shape(w, relation) is qsym._marker_shape(image, relation) is None


def test_every_symmetric_single_class_expands_by_its_markers():
    # every symmetric class of each word relation, n = 2..7, expands with
    # markers that agree with the slinky straightening (MarkerMismatchError
    # otherwise); the conjugate filing of equiv2rev markers is what the
    # self-conjugate witnesses above cannot see
    expanded = Counter()
    for relation in WORD_RELATIONS:
        for n in range(2, 8):
            for cls in perm_classes(n, relation):
                q = class_union_qsym([cls])
                if q.is_symmetric():
                    expansion = schur_expand_fsum(q, [cls])
                    assert expansion.is_positive() and expansion == schur_expand_by_slinky(q)
                    expanded[relation] += 1
    assert set(expanded) == set(WORD_RELATIONS)
    assert expanded["equiv2rev"] == 19


def test_equiv2rev_markers_file_under_the_conjugate_shape():
    # the identity word reverses to a column-shaped P, so its marker counts
    # toward s(5), the straightening of its F(5)
    cls = perm_classes(5, "equiv2rev")
    single = next(c for c in cls if c.key == (1, 2, 3, 4, 5))
    assert schur_expand_class_union([single]) == SchurExpansion(5, {(5,): 1})


def _fsum_cases(n):
    """Every class of each word relation, SYT relation and SRCT(alpha) of
    degree n, one at a time, then each relation's classes as one union."""
    families = [perm_classes(n, relation) for relation in WORD_RELATIONS]
    families += [syt_classes(n, relation) for relation in ("equiv0", "equiv1", "equiv2", "dual")]
    families += [srct_classes(alpha) for alpha in compositions(n)]
    for classes in families:
        yield from ([cls] for cls in classes)
        yield classes


def test_class_union_qsym_matches_per_member_oracle():
    for n in range(1, 7):
        for classes in _fsum_cases(n):
            assert class_union_qsym(classes) == class_union_qsym_by_members(classes)


def test_class_union_qsym_keeps_the_member_order_of_its_terms():
    # the terms come in the order their compositions first occur among the
    # members, as the per-member sum adds them
    for classes in _fsum_cases(5):
        assert list(class_union_qsym(classes).coeffs) == list(
            class_union_qsym_by_members(classes).coeffs
        )


def test_schur_and_quasi_schur_match_per_tableau_sums():
    for n in range(0, 7):
        for lam in partitions(n):
            assert schur_fundamental(lam) == qsym_sum(
                (fundamental_of_tableau(t) for t in enumerate_tableaux(lam, "SYT")), n
            )
        for alpha in compositions(n):
            assert quasi_schur(alpha) == qsym_sum(
                (fundamental_of_tableau(t) for t in enumerate_tableaux(alpha, "SRCT")), n
            )


@pytest.mark.parametrize("members", [
    [(1, 2), (1, 2, 3)],
    [(2, 1, 3), (1, 2)],
    [(1, 3)],
    [(0, 1)],
    [(1, 1)],
    [(2, 2, 1), (1, 2, 3)],
    [(1, 2, 3, 3)],
    [(1, 2, 3), (3, 1, 2, 3)],
    [(-1, 1)],
    [(1, 10 ** 12)],
])
def test_class_union_qsym_rejects_keys_that_are_not_permutations(members):
    with pytest.raises(ValueError):
        class_union_qsym([EquivClass("dual", members)])


def test_class_union_qsym_rejects_classes_of_two_degrees():
    with pytest.raises(ValueError):
        class_union_qsym([syt_classes(3, "dual")[0], syt_classes(4, "dual")[0]])
    with pytest.raises(ValueError, match="empty class union"):
        class_union_qsym([])


def test_exact_rank_oracle():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([]) == 0
    # compare with rational Gaussian elimination on random-ish matrices
    import random

    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]

        def rank_fractions(mat):
            mat = [[Fraction(v) for v in row] for row in mat]
            rank = 0
            for c in range(cols):
                pivot = next((r for r in range(rank, rows) if mat[r][c]), None)
                if pivot is None:
                    continue
                mat[rank], mat[pivot] = mat[pivot], mat[rank]
                for r in range(rows):
                    if r != rank and mat[r][c]:
                        f = mat[r][c] / mat[rank][c]
                        mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
                rank += 1
            return rank

        assert exact_rank(m) == rank_fractions(m)


def test_solve_exact():
    cols = [[1, 0, 1], [0, 1, 1]]
    solution, unique = solve_exact(cols, [2, 3, 5])
    assert solution == [Fraction(2), Fraction(3)] and unique
    with pytest.raises(DecompositionError):
        solve_exact(cols, [1, 1, 3])


def test_family_independence_frozen():
    frozen = {
        (2, 5): (17, 16, 16),
        (2, 6): (37, 32, 32),
        (1, 5): (22, 16, 16),
        (0, 5): (23, 16, 16),
    }
    for (k, n), (classes, distinct, rank) in frozen.items():
        report = family_independence_report(k, n)
        assert report["classes"] == classes
        assert report["distinct"] == distinct
        assert report["rank"] == rank
        assert report["dimension"] == 2 ** (n - 1)


def test_f2_lead_table_certifies_the_basis_up_to_the_cap():
    # 2^(n-1) distinct leads, each with coefficient 1 and zeros before it:
    # the distinct functions of each family are unitriangular, hence a
    # basis of QSym_n
    for k in (0, 1, 2):
        for n in range(1, 10):
            table = fk_lead_table(k, n)
            assert len(table) == 2 ** (n - 1)
            for lead, (_cls, vector) in table.items():
                assert vector[lead] == 1 and not any(vector[:lead])


def test_lead_table_rejects_a_shared_lead():
    a = EquivClass("equiv2", [(1, 2, 3)])
    b = EquivClass("equiv2", [(2, 1, 3)])
    # equal functions share a lead and the first class keeps it
    table = lead_table([(a, [0, 1, 1, 0]), (b, [0, 1, 1, 0])])
    assert dict(table) == {1: (a, (0, 1, 1, 0))}
    with pytest.raises(NotUnitriangularError) as err:
        lead_table([(a, [0, 1, 1, 0]), (b, [0, 1, 0, 1])])
    assert err.value.keys == ((1, 2, 3), (2, 1, 3)) and err.value.lead == 1
    assert "(1, 2, 3)" in str(err.value) and "(2, 1, 3)" in str(err.value)
    with pytest.raises(NotUnitriangularError) as err:
        lead_table([(a, [0, 2, 1, 0])])
    assert err.value.keys == ((1, 2, 3),)


def test_fk_family_duplicate_pair():
    fam = fk_family(2, 5)
    by_vec = {}
    for key, q in fam:
        by_vec.setdefault(tuple(q.to_vector()), []).append(key)
    dup = by_vec[tuple(F(2, 1, 2).to_vector())]
    assert sorted(dup) == [(4, 3, 1, 2, 5), (4, 3, 5, 1, 2)]


def test_decompose_unit_classes():
    # each class function decomposes as itself with coefficient one
    fam = fk_family(2, 4)
    for key, q in fam:
        coeffs = decompose_in_fk(q, 2)
        assert coeffs.get(key) == 1
        total = sum(coeffs.values())
        assert total >= 1


def test_decompose_schur_nonnegative():
    for n in range(1, 6):
        for lam in partitions(n):
            for k in (0, 1, 2):
                coeffs = decompose_in_fk(schur_fundamental(lam), k)
                assert all(c == int(c) and c >= 0 for c in coeffs.values())
                # reconstruct and compare
                fam = dict(fk_family(k, n))
                rebuilt = qsym_sum(
                    (fam[key].scale(int(c)) for key, c in coeffs.items()), n
                )
                assert rebuilt == schur_fundamental(lam)


def test_decompose_quasi_schur_nonnegative():
    for n in range(1, 6):
        for alpha in compositions(n):
            q = quasi_schur(alpha)
            if q.is_zero():
                continue
            for k in (0, 1, 2):
                coeffs = decompose_in_fk(q, k)
                assert all(c == int(c) and c >= 0 for c in coeffs.values())


def _family_functions(k, n):
    return {cls.key: class_union_qsym([cls]) for cls in syt_classes(n, f"equiv{k}")}


def test_decompose_matches_solve_exact():
    # the integer elimination agrees with the rational Gauss-Jordan oracle,
    # which leaves every later class of a function at zero
    for k in (0, 1, 2):
        for n in range(1, 7):
            classes = syt_classes(n, f"equiv{k}")
            columns = [class_union_qsym([cls]).to_vector() for cls in classes]
            targets = [quasi_schur(alpha) for alpha in compositions(n)]
            targets += [schur_fundamental(lam) for lam in partitions(n)]
            for q in targets:
                if q.is_zero():
                    continue
                solution, _unique = solve_exact(columns, q.to_vector())
                expected = {cls.key: c for cls, c in zip(classes, solution) if c}
                coeffs = decompose_in_fk(q, k)
                assert coeffs == expected
                assert all(type(c) is int for c in coeffs.values())


def test_decompose_quasi_schur_degrees_7_and_8():
    for k in (0, 1, 2):
        for n in (7, 8):
            family = _family_functions(k, n)
            for alpha in compositions(n):
                q = quasi_schur(alpha)
                if q.is_zero():
                    continue
                coeffs = decompose_in_fk(q, k)
                assert all(type(c) is int and c > 0 for c in coeffs.values())
                rebuilt = qsym_sum((family[key].scale(c) for key, c in coeffs.items()), n)
                assert rebuilt == q


def test_decompose_round_trip():
    # a random nonnegative combination of the distinct functions comes back
    # with its own coefficients, on the first class of each function
    for k in (0, 1, 2):
        rng = random.Random(20151)
        for n in range(5, 9):
            first = {}
            for key, q in _family_functions(k, n).items():
                first.setdefault(q, key)
            for _ in range(5):
                chosen = {q: rng.randrange(4) for q in first}
                target = qsym_sum((q.scale(c) for q, c in chosen.items()), n)
                expected = {first[q]: c for q, c in chosen.items() if c}
                assert decompose_in_fk(target, k) == expected


@pytest.mark.parametrize("k", [3, -1])
def test_decompose_rejects_a_k_outside_0_to_2(monkeypatch, k):
    # the k is checked before any table is read or built
    def fail(*args):
        raise AssertionError("decompose_in_fk read a lead table")

    monkeypatch.setattr("tabkit.qsym.fk_lead_table", fail)
    for target in (QsymElement.zero(4), quasi_schur((2, 2))):
        with pytest.raises(ValueError, match=f"no k={k} family"):
            decompose_in_fk(target, k)


def test_shifted_family_partitions_sn():
    # the union of all shifted classes carries the generating function of S_n
    from tabkit.core import all_permutations

    for n in range(1, 6):
        total = class_union_qsym(perm_classes(n, "shifted"))
        direct = qsym_sum(
            (fundamental_of_word(w) for w in all_permutations(n)), n
        )
        assert total == direct


def test_json_round_trip():
    q = F(2, 1) + F(3).scale(2)
    data = q.to_json()
    assert data["degree"] == 3
    rebuilt = qsym_sum(
        (
            QsymElement.fundamental(tuple(e["composition"])).scale(e["coeff"])
            for e in data["coeffs"]
        ),
        3,
    )
    assert rebuilt == q


def test_qsym_element_rejects_a_key_of_another_degree():
    with pytest.raises(ValueError, match=f"^{re.escape('(1, 1) is not a composition of 3')}$"):
        QsymElement(3, {(2, 1): 1, (1, 1): 2})
    # a zero coefficient is dropped before its key is read
    assert QsymElement(3, {(1, 1): 0}).coeffs == {}


def test_schur_expand_fsum_rejects_classes_of_two_relations():
    classes = [syt_classes(3, "dual")[0], syt_classes(3, "equiv2")[0]]
    with pytest.raises(ValueError) as caught:
        schur_expand_fsum(class_union_qsym(classes), classes)
    assert str(caught.value) in (
        f"classes under mixed relations: {{'{a}', '{b}'}}"
        for a, b in (("dual", "equiv2"), ("equiv2", "dual"))
    )

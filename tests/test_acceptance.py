"""Acceptance gate: the nine headline checks, one summary line each.

Run with `pytest tests/test_acceptance.py -v` (or plain pytest).  Each test
prints a single [PASS]/[FAIL] line naming the criterion.
"""

import time
from itertools import combinations

from tabkit.core import (
    all_permutations,
    compositions,
    flip,
    partitions,
    reverse_word,
    slinky,
    sort_to_partition,
    strict_partitions,
)
from tabkit.equivalence import (
    all_classes,
    moves_for,
    perm_classes,
    srct_classes,
    srt_image_classes,
    syt_classes,
)
from tabkit.operators import (
    mason_rho,
    mason_rho_inverse,
    restricted_dual_move,
    shifted_dual_move,
    shifted_dual_move_by_bridges,
    slink,
    slink_context,
    slink_star,
)
from tabkit.qsym import (
    SchurExpansion,
    class_union_qsym,
    decompose_in_fk,
    qsym_sum,
    quasi_schur,
    schur_expand_by_slinky,
    schur_fundamental,
)
from tabkit.rsk import dual_move, rsk, rsk_inverse
from tabkit.tableaux import Tableau, enumerate_tableaux, superstandard

from oracles import (
    brute_force_tableaux,
    conjugate,
    family_independence_report,
    insertion_tableau,
    quasi_dual_move_srct,
    quasi_dual_move_srt,
    refines,
    schur_expand_class_union,
    standardized_yamanouchi,
    syt_from_word,
    syt_universe,
)


def _report(capsys, label, fn):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"[PASS] {label} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# symmetry pre-screening shared by criteria 5 and 7

def _monomial_vector(q, comps):
    mono = q.to_monomial()
    return tuple(mono.get(alpha, 0) for alpha in comps)


def _symmetry_groups(comps):
    groups = {}
    for idx, alpha in enumerate(comps):
        groups.setdefault(sort_to_partition(alpha), []).append(idx)
    return [g for g in groups.values() if len(g) > 1]


def _vector_symmetric(vec, groups):
    return all(len({vec[i] for i in group}) == 1 for group in groups)


def _symmetric_unions(classes, comps, groups, max_size):
    """Yield each union of <= max_size classes whose F-sum is symmetric."""
    vectors = [
        _monomial_vector(class_union_qsym([cls]), comps) for cls in classes
    ]
    for size in range(1, max_size + 1):
        for picked in combinations(range(len(classes)), size):
            total = [0] * len(comps)
            for idx in picked:
                for pos, value in enumerate(vectors[idx]):
                    total[pos] += value
            if _vector_symmetric(total, groups):
                yield [classes[idx] for idx in picked]


# ---------------------------------------------------------------------------

def test_criterion_1_schur_functions(capsys):
    def body():
        deadline = 60.0
        start = time.monotonic()
        for n in range(1, 9):
            for lam in partitions(n):
                q = schur_fundamental(lam)
                assert q.is_symmetric()
                assert schur_expand_by_slinky(q) == SchurExpansion(n, {lam: 1})
        assert time.monotonic() - start < deadline

    _report(capsys, "1. every shape's tableau F-sum is Schur {shape:1}, n<=8", body)


def test_criterion_2_figure_goldens(capsys):
    def body():
        # reading words, descent data, and run labels of the (4,4,1) pair
        u = superstandard((4, 4, 1))
        assert u.reading_word() == (9, 5, 6, 7, 8, 1, 2, 3, 4)
        assert u.inverse_descent_set() == {4, 8}
        assert u.descent_composition() == (4, 4, 1)
        t = Tableau([(1, 2, 5, 7), (3, 4, 8, 9), (6,)], "SYT")
        assert t.reading_word() == (6, 3, 4, 8, 9, 1, 2, 5, 7)
        assert t.inverse_descent_set() == {2, 5, 7}
        assert t.descent_composition() == (2, 3, 2, 2)

        # dual move chain on the shape-(4,1) reading words
        chain = [(2, 1, 3, 4, 5), (3, 1, 2, 4, 5), (4, 1, 2, 3, 5), (5, 1, 2, 3, 4)]
        for i, (a, b) in enumerate(zip(chain, chain[1:]), start=2):
            assert dual_move(i, a) == b

        # slinky straightening samples
        assert slinky((1, 3, 6)) == (-1, (4, 3, 3))
        assert slinky((2, 2, 3)) is None

        # twelve slink/slink* edges over two full classes
        hook, fat = (6, 1, 1, 1), (6, 2, 1)
        a = syt_from_word((4, 3, 2, 1, 5, 6, 7, 8, 9), hook)
        b = syt_from_word((6, 5, 4, 1, 2, 3, 7, 8, 9), hook)
        c = syt_from_word((8, 3, 2, 1, 4, 5, 6, 7, 9), hook)
        d = syt_from_word((8, 5, 4, 1, 2, 3, 6, 7, 9), hook)
        e = syt_from_word((8, 6, 2, 1, 3, 4, 5, 7, 9), hook)
        f = syt_from_word((8, 6, 4, 1, 2, 3, 5, 7, 9), hook)
        assert slink_star(a) == b and slink_star(c) == d and slink_star(e) == f
        assert slink(a) == c and slink(b) == d
        assert slink(c) == e and slink(d) == f and slink(e) == f
        p = syt_from_word((5, 3, 4, 1, 2, 6, 7, 8, 9), fat)
        q = syt_from_word((6, 4, 5, 1, 2, 3, 7, 8, 9), fat)
        r = syt_from_word((7, 3, 4, 1, 2, 5, 6, 8, 9), fat)
        s = syt_from_word((7, 4, 5, 1, 2, 3, 6, 8, 9), fat)
        assert slink_star(p) == q and slink_star(r) == s
        assert slink(p) == r and slink(q) == s and slink(r) == s

    _report(capsys, "2. figure goldens: descent data, move chain, twelve slink edges", body)


def test_criterion_3_slink_laws(capsys):
    def body():
        deadline = 120.0
        start = time.monotonic()
        for n in range(1, 9):
            for t in syt_universe(n):
                star = slink_star(t)
                assert slink_star(star) == t
                assert slink(star) == slink_star(slink(t))
                ctx = slink_context(t.reading_word(), t.shape)
                if ctx is None:
                    assert star == t and slink(t) == t
                    continue
                j, i, _ = ctx
                x = t
                for _ in range(j - i):
                    x = slink(x)
                y = star
                for _ in range(j - i - 1):
                    y = slink(y)
                assert x == y
                a = slinky(t.descent_composition())
                b = slinky(star.descent_composition())
                if a is None:
                    assert b is None
                else:
                    assert b == (-a[0], a[1])
        assert time.monotonic() - start < deadline

    _report(capsys, "3. slink laws (involution, commutation, chain, sign), n<=8", body)


def test_criterion_4_relation_poset(capsys):
    def body():
        for n in range(1, 8):
            c0 = syt_classes(n, "equiv0")
            c1 = syt_classes(n, "equiv1")
            c2 = syt_classes(n, "equiv2")
            assert refines(c0, c1) and refines(c1, c2)
            for alpha in compositions(n):
                fine = srt_image_classes(alpha, "quasiDualSRT-restricted")
                coarse = srt_image_classes(alpha, "quasiDualSRT")
                assert refines(fine, coarse)
            shifted = perm_classes(n, "shifted")
            assert refines(perm_classes(n, "equiv2rev"), shifted)
            assert refines(perm_classes(n, "equiv2flip"), shifted)

    _report(capsys, "4. refinement poset of the relations, n<=7", body)


def test_criterion_5_symmetric_unions(capsys):
    def body():
        for n in range(1, 7):
            comps = compositions(n)
            groups = _symmetry_groups(comps)
            for relation in ("equiv0", "equiv1", "equiv2"):
                classes = syt_classes(n, relation)
                # every symmetric union of <= 3 classes: marker counting
                # agrees with the straightening sum (checked internally)
                for union in _symmetric_unions(classes, comps, groups, 3):
                    expansion = schur_expand_class_union(union)
                    assert expansion.is_positive()
                # full single-shape sets give exactly one Schur function
                for lam in partitions(n):
                    full = syt_classes(lam, relation)
                    assert schur_expand_class_union(full) == SchurExpansion(
                        n, {lam: 1}
                    )

        # word-level corollary: full insertion-shape fibers of S_n ...
        for n in range(1, 7):
            for relation in ("equiv0", "equiv1", "equiv2"):
                classes = perm_classes(n, relation)
                for lam in partitions(n):
                    fiber = [
                        cls
                        for cls in classes
                        if insertion_tableau(cls.members[0]).shape == lam
                    ]
                    count = len(enumerate_tableaux(lam, "SYT"))
                    assert schur_expand_class_union(fiber) == SchurExpansion(
                        n, {lam: count}
                    )
        # ... and every symmetric union of <= 2 word classes at n <= 5
        for n in range(1, 6):
            comps = compositions(n)
            groups = _symmetry_groups(comps)
            for relation in ("equiv0", "equiv1", "equiv2"):
                classes = perm_classes(n, relation)
                for union in _symmetric_unions(classes, comps, groups, 2):
                    assert schur_expand_class_union(union).is_positive()

    _report(capsys, "5. symmetric class unions are Schur positive via markers, n<=6", body)


def test_criterion_6_composition_tableaux(capsys):
    def body():
        # the quasi-dual action preserves and is transitive on each shape
        for n in range(1, 8):
            for alpha in compositions(n):
                if not enumerate_tableaux(alpha, "SRCT"):
                    continue
                assert len(srct_classes(alpha)) == 1

        # column-sort commuting square, exact
        for n in range(1, 7):
            for alpha in compositions(n):
                for t in enumerate_tableaux(alpha, "SRCT"):
                    image = mason_rho(t)
                    assert mason_rho_inverse(image, alpha) == t
                    for i in range(2, n):
                        assert mason_rho(quasi_dual_move_srct(i, t)) == (
                            quasi_dual_move_srt(i, image)
                        )

        # the restricted move fails to be transitive on the (2,2,2) image
        assert len(srt_image_classes((2, 2, 2), "quasiDualSRT-restricted")) == 2

        # every quasisymmetric Schur function decomposes nonnegatively
        for n in range(1, 7):
            families = {
                k: {
                    cls.key: class_union_qsym([cls])
                    for cls in syt_classes(n, f"equiv{k}")
                }
                for k in (0, 1, 2)
            }
            for alpha in compositions(n):
                q = quasi_schur(alpha)
                if q.is_zero():
                    continue
                for k in (0, 1, 2):
                    coeffs = decompose_in_fk(q, k)
                    assert all(c == int(c) and c >= 0 for c in coeffs.values())
                    rebuilt = qsym_sum(
                        (families[k][key].scale(int(c)) for key, c in coeffs.items()),
                        n,
                    )
                    assert rebuilt == q

    _report(capsys, "6. composition-tableau suite and nonnegative decompositions", body)


def test_criterion_7_shifted_suite(capsys):
    def body():
        # pattern table equals the bridge oracle, built on the inverse-descent
        # guard and no window table
        for n in range(4, 8):
            for w in all_permutations(n):
                for i in range(1, n - 2):
                    assert shifted_dual_move(i, w) == shifted_dual_move_by_bridges(i, w)

        # bridges, with the index discrepancy resolved to n-i-1
        stated_index_fails = False
        for n in range(4, 8):
            for w in all_permutations(n):
                for i in range(2, n - 1):
                    r = reverse_word(restricted_dual_move(i, reverse_word(w)))
                    if r != w:
                        assert shifted_dual_move(i - 1, w) == r
                    f = flip(restricted_dual_move(i, flip(w)))
                    if f != w:
                        assert shifted_dual_move(n - i - 1, w) == f
                        if n - i <= n - 3 and shifted_dual_move(n - i, w) != f:
                            stated_index_fails = True
        assert stated_index_fails
        with capsys.disabled():
            print(
                "       note: flip bridge holds with shifted index n-i-1;"
                " the alternative n-i fails"
            )

        # flip-conjugated restricted moves are transitive on shifted tableaux
        for n in range(1, 9):
            for lam in strict_partitions(n):
                words = [t.reading_word() for t in enumerate_tableaux(lam, "SST")]
                classes = all_classes(words, moves_for("equiv2flip", (n,)), "equiv2flip")
                assert len(classes) == 1

        # symmetric shifted class unions: both marker routes agree
        def rev_route(members, degree):
            counts = {}
            for w in members:
                p = rsk(reverse_word(w))[0]
                if p == superstandard(p.shape):
                    lam = conjugate(p.shape)
                    counts[lam] = counts.get(lam, 0) + 1
            return SchurExpansion(degree, counts)

        for n in range(1, 7):
            comps = compositions(n)
            groups = _symmetry_groups(comps)
            classes = perm_classes(n, "shifted")
            max_size = 3 if n <= 5 else 2
            for union in _symmetric_unions(classes, comps, groups, max_size):
                expansion = schur_expand_class_union(union)
                assert expansion.is_positive()
                members = [w for cls in union for w in cls.members]
                assert rev_route(members, n) == expansion
            full = schur_expand_class_union(classes)
            assert full == rev_route(
                [w for cls in classes for w in cls.members], n
            )

    _report(capsys, "7. shifted suite: table, bridges, transitivity, positivity", body)


def test_criterion_8_family_independence(capsys):
    def body():
        deadline = 300.0
        start = time.monotonic()
        for n in range(1, 8):
            dimension = 2 ** (n - 1)
            for k in (0, 1, 2):
                report = family_independence_report(k, n)
                assert report["rank"] == dimension
                if k == 2:
                    assert report["distinct"] == dimension
        assert time.monotonic() - start < deadline

    _report(capsys, "8. class function families span; k=2 set is a basis, n<=7", body)


def test_criterion_9_brute_force_oracles(capsys):
    def body():
        for n in range(1, 7):
            # insertion round trip
            for w in all_permutations(n):
                p, q = rsk(w)
                assert rsk_inverse(p, q) == w

            # standardized Yamanouchi words two ways
            for lam in partitions(n):
                u = superstandard(lam)
                via_insertion = sorted(
                    w for w in all_permutations(n) if rsk(w)[0] == u
                )
                assert sorted(standardized_yamanouchi(lam)) == via_insertion

            # recursive enumeration equals filtered brute force
            for lam in partitions(n):
                assert enumerate_tableaux(lam, "SYT") == brute_force_tableaux(lam, "SYT")
                assert enumerate_tableaux(lam, "SRT") == brute_force_tableaux(lam, "SRT")
            for alpha in compositions(n):
                assert enumerate_tableaux(alpha, "SRCT") == brute_force_tableaux(
                    alpha, "SRCT"
                )
            for lam in strict_partitions(n):
                assert enumerate_tableaux(lam, "SST") == brute_force_tableaux(lam, "SST")

    _report(capsys, "9. brute-force oracle agreement, n<=6", body)

"""Property tests on random permutations and composition tableaux of degree
up to 9, and on random quasisymmetric functions of degree up to 7.

Hypothesis is a test-only dependency.  Every test is derandomized with a
fixed example budget, so a run is deterministic and quick.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tabkit.core import composition_to_subset, compositions
from tabkit.equivalence import moves_for
from tabkit.operators import (
    mason_rho,
    mason_rho_inverse,
    restricted_dual_move,
    restricted_dual_move_tableau,
    shifted_dual_move,
)
from tabkit.qsym import QsymElement
from tabkit.rsk import dual_move, knuth_move, rsk, rsk_inverse
from tabkit.tableaux import enumerate_tableaux

from oracles import dual_move_tableau, insertion_tableau

permutations = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)

# (alpha, t) with t in SRCT(alpha), |alpha| <= 9
srcts = (
    st.integers(min_value=1, max_value=9)
    .flatmap(lambda n: st.sampled_from(compositions(n)))
    .flatmap(
        lambda alpha: st.tuples(
            st.just(alpha), st.sampled_from(enumerate_tableaux(alpha, "SRCT"))
        )
    )
)

# integer combinations of fundamentals F_alpha, |alpha| <= 7
f_combinations = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(compositions(n)), st.integers(min_value=-9, max_value=9)
    ).map(lambda coeffs: QsymElement(n, coeffs))
)

deterministic = settings(max_examples=150, derandomize=True, database=None)


@deterministic
@given(permutations)
def test_rsk_round_trip(w):
    p, q = rsk(w)
    assert p.shape == q.shape
    assert rsk_inverse(p, q) == w


@deterministic
@given(permutations)
def test_knuth_move_fixes_p_and_dual_moves_q(w):
    # Haiman's theorem, on which perm_classes carries each class across Q:
    # K_j fixes the insertion tableau and acts on the recording one as d_j
    p, q = rsk(w)
    for j in range(2, len(w)):
        assert rsk(knuth_move(j, w)) == (p, dual_move_tableau(j, q))


@deterministic
@given(permutations)
def test_restricted_dual_move_fixes_q_and_moves_p(w):
    # dR_i fixes the recording tableau and acts on the insertion one as the
    # tableau move, so each equiv2 word class is an SYT class carried across Q
    p, q = rsk(w)
    for i in range(2, len(w) - 1):
        assert rsk(restricted_dual_move(i, w)) == (restricted_dual_move_tableau(i, p), q)


@deterministic
@given(permutations)
def test_word_relations_move_p_through_insertion_and_fix_q(w):
    # the premise on which perm_classes carries these relations' classes
    # across Q, here up to the degree cap
    p, q = rsk(w)
    for relation in ("shifted", "equiv2rev", "equiv2flip"):
        for _name, _i, move in moves_for(relation, (len(w),)):
            assert rsk(move(w)) == (insertion_tableau(move(p.reading_word())), q)


@deterministic
@given(permutations)
def test_dual_moves_are_involutions(w):
    n = len(w)
    for i in range(2, n):
        assert dual_move(i, dual_move(i, w)) == w
    for i in range(2, n - 1):
        assert restricted_dual_move(i, restricted_dual_move(i, w)) == w
    for i in range(1, n - 2):
        assert shifted_dual_move(i, shifted_dual_move(i, w)) == w


@deterministic
@given(srcts)
def test_mason_rho_round_trip(case):
    alpha, t = case
    image = mason_rho(t)
    assert image._validate() is None
    assert mason_rho_inverse(image, alpha) == t


@deterministic
@given(f_combinations)
def test_monomial_expansion_inverts_by_moebius(q):
    # M_beta = sum of (-1)^(l(alpha) - l(beta)) F_alpha over the alpha that
    # refine beta, i.e. whose partial sums include those of beta
    back = {}
    for beta, c in q.to_monomial().items():
        cuts = composition_to_subset(beta)
        for alpha in compositions(q.degree):
            if cuts <= composition_to_subset(alpha):
                sign = (-1) ** (len(alpha) - len(beta))
                back[alpha] = back.get(alpha, 0) + sign * c
    assert {alpha: c for alpha, c in back.items() if c} == q.coeffs

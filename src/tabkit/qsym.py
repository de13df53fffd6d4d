"""Quasisymmetric functions on the fundamental basis, symmetry detection,
Schur expansions of class unions, quasisymmetric Schur functions, and the
class generating-function families k = 0, 1, 2, each with one lead table
that both decomposes targets and certifies the family as a basis."""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .core import (
    composition_to_subset,
    compositions,
    conjugate,
    flip,
    reverse_word,
    slinky,
    sort_to_partition,
    subset_to_composition,
)
from .equivalence import key_of, syt_classes
from .rsk import rsk
from .tableaux import Tableau, enumerate_tableaux, superstandard


class NotSymmetricError(ValueError):
    """Raised when a symmetric expansion is requested of a non-symmetric
    function; carries a witness pair of rearranged compositions whose
    monomial coefficients differ."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not symmetric: monomial coefficients differ on {witness}")


class MarkerMismatchError(ValueError):
    """Raised when the marker counts of a class union disagree with the
    slinky straightening of its fundamental expansion; carries both
    Schur expansions."""

    def __init__(self, markers, straightened):
        self.markers = markers
        self.straightened = straightened
        super().__init__(
            f"marker counts {markers!r} disagree with slinky sum {straightened!r}"
        )


class DecompositionError(ValueError):
    """Raised when a function lies outside the span of a family."""

    def __init__(self, residual, message="function is outside the span of the family"):
        self.residual = residual
        super().__init__(message)


class QsymElement:
    """Degree-n quasisymmetric function as integer coefficients on the
    fundamental basis, keyed by descent compositions."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        self.coeffs = {}
        for alpha, c in (coeffs or {}).items():
            if c == 0:
                continue
            if sum(alpha) != degree:
                raise ValueError(f"{alpha} is not a composition of {degree}")
            self.coeffs[tuple(alpha)] = c

    @classmethod
    def fundamental(cls, alpha):
        return cls(sum(alpha), {tuple(alpha): 1})

    @classmethod
    def zero(cls, degree):
        return cls(degree)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return qsym_sum((self, other), self.degree)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return QsymElement(
            self.degree, {alpha: factor * c for alpha, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, QsymElement)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return f"QsymElement({self.degree}, 0)"
        body = " + ".join(
            f"{c}*F{alpha}" for alpha, c in sorted(self.coeffs.items())
        )
        return f"QsymElement({self.degree}, {body})"

    # -- basis transitions -------------------------------------------------

    def to_monomial(self):
        """Coefficients on the monomial basis: F_a = sum of M_b over
        refinements b of a."""
        mono = self._monomial_vector()
        return {
            beta: mono[mask]
            for beta, mask in _descent_masks(self.degree).items()
            if mono[mask]
        }

    def symmetry_witness(self):
        """None when symmetric; else a pair of rearranged compositions with
        different monomial coefficients: the first composition of the first
        rearrangement class, in the order of `compositions`, whose members
        disagree, and its first member that differs from it."""
        mono = self._monomial_vector()
        for (first, first_mask), *rest in _rearrangement_classes(self.degree):
            ref = mono[first_mask]
            for beta, mask in rest:
                if mono[mask] != ref:
                    return (first, beta)
        return None

    def _monomial_vector(self):
        """Monomial coefficients, indexed like `to_vector`.

        M_b collects the coefficient of every F_a whose descent set lies
        inside b's, so this is the subset-sum (zeta) transform of the
        F-vector: (n-1) * 2^(n-2) additions in place.
        """
        vec = self.to_vector()
        size = len(vec)
        bit = 1
        while bit < size:
            for start in range(bit, size, 2 * bit):
                for mask in range(start, start + bit):
                    vec[mask] += vec[mask - bit]
            bit <<= 1
        return vec

    def is_symmetric(self):
        return self.symmetry_witness() is None

    def omega(self):
        """Complement every descent set in [n-1]."""
        n = self.degree
        out = {}
        for alpha, c in self.coeffs.items():
            full = set(range(1, n))
            comp = subset_to_composition(full - composition_to_subset(alpha), n)
            out[comp] = out.get(comp, 0) + c
        return QsymElement(n, out)

    # -- vector form -------------------------------------------------------

    def to_vector(self):
        """Dense integer vector indexed by subsets of [n-1] as bitmasks."""
        masks = _descent_masks(self.degree)
        vec = [0] * len(masks)
        for alpha, c in self.coeffs.items():
            vec[masks[alpha]] += c
        return vec

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": "fundamental",
            "coeffs": [
                {"composition": list(alpha), "coeff": c}
                for alpha, c in sorted(self.coeffs.items())
            ],
        }


@lru_cache(maxsize=None)
def _descent_masks(n):
    """Each composition of n mapped to its descent set as a bitmask, bit
    s-1 for descent s, in the order of `compositions(n)`."""
    return MappingProxyType({
        alpha: sum(1 << (s - 1) for s in composition_to_subset(alpha))
        for alpha in compositions(n)
    })


@lru_cache(maxsize=None)
def _mask_compositions(n):
    """The inverse of `_descent_masks`: the composition of n with each
    descent bitmask, as a tuple indexed by the bitmask."""
    out = [None] * len(_descent_masks(n))
    for alpha, mask in _descent_masks(n).items():
        out[mask] = alpha
    return tuple(out)


def _fundamental_sum(words, n):
    """The F-sum of words that are permutations of 1..n.

    Each word is counted at its inverse-descent bitmask, read in one scan:
    bit i-1 is set when i+1 comes before i.  One element is then built from
    the counts, each bitmask named by its composition.  A word that is not
    a permutation of 1..n raises ValueError.
    """
    full = (2 << n) - 2  # bits 1..n: every value seen
    counts = {}
    for word in words:
        seen = mask = 0
        for v in word:
            if not 0 < v <= n:
                raise ValueError(f"{word} is not a permutation of 1..{n}")
            if seen >> v & 2:  # v + 1 came before v
                mask |= 1 << v
            seen |= 1 << v
        if seen != full or len(word) != n:
            raise ValueError(f"{word} is not a permutation of 1..{n}")
        mask >>= 1
        counts[mask] = counts.get(mask, 0) + 1
    composition_of = _mask_compositions(n)
    return QsymElement(n, {composition_of[mask]: c for mask, c in counts.items()})


@lru_cache(maxsize=None)
def _rearrangement_classes(n):
    """The compositions of n grouped by their sorted parts, as tuples of
    (composition, bitmask); classes and members in the order of
    `compositions(n)`."""
    classes = {}
    for alpha, mask in _descent_masks(n).items():
        classes.setdefault(sort_to_partition(alpha), []).append((alpha, mask))
    return tuple(tuple(members) for members in classes.values())


def qsym_sum(elements, degree):
    """Sum of degree-n elements, accumulated into one coefficient dict."""
    total = {}
    for element in elements:
        if element.degree != degree:
            raise ValueError("degree mismatch")
        for alpha, c in element.coeffs.items():
            total[alpha] = total.get(alpha, 0) + c
    return QsymElement(degree, total)


class SchurExpansion:
    """Signed integer coefficients on partitions of n."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        self.coeffs = {
            tuple(lam): c for lam, c in (coeffs or {}).items() if c != 0
        }

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"SchurExpansion({self.degree}, {self.coeffs!r})"

    def is_positive(self):
        return all(c > 0 for c in self.coeffs.values())

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": "schur",
            "coeffs": [
                {"partition": list(lam), "coeff": c}
                for lam, c in sorted(self.coeffs.items())
            ],
        }


# ---------------------------------------------------------------------------
# Schur expansions

def schur_fundamental(lam):
    """The Schur function of shape lam as a fundamental expansion, summed
    over standard Young tableaux."""
    return _fundamental_sum(
        (t.reading_word() for t in enumerate_tableaux(lam, "SYT")), sum(lam)
    )


def schur_expand_by_slinky(q):
    """Straighten every fundamental term; valid whenever q is symmetric."""
    out = {}
    for alpha, c in q.coeffs.items():
        straight = slinky(alpha)
        if straight is None:
            continue
        sign, lam = straight
        out[lam] = out.get(lam, 0) + sign * c
    return SchurExpansion(q.degree, out)


def class_union_qsym(classes):
    """Fundamental generating function of a union of classes: each member
    adds F of the descent composition of its key (a tableau's key is its
    reading word), counted at the key's inverse-descent bitmask.  Keys of
    different lengths, or a key that is not a permutation, raise
    ValueError."""
    keys = [key_of(m) for cls in classes for m in cls.members]
    if not keys:
        raise ValueError("empty class union")
    return _fundamental_sum(keys, len(keys[0]))


def schur_expand_fsum(q, classes):
    """Schur expansion of a symmetric class-union generating function, from
    q = class_union_qsym(classes), which the caller has already built.

    Coefficients are counted from the distinguished members (superstandard
    tableaux, or permutations whose insertion tableau is superstandard,
    after the relation's `MARKER_WORD` transform) and cross-checked against
    the slinky straightening of q; a disagreement raises
    MarkerMismatchError, and a q that is not symmetric raises
    NotSymmetricError with its witness.
    """
    relations = {cls.relation for cls in classes}
    if len(relations) != 1:
        raise ValueError(f"classes under mixed relations: {relations}")
    relation = relations.pop()
    members = [m for cls in classes for m in cls.members]
    witness = q.symmetry_witness()
    if witness is not None:
        raise NotSymmetricError(witness)

    counts = {}
    for m in members:
        lam = _marker_shape(m, relation)
        if lam is not None:
            counts[lam] = counts.get(lam, 0) + 1
    expansion = SchurExpansion(q.degree, counts)

    check = schur_expand_by_slinky(q)
    if check != expansion:
        raise MarkerMismatchError(expansion, check)
    return expansion


# the word whose insertion tableau marks a permutation, per word relation;
# the identity for the others
MARKER_WORD = {"shifted": flip, "equiv2rev": reverse_word}


def _marker_shape(member, relation):
    """The partition this member contributes a Schur coefficient to, if any.

    Reversal transposes the insertion tableau, P(rev w) = P(w)^T, so an
    `equiv2rev` marker is filed under the conjugate of its shape.
    """
    if isinstance(member, Tableau):
        if member == superstandard(member.shape):
            return member.shape
        return None
    word = MARKER_WORD[relation](member) if relation in MARKER_WORD else member
    p = rsk(word)[0]
    if p != superstandard(p.shape):
        return None
    return conjugate(p.shape) if relation == "equiv2rev" else p.shape


# ---------------------------------------------------------------------------
# quasisymmetric Schur functions

def quasi_schur(alpha):
    """Sum of fundamentals over the standard reverse composition tableaux
    of shape alpha, with descents read off the bent reading word."""
    return _fundamental_sum(
        (t.reading_word() for t in enumerate_tableaux(alpha, "SRCT")), sum(alpha)
    )


# ---------------------------------------------------------------------------
# class generating-function families

def solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] = target over the rationals.

    Returns (solution list of Fractions, unique flag); free variables are
    set to zero.  Raises DecompositionError with the residual coordinate
    when the system is inconsistent.
    """
    rows = len(target)
    ncols = len(columns)
    aug = [
        [Fraction(columns[j][r]) for j in range(ncols)] + [Fraction(target[r])]
        for r in range(rows)
    ]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            raise DecompositionError([row[ncols] for row in aug[r:]])
    solution = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        solution[c] = aug[row_idx][ncols]
    return solution, len(pivots) == ncols


class NotUnitriangularError(DecompositionError):
    """Raised when a family's distinct functions do not form a unitriangular
    integer system: two of them lead at the same coordinate, or one leads
    with a coefficient other than 1.  Carries the class keys involved."""

    def __init__(self, keys, lead, message):
        self.keys = keys
        self.lead = lead
        super().__init__(None, f"the family is not unitriangular: {message}")


def lead_table(entries):
    """Map each lead coordinate to the first (class, vector) leading there.

    `entries` are (class, integer vector) pairs in family order; the lead of
    a vector is its first nonzero index.  Equal vectors share a lead and the
    first class keeps it.  Two different vectors with one lead, or a lead
    coefficient other than 1, raise NotUnitriangularError.
    """
    table = {}
    for cls, vector in entries:
        vector = tuple(vector)
        lead = next((i for i, c in enumerate(vector) if c), None)
        if lead is None or vector[lead] != 1:
            raise NotUnitriangularError(
                (cls.key,), lead,
                f"class {cls.key} does not lead with coefficient 1 (lead {lead})",
            )
        first = table.setdefault(lead, (cls, vector))
        if first[1] != vector:
            raise NotUnitriangularError(
                (first[0].key, cls.key), lead,
                f"classes {first[0].key} and {cls.key} have different "
                f"functions that both lead at {lead}",
            )
    return MappingProxyType(table)


def family_lead_table(classes):
    """`lead_table` of the family's distinct class functions, each kept by
    its first class in family order before any vector is made."""
    first = {}
    for cls in classes:
        first.setdefault(class_union_qsym([cls]), cls)
    return lead_table((cls, q.to_vector()) for q, cls in first.items())


@lru_cache(maxsize=None)
def fk_lead_table(k, n):
    """The lead table of the degree-n k-th family, built once per process."""
    return family_lead_table(syt_classes(n, f"equiv{k}"))


def decompose_in_fk(q, k):
    """Express q over the k-th family (k = 0, 1 or 2) as integer coefficients.

    The solve is forward elimination in integers against the family's
    distinct functions, which lead unitriangularly (`fk_lead_table`); each
    coefficient sits on the first class of its function.  Returns
    {class key: coefficient}; a q outside the family's span raises
    DecompositionError.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"no k={k} family: k is 0, 1 or 2")
    table = fk_lead_table(k, q.degree)
    residual = q.to_vector()
    solution = {}
    for lead in range(len(residual)):
        coeff = residual[lead]
        if not coeff:
            continue
        if lead not in table:
            raise DecompositionError(residual)
        cls, vector = table[lead]
        for i in range(lead, len(residual)):
            residual[i] -= coeff * vector[i]
        solution[cls.key] = coeff
    return solution

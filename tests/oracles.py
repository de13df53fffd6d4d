"""References and helpers for the tests; nothing in tabkit calls them.

Each oracle decides again, by another route, something the library decides
once: enumeration by filtering every filling, the Knuth move through
inverses, straightening by row swaps, Yamanouchi words by recursion,
pistols by their definition, slink and slink* by moving the cells of a
tableau's runs (`slink_by_runs`, `slink_star_by_runs`) where the library
moves positions of its reading word, and the basis conjecture by the exact
rank of each family (`fk_family`, `exact_rank`,
`family_independence_report`) where the library reads one lead table, and
the commutation suite word by word (`commutation_by_words`, acting on a
word through its insertion tableau with `act_via_insertion`) where the
library compares move tables on the RSK pair grid.  `all_classes_by_elements`
closes a universe element by element with the carrier check inline, where
the library tabulates each move on the whole carrier (`move_tables`).
`classes_to_json` gives the JSON value of a class list, which the library
writes as text in one pass.  `refinements`
expands each fundamental into monomials term by term
(`refinement_monomials`, `symmetry_witness_by_refinements`), where the
library takes one subset-sum transform of the F-vector.
`apply_window_by_index` finds a move's window by one `index` per value and
a sort, where the library reads it in one scan, and
`class_union_qsym_by_members` sums one F per class member, where the library
counts members at inverse-descent bitmasks.  `column_sort` sorts the
columns of an SRCT cell by cell, where the library sorts its reading word
by (column, value).  `refines`, `syt_from_word`, `tableau_from_word`,
`word_of`, `insertion_tableau`, `position_of`, `dual_move_tableau`,
`fundamental_of_word`, `fundamental_of_tableau` and
`schur_expand_class_union` spell a test's verdict or input in library
calls, and `syt_universe` lists every SYT of size n.  `tableau_moves`,
`quasi_dual_move_srct` and `quasi_dual_move_srt` lift word moves to
tableaux through the validated `Tableau.with_word`, where the library
moves reading words only, and `misfiled_exchange` and
`duplicated_exchange` break the library's run exchange on purpose.  Test
modules import them as `from oracles import ...`.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations

from tabkit import cli, operators
from tabkit.core import (
    all_permutations,
    compositions,
    descent_composition,
    partitions,
    sort_to_partition,
    word_to_str,
)
from tabkit.equivalence import (
    MOVES,
    CarrierError,
    EquivClass,
    _indices,
    _straddling,
    moves_for,
    syt_classes,
)
from tabkit.operators import quasi_dual_word_srct, quasi_dual_word_srt
from tabkit.qsym import QsymElement, class_union_qsym, qsym_sum, schur_expand_fsum
from tabkit.rsk import dual_move, rsk, rsk_inverse
from tabkit.tableaux import (
    FLAVORS,
    InvalidTableauError,
    Tableau,
    enumerate_tableaux,
    reading_cells,
    superstandard,
)


# ---------------------------------------------------------------------------
# words and partitions

def conjugate(lam):
    """Conjugate partition (column lengths)."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def invert(word):
    """Inverse of a permutation in one-line notation."""
    inv = [0] * len(word)
    for pos, val in enumerate(word):
        inv[val - 1] = pos + 1
    return tuple(inv)


def standardize(word):
    """Permutation with the same relative order; earlier copies of equal
    values are treated as smaller."""
    order = sorted(range(len(word)), key=lambda idx: (word[idx], idx))
    out = [0] * len(word)
    for rank, idx in enumerate(order):
        out[idx] = rank + 1
    return tuple(out)


def slinky_by_swaps(alpha):
    """Straighten by repeated adjacent row swaps; oracle for slinky()."""
    parts = list(alpha)
    sign = 1
    while True:
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                if parts[i] + 1 == parts[i + 1]:
                    return None
                parts[i], parts[i + 1] = parts[i + 1] - 1, parts[i] + 1
                sign = -sign
                break
        else:
            return (sign, tuple(parts))


def yamanouchi_words(lam):
    """All words of weight lam such that every suffix contains weakly more
    i's than (i+1)'s."""
    k = len(lam)
    n = sum(lam)
    words = []

    def build(remaining, counts, acc):
        # builds the word right to left; counts are of the suffix built so far
        if remaining == 0:
            words.append(tuple(acc))
            return
        for val in range(1, k + 1):
            if counts[val - 1] == lam[val - 1]:
                continue
            counts[val - 1] += 1
            if all(counts[i] >= counts[i + 1] for i in range(k - 1)):
                acc.insert(0, val)
                build(remaining - 1, counts, acc)
                acc.pop(0)
            counts[val - 1] -= 1

    build(n, [0] * k, [])
    return sorted(words)


def standardized_yamanouchi(lam):
    """Standardizations of the Yamanouchi words of weight lam."""
    return sorted(standardize(w) for w in yamanouchi_words(lam))


def knuth_move_by_inverse(i, word):
    """Oracle: the Knuth move as an inverse-conjugated dual move."""
    return invert(dual_move(i, invert(word)))


def refines(fine, coarse):
    """True iff every fine class is contained in some coarse class."""
    return next(_straddling(fine, coarse), None) is None


# ---------------------------------------------------------------------------
# tableaux

def word_of(element):
    """The word a class of the library holds for a carrier element: a
    tableau's reading word, or the word itself."""
    return element.reading_word() if isinstance(element, Tableau) else tuple(element)


def syt_from_word(word, shape):
    """The SYT of the given shape with the given row reading word."""
    return superstandard(shape).with_word(word)


def tableau_from_word(word, flavor, shape):
    """The validated tableau of the flavor and shape with this reading word."""
    return enumerate_tableaux(shape, flavor)[0].with_word(word)


def column_sort(t):
    """Reference for `operators.mason_rho`: sort the columns of an SRCT cell
    by cell and bottom justify, giving a validated SRT."""
    width = max((len(row) for row in t.rows), default=0)
    cols = [
        sorted((row[c] for row in t.rows if c < len(row)), reverse=True) for c in range(width)
    ]
    lam = tuple(sorted(t.shape, reverse=True))
    return Tableau([[cols[c][r] for c in range(lam[r])] for r in range(len(lam))], "SRT")


def insertion_tableau(word):
    """The insertion tableau P of a word."""
    return rsk(word)[0]


def position_of(t, value):
    """The cell (row, column) of a value in a tableau; KeyError when the
    tableau does not hold it."""
    try:
        index = t.reading_word().index(value)
    except ValueError:
        raise KeyError(value) from None
    return reading_cells(t.flavor, t.shape)[index]


def syt_universe(n):
    """All standard Young tableaux of size n, every shape."""
    out = []
    for lam in partitions(n):
        out.extend(enumerate_tableaux(lam, "SYT"))
    return out


def dual_move_tableau(i, t):
    """The dual move d_i on an SYT, through its row reading word."""
    return t.with_word(dual_move(i, t.reading_word()))


def quasi_dual_move_srct(i, t):
    """Quasi-dual move on a standard reverse composition tableau."""
    if t.flavor != "SRCT":
        raise InvalidTableauError("expected an SRCT")
    return t.with_word(quasi_dual_word_srct(i, t.reading_word(), t.shape))


def quasi_dual_move_srt(i, t):
    """Quasi-dual move on a standard reverse tableau."""
    if t.flavor != "SRT":
        raise InvalidTableauError("expected an SRT")
    return t.with_word(quasi_dual_word_srt(i, t.reading_word(), t.shape))


def tableau_moves(relation, n):
    """Indexed moves for a carrier of size n: the word moves on S_n, or each
    move lifted to tableaux.  A lifted move acts on the tableau's reading
    word with the relation's moves bound to the tableau's shape
    (`moves_for`), and refills it through `Tableau.with_word`, which
    validates the image."""
    carrier, name, span, _move = MOVES[relation]
    if carrier == "S_n":
        return moves_for(relation, (n,))
    bound = lru_cache(maxsize=None)(
        lambda shape: {i: move for _name, i, move in moves_for(relation, shape)}
    )
    return [
        (name, i, lambda t, i=i: t.with_word(bound(t.shape)[i](t.reading_word())))
        for i in _indices(span, n)
    ]


def act_via_insertion(f, word):
    """Act on a word by applying f to its insertion tableau."""
    p, q = rsk(word)
    new_p = f(p)
    if new_p.shape != p.shape:
        raise InvalidTableauError("tableau map changed the shape")
    return rsk_inverse(new_p, q)


def pistol(shape, cell):
    """Cells weakly below `cell` in its column plus cells weakly above it in
    the column to its left.  `shape` lists row lengths bottom to top."""
    r, c = cell
    if not (0 <= r < len(shape) and 0 <= c < shape[r]):
        raise ValueError(f"cell {cell} not in shape {shape}")
    cells = set()
    for r2 in range(r + 1):
        if c < shape[r2]:
            cells.add((r2, c))
    if c >= 1:
        for r2 in range(r, len(shape)):
            if c - 1 < shape[r2]:
                cells.add((r2, c - 1))
    return cells


def brute_force_tableaux(shape, flavor):
    """Filter every assignment of [n] to the cells; oracle for enumerate."""
    if flavor not in FLAVORS:
        raise InvalidTableauError(f"unknown flavor {flavor!r}")
    shape = tuple(shape)
    n = sum(shape)
    out = []
    for perm in permutations(range(1, n + 1)):
        grid = []
        pos = 0
        for part in shape:
            grid.append(perm[pos:pos + part])
            pos += part
        try:
            out.append(Tableau(grid, flavor))
        except InvalidTableauError:
            pass
    return sorted(out, key=lambda t: t.reading_word())


# ---------------------------------------------------------------------------
# slink and slink* on tableaux: the runs' cells move, then refill

def run_cells(t):
    """Cells of each run of an SYT, in order of increasing value."""
    runs, low = [], 0
    for part in t.descent_composition():
        runs.append([position_of(t, v) for v in range(low + 1, low + part + 1)])
        low += part
    return runs


def from_runs(shape, runs):
    """Fill an SYT candidate from run cell sets: run m gets the next block
    of consecutive values, increasing in reading order of its cells.  The
    result is not validated."""
    grid = [[0] * part for part in shape]
    order = reading_cells("SYT", shape).index
    value = 1
    for cells in runs:
        for r, c in sorted(cells, key=order):
            grid[r][c] = value
            value += 1
    return Tableau._trusted(grid, "SYT")


def _slink_context_by_rows(t):
    """(j, i, beta) of the run surgery read off the rows of t, or None when
    t is superstandard."""
    row_of = {v: r for r, row in enumerate(t.rows) for v in row}
    drop = next((v for v in range(2, t.size + 1) if row_of[v] < row_of[v - 1]), None)
    if drop is None:
        return None
    beta = t.descent_composition()
    cutoff = 0
    for j, part in enumerate(beta, start=1):
        cutoff += part
        if cutoff >= drop:
            break
    mu = Counter(row_of[v] for v in range(1, cutoff + 1))
    for i in range(1, j):
        if mu[i] <= beta[j - 1] + i - j:
            return (j, i, beta)
    raise AssertionError("no admissible row index found")


def _permute_runs_of_cells(t, beta, donor, j, take):
    """Exchange cells between runs donor and j below row j so the donor run
    ends up with `take` of the pooled cells; the image is validated, with
    its prescribed run sizes."""
    runs = run_cells(t)
    pool = runs[donor - 1] + [c for c in runs[j - 1] if c[0] < j - 1]
    picked = sorted((c for c in pool if c[0] < donor), key=lambda c: (c[1], c[0]))[:take]
    runs[donor - 1] = picked
    runs[j - 1] = [c for c in runs[j - 1] if c[0] >= j - 1] + [
        c for c in pool if c not in picked
    ]
    expected = list(beta)
    expected[donor - 1] = take
    expected[j - 1] = beta[donor - 1] + beta[j - 1] - take
    image = from_runs(t.shape, runs)
    assert image._validate() is None and list(image.descent_composition()) == expected
    return image


def slink_by_runs(t):
    """Oracle for slink: pass the lead of the offending run back."""
    ctx = _slink_context_by_rows(t)
    if ctx is None:
        return t
    j, _, beta = ctx
    return _permute_runs_of_cells(t, beta, j - 1, j, beta[j - 1] - 1)


def slink_star_by_runs(t):
    """Oracle for slink*: exchange the offending run with the lowest row
    that can absorb it."""
    ctx = _slink_context_by_rows(t)
    if ctx is None:
        return t
    j, i, beta = ctx
    return _permute_runs_of_cells(t, beta, i, j, beta[j - 1] + i - j)


def misfiled_exchange(exchange):
    """The library's run exchange with one donor position handed on to run
    j, so that the image misses its prescribed run sizes."""

    def misfiled(cells, runs, donor, j, take):
        runs = exchange(cells, runs, donor, j, take)
        runs[j - 1] = runs[j - 1] + runs[donor - 1][:1]
        runs[donor - 1] = runs[donor - 1][1:]
        return runs

    return misfiled


def duplicated_exchange(exchange):
    """The library's run exchange with one of run j's positions in place of
    the donor's first, so that one position lies in two runs and another in
    none."""

    def duplicated(cells, runs, donor, j, take):
        runs = exchange(cells, runs, donor, j, take)
        runs[donor - 1] = runs[j - 1][:1] + runs[donor - 1][1:]
        return runs

    return duplicated


# ---------------------------------------------------------------------------
# class lists

def all_classes_by_elements(universe, moves, relation):
    """Reference for `all_classes`: each element in turn takes every move,
    with the carrier check inline, where the library tabulates one move at
    a time on all the elements.  The first image outside the universe
    raises CarrierError naming the first element, in element order, that
    any move takes outside, and the first such move.  A universe of
    tableaux closes under tableau moves, and its classes hold their reading
    words (`word_of`), as the library's do."""
    elements = list(universe)
    index = {e: i for i, e in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i, element in enumerate(elements):
        for name, idx, move in moves:
            k = index.get(move(element))
            if k is None:
                raise CarrierError(f"move {name}_{idx} left the carrier at {word_of(element)}")
            union(i, k)

    groups = {}
    for i, element in enumerate(elements):
        groups.setdefault(find(i), []).append(word_of(element))
    return sorted(
        (EquivClass(relation, members) for members in groups.values()), key=lambda cls: cls.key
    )


def classes_to_json(classes):
    """The JSON value of a class list, one object per class; `json.dumps`
    of it with indent=2 is the reference text of the class-list writer."""
    return [
        {
            "relation": cls.relation,
            "size": len(cls.members),
            "members": [word_to_str(m) for m in cls.members],
        }
        for cls in classes
    ]


# ---------------------------------------------------------------------------
# window moves and class F-sums

def apply_window_by_index(word, low, high, table):
    """Apply a pattern table to the values low..high of a word.

    Raises ValueError when one of those values is missing.
    """
    try:
        positions = sorted(word.index(v) for v in range(low, high + 1))
    except ValueError:
        raise ValueError(f"values [{low}, {high}] not all present") from None
    new_window = table.get(tuple(word[p] - low + 1 for p in positions))
    if new_window is None:
        return tuple(word)
    out = list(word)
    for p, v in zip(positions, new_window):
        out[p] = v + low - 1
    return tuple(out)


def fundamental_of_word(word):
    """F of the descent composition of a word."""
    return QsymElement.fundamental(descent_composition(word))


def fundamental_of_tableau(t):
    """F of the descent composition of a tableau's reading word."""
    return QsymElement.fundamental(t.descent_composition())


def class_union_qsym_by_members(classes):
    """Fundamental generating function of a union of classes: each member,
    a word, adds F of its descent composition."""
    members = [m for cls in classes for m in cls.members]
    if not members:
        raise ValueError("empty class union")
    return qsym_sum((fundamental_of_word(m) for m in members), len(members[0]))


def schur_expand_class_union(classes):
    """The Schur expansion of a class union, from its own F-sum."""
    return schur_expand_fsum(class_union_qsym(classes), classes)


# ---------------------------------------------------------------------------
# monomial expansions

def refinements(alpha):
    """All compositions refining alpha (splitting parts into blocks)."""
    if not alpha:
        return [()]
    out = []
    for head in compositions(alpha[0]):
        for rest in refinements(alpha[1:]):
            out.append(head + rest)
    return out


def refinement_monomials(q):
    """Coefficients on the monomial basis: F_a = sum of M_b over
    refinements b of a."""
    out = {}
    for alpha, c in q.coeffs.items():
        for beta in refinements(alpha):
            out[beta] = out.get(beta, 0) + c
    return {beta: c for beta, c in out.items() if c != 0}


def symmetry_witness_by_refinements(q):
    """None when symmetric; else a pair of rearranged compositions with
    different monomial coefficients."""
    mono = refinement_monomials(q)
    by_multiset = {}
    for beta in compositions(q.degree):
        by_multiset.setdefault(sort_to_partition(beta), []).append(beta)
    for group in by_multiset.values():
        ref = mono.get(group[0], 0)
        for beta in group[1:]:
            if mono.get(beta, 0) != ref:
                return (group[0], beta)
    return None


# ---------------------------------------------------------------------------
# the commutation suite

def commutation_by_words(n):
    """The commutation suite compared word by word, K_j(op w) against
    op(K_j w) on every w.  slink and slink* act through insertion, with the
    validated tableau maps `operators.slink_star` and `operators.slink`;
    the Knuth move is looked up in `cli`, where the suite binds it, and the
    restricted dual move in `operators`, so a patch there, or of its
    `apply_window`, reaches it.  Each slink image is inserted once per call
    and kept."""
    words = all_permutations(n)
    ops = [
        ("slink*", lru_cache(maxsize=None)(lambda w: act_via_insertion(operators.slink_star, w))),
        ("slink", lru_cache(maxsize=None)(lambda w: act_via_insertion(operators.slink, w))),
    ]
    ops += [
        (f"dR_{i}", lambda w, i=i: operators.restricted_dual_move(i, w)) for i in range(2, n - 1)
    ]
    results = []
    for j in range(2, n):
        for name, op in ops:
            for w in words:
                if cli.knuth_move(j, op(w)) != op(cli.knuth_move(j, w)):
                    results.append((f"K_{j} commutes with {name} on S_{n}", False, w))
                    break
            else:
                results.append((f"K_{j} commutes with {name} on S_{n}", True, None))
    return results


# ---------------------------------------------------------------------------
# class generating-function families

def fk_family(k, n):
    """Generating functions of the degree-n classes of the k-th relation,
    as (class key, function) pairs sorted by least reading word."""
    relation = f"equiv{k}"
    classes = syt_classes(n, relation)
    return [(cls.key, class_union_qsym([cls])) for cls in classes]


def exact_rank(vectors):
    """Rank of integer row vectors by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in vectors]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    col = 0
    while rank < rows and col < cols:
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, rows):
            for c in range(col + 1, cols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        col += 1
    return rank


def family_independence_report(k, n):
    """Class count, distinct-function count, and exact rank for a family.

    Distinct classes can share a generating function, so independence is a
    statement about the set of distinct functions.
    """
    fam = fk_family(k, n)
    distinct = sorted({tuple(q.to_vector()) for _key, q in fam})
    rank = exact_rank(distinct)
    return {
        "degree": n,
        "k": k,
        "classes": len(fam),
        "distinct": len(distinct),
        "rank": rank,
        "dimension": 1 << max(n - 1, 0),
    }

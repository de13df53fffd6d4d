"""Run-permuting involutions on SYT, restricted/quasi/shifted dual moves,
and the column-sorting bijection between SRCT and SRT."""

from .core import (
    apply_window,
    flip,
    inverse_descent_set,
    position_array,
    reverse_word,
    run_sizes,
    window_table,
)
from .rsk import dual_move
from .tableaux import InvalidTableauError, Tableau, in_single_pistol, reading_cells


# ---------------------------------------------------------------------------
# slink and slink_star, on the reading word of an SYT of shape lam; position p
# of the word stands for the cell reading_cells("SYT", lam)[p], and the
# positions of each run are a slice of the word's position array

def slink_context(word, shape):
    """(j, i, beta) for the run surgery, or None when the word is the
    reading word of the superstandard tableau of the shape.

    beta is the descent composition of the word, j the first index whose run
    prefix fails to be superstandard, and i the lowest row whose part
    satisfies mu[i+1] <= beta[j] + i - j (1-based), with mu the shape of
    the first j runs.  The values 1..m fill a superstandard prefix exactly
    when their row indices never go down, so j is the first run whose end
    reaches the first value that drops a row.
    """
    cells, pos = reading_cells("SYT", tuple(shape)), position_array(word)
    row_of = [cells[p][0] for p in pos[1:]]  # row_of[v - 1] is the row of v
    for drop in range(1, len(row_of)):  # the value drop + 1 drops a row
        if row_of[drop] < row_of[drop - 1]:
            break
    else:
        return None
    beta = run_sizes(pos)
    cutoff = 0
    for j, part in enumerate(beta, start=1):
        cutoff += part
        if cutoff > drop:
            break
    mu = row_of[:cutoff]
    for i in range(1, j):
        if mu.count(i) <= beta[j - 1] + i - j:
            return (j, i, beta)
    raise AssertionError("no admissible row index found")  # pragma: no cover


def _exchange(cells, runs, donor, j, take):
    """Pass positions between runs donor and j (1-based) below row j so the
    donor run ends up with `take` of the pooled positions; runs lists the
    positions of each run, cells the cell of each position.

    The donor run lies entirely below row j, so the pool is all of it plus
    the positions of run j in rows below j - 1 (0-based), and run j keeps
    its positions in rows j - 1 and up.  The donor takes the `take`
    leftmost pooled cells in rows below `donor`, the lower row first within
    a column; run j gets the rest.
    """
    kept = [p for p in runs[j - 1] if cells[p][0] >= j - 1]
    pool = runs[donor - 1] + [p for p in runs[j - 1] if cells[p][0] < j - 1]
    low = sorted(
        (p for p in pool if cells[p][0] < donor),
        key=lambda p: (cells[p][1], cells[p][0]),
    )
    picked = set(low[:take])
    runs = list(runs)
    runs[donor - 1] = list(picked)
    runs[j - 1] = kept + [p for p in pool if p not in picked]
    return runs


def _run_surgery(word, shape, star):
    """slink* (star) or slink on the reading word of an SYT of the shape:
    after the run exchange of `_exchange`, each run gets the next block of
    consecutive values, in position order.  Unless the exchanged runs cover
    each position once and have the sizes of beta with `take` in the
    donor's place, InvalidTableauError names the word.  Whether the image
    is an SYT word is its caller's check."""
    ctx = slink_context(word, shape)
    if ctx is None:
        return tuple(word)
    j, i, beta = ctx
    donor, take = (i, beta[j - 1] + i - j) if star else (j - 1, beta[j - 1] - 1)
    pos, runs, low = position_array(word), [], 1
    for part in beta:
        runs.append(pos[low:low + part])
        low += part
    image_pos = [0]  # the image's position array
    for positions in _exchange(reading_cells("SYT", tuple(shape)), runs, donor, j, take):
        image_pos += sorted(positions)
    image = [0] * len(word)
    for v, p in enumerate(image_pos):
        image[p] = v
    expected = list(beta)
    expected[donor - 1] = take
    expected[j - 1] = beta[donor - 1] + beta[j - 1] - take
    expected, found = tuple(expected), run_sizes(image_pos)
    if found != expected:
        raise InvalidTableauError(
            f"run exchange on {word} of shape {tuple(shape)} gives run sizes "
            f"{found}, not {expected}"
        )
    if 0 in image:
        raise InvalidTableauError(
            f"run exchange on {word} of shape {tuple(shape)} leaves position "
            f"{image.index(0)} out of its runs"
        )
    return tuple(image)


def slink_word(word, shape):
    """slink on the reading word of an SYT of the shape: pass the lead of
    the offending run back to the previous run."""
    return _run_surgery(word, shape, star=False)


def slink_star_word(word, shape):
    """slink* on the reading word of an SYT of the shape: exchange the
    offending run with the lowest row that can absorb it."""
    return _run_surgery(word, shape, star=True)


def slink(t):
    """slink on an SYT, through its reading word; a validated tableau."""
    return t.with_word(slink_word(t.reading_word(), t.shape))


def slink_star(t):
    """slink* on an SYT, through its reading word; a validated tableau."""
    return t.with_word(slink_star_word(t.reading_word(), t.shape))


# ---------------------------------------------------------------------------
# value-window moves

# nontrivial windows of the restricted dual move, on values [i-1, i+2]
RESTRICTED_WINDOW_TEMPLATES = ("x1y4", "x14y", "x41y", "x3y4", "x34y")
RESTRICTED_WINDOW_TABLE = window_table(RESTRICTED_WINDOW_TEMPLATES)

# nontrivial windows of the shifted dual move, on values [i, i+3]
SHIFTED_WINDOW_TEMPLATES = (
    "1x2y", "x12y", "1x4y", "x14y", "4x1y", "x41y", "4x3y", "x43y",
)
SHIFTED_WINDOW_TABLE = window_table(SHIFTED_WINDOW_TEMPLATES)


def restricted_dual_move(i, word):
    """Dual move gated to the identity when i+1 stays a shared inverse
    descent; acts inside the value window [i-1, i+2]."""
    n = len(word)
    if not 2 <= i <= n - 2:
        raise ValueError(f"index {i} out of range [2, {n - 2}]")
    return apply_window(word, i - 1, i + 2, RESTRICTED_WINDOW_TABLE)


def restricted_dual_move_by_guard(i, word):
    """Oracle for restricted_dual_move via the inverse-descent guard."""
    moved = dual_move(i, word)
    if i + 1 in inverse_descent_set(word) & inverse_descent_set(moved):
        return tuple(word)
    return moved


def restricted_dual_move_tableau(i, t):
    """Restricted dual move on a tableau via its flavor's reading word."""
    return t.with_word(restricted_dual_move(i, t.reading_word()))


def shifted_dual_move(i, word):
    """Shifted dual move: an eight-pattern involution on the value window
    [i, i+3]; every nontrivial action is a dual move."""
    n = len(word)
    if n <= 3:
        if i != 1:
            raise ValueError(f"index {i} out of range for n={n}")
        return tuple(word)
    if not 1 <= i <= n - 3:
        raise ValueError(f"index {i} out of range [1, {n - 3}]")
    return apply_window(word, i, i + 3, SHIFTED_WINDOW_TABLE)


def shifted_dual_move_by_bridges(i, word):
    """Oracle for shifted_dual_move (n >= 4) via the reverse and flip
    bridges: h_i is dR_{i+1} conjugated by reversal where that moves the
    word, else dR_{n-i-1} conjugated by the flip, with dR the
    inverse-descent oracle."""
    moved = reverse_word(restricted_dual_move_by_guard(i + 1, reverse_word(word)))
    if moved != tuple(word):
        return moved
    return flip(restricted_dual_move_by_guard(len(word) - i - 1, flip(word)))


# ---------------------------------------------------------------------------
# cyclic move and the quasi-dual moves

# the rotations among the values i-1, i, i+1, renumbered 1..3
CYCLIC_WINDOW_TABLE = {
    (2, 1, 3): (1, 3, 2),
    (1, 3, 2): (2, 1, 3),
    (2, 3, 1): (3, 1, 2),
    (3, 1, 2): (2, 3, 1),
}


def cyclic_dual_move(i, word):
    """Involution cyclically permuting the values i-1, i, i+1; identity when
    i sits between its neighbors."""
    return apply_window(word, i - 1, i + 1, CYCLIC_WINDOW_TABLE)


def _first_column_guard(cells):
    """True when two of the cells of i-1, i, i+1 lie in the first column and
    the third lies in the second column."""
    return sorted(c for _, c in cells) == [0, 0, 1]


def _window_cells(flavor, i, word, shape):
    """The cells of i-1, i, i+1 in the flavor's reading word of the shape."""
    cells = reading_cells(flavor, tuple(shape))
    return [cells[word.index(v)] for v in (i - 1, i, i + 1)]


def quasi_dual_word_srct(i, word, shape):
    """Quasi-dual move on the reading word of an SRCT of the shape: cyclic
    when the cells of i-1, i, i+1 lie in one pistol, else the dual move."""
    cells = _window_cells("SRCT", i, word, shape)
    if _first_column_guard(cells):
        return tuple(word)
    if in_single_pistol(shape, cells):
        return cyclic_dual_move(i, word)
    return dual_move(i, word)


def quasi_dual_word_srt(i, word, shape):
    """Quasi-dual move on the reading word of an SRT of the shape."""
    if _first_column_guard(_window_cells("SRT", i, word, shape)):
        return tuple(word)
    return dual_move(i, word)


# ---------------------------------------------------------------------------
# column sorting bijection between SRCT and SRT

def mason_rho(word, alpha):
    """The reading word of the SRT that sorting the columns of the SRCT of
    shape alpha with this word gives.  Both flavors read column by column,
    right to left, and a column has as many cells in alpha as in sort alpha,
    so the map sorts the word's values by column and value, both decreasing."""
    columns = [c for _r, c in reading_cells("SRCT", tuple(alpha))]
    return tuple(v for _c, v in sorted(zip(columns, word), reverse=True))


def mason_rho_inverse(word, alpha):
    """The word of the SRCT of shape alpha whose sorted columns give the SRT
    with this reading word.

    Raises InvalidTableauError when the word lies outside the image of the
    column-sorting map on SRCT(alpha); membership is certified by the
    validated SRCT and the round trip.
    """
    if len(word) != sum(alpha):
        raise InvalidTableauError("shape mismatch")
    cols = [[] for _ in range(max(alpha, default=0))]
    for (_r, c), v in zip(reading_cells("SRCT", tuple(alpha)), word):
        cols[c].append(v)
    grid = [[0] * part for part in alpha]
    for r, v in enumerate(sorted(cols[0], reverse=True)):
        grid[r][0] = v
    for c in range(1, len(cols)):
        open_rows = [r for r in range(len(alpha)) if alpha[r] > c]
        for x in sorted(cols[c], reverse=True):
            fits = [r for r in open_rows if grid[r][c - 1] > x]
            if not fits:
                raise InvalidTableauError(
                    "tableau is not in the image of the column sort"
                )
            r = max(fits)
            grid[r][c] = x
            open_rows.remove(r)
    result = Tableau(grid, "SRCT").reading_word()
    if mason_rho(result, alpha) != tuple(word):
        raise InvalidTableauError("round trip failed")
    return result

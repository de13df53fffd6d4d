"""RSK correspondence, elementary dual moves, and Knuth moves."""

from bisect import bisect_right

from .core import apply_window, window_table
from .tableaux import Tableau, InvalidTableauError


def rsk(word):
    """Row-bumping insertion: word -> (insertion tableau, recording tableau).

    Insertion keeps rows and columns increasing, so both tableaux are
    standard as soon as the word's values are distinct.
    """
    if len(set(word)) != len(word):
        raise InvalidTableauError("repeated value")
    p_rows = []
    q_rows = []
    for step, value in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([value])
                q_rows.append([step])
                break
            row = p_rows[r]
            idx = bisect_right(row, value)
            if idx == len(row):
                row.append(value)
                q_rows[r].append(step)
                break
            value, row[idx] = row[idx], value
            r += 1
    return Tableau._trusted(p_rows, "SYT"), Tableau._trusted(q_rows, "SYT")


def rsk_inverse(p, q):
    """The unique word with the given insertion and recording tableaux."""
    if p.shape != q.shape:
        raise InvalidTableauError("insertion and recording shapes differ")
    return unbump(p.rows, row_sequence(q))


def row_sequence(q):
    """Rows of the steps n, n - 1, ..., 1 of a recording tableau: the
    largest entry left in Q ends its row, so inverse RSK pops that row of P."""
    steps = [0] * q.size
    for r, row in enumerate(q.rows):
        for step in row:
            steps[-step] = r
    return steps


def unbump(p_rows, steps):
    """Reverse-bump the rows of an insertion tableau along a row sequence
    of the same shape (`row_sequence`); the word that inserts to them."""
    rows = [list(row) for row in p_rows]
    word = []
    for r in steps:
        value = rows[r].pop()
        for r2 in range(r - 1, -1, -1):
            row = rows[r2]
            idx = bisect_right(row, value) - 1
            value, row[idx] = row[idx], value
        word.append(value)
    word.reverse()
    return tuple(word)


# nontrivial windows of the dual move, on values [i-1, i+1]
DUAL_WINDOW_TABLE = window_table(("x1y", "x3y"))


def dual_move(i, word):
    """Elementary dual equivalence: exchange among the values i-1, i, i+1.

    Identity when i sits between its neighbors; otherwise swaps i with
    whichever of i-1, i+1 makes the positional pattern flip.
    """
    n = len(word)
    if not 2 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [2, {n - 1}]")
    return apply_window(word, i - 1, i + 1, DUAL_WINDOW_TABLE)


def knuth_move(i, word):
    """Knuth move: rearranges the entries in positions i-1, i, i+1.

    With a, b, c the entries there, it swaps the last two when a lies
    between them (yxz <-> yzx) and the first two when c lies between them
    (xzy <-> zxy); when b lies between its neighbors it is the identity.
    """
    n = len(word)
    if not 2 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [2, {n - 1}]")
    word = tuple(word)
    a, b, c = word[i - 2:i + 1]
    if b < a < c or c < a < b:
        window = (a, c, b)
    elif a < c < b or b < c < a:
        window = (b, a, c)
    else:
        return word
    return word[:i - 2] + window + word[i + 1:]

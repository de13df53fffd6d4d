"""Partitions, compositions, permutations, and word statistics.

Words and permutations are tuples of ints in one-line notation.
Compositions and partitions are tuples of positive ints.
"""

from itertools import permutations as _itertools_permutations


# ---------------------------------------------------------------------------
# basic shape generators


def compositions(n):
    """All compositions of n, ordered lexicographically: by first part,
    then by the rest, which recursion lists in that order."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def partitions(n, max_part=None):
    """All partitions of n (weakly decreasing), largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def strict_partitions(n):
    """All strictly decreasing partitions of n, in the order of partitions(n)."""
    return [lam for lam in partitions(n) if all(a > b for a, b in zip(lam, lam[1:]))]


def sort_to_partition(alpha):
    """The partition obtained by sorting the parts of a composition."""
    return tuple(sorted(alpha, reverse=True))


def conjugate(lam):
    """The conjugate partition: the column lengths of lam."""
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0))


def all_permutations(n):
    """S_n in lexicographic order, as tuples."""
    return [tuple(p) for p in _itertools_permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# descent statistics

def inverse_descent_set(word):
    """{i : i occurs after i+1 in word}.

    Values need not be [n]; i counts when both i and i+1 are present.
    """
    pos = {val: idx for idx, val in enumerate(word)}
    return {i for i in pos if i + 1 in pos and pos[i] > pos[i + 1]}


def position_array(word):
    """pos[v] is the position of the value v in a permutation of [n], pos[0] unused."""
    pos = [0] * (len(word) + 1)
    for p, v in enumerate(word):
        pos[v] = p
    return pos


def run_sizes(pos):
    """The descent composition of the permutation with position array pos:
    a run ends at n and at each v with pos[v] > pos[v + 1]."""
    n, sizes, start = len(pos) - 1, [], 0
    for v in range(1, n + 1):
        if v == n or pos[v] > pos[v + 1]:
            sizes.append(v - start)
            start = v
    return tuple(sizes)


def descent_composition(word):
    """Gap encoding of the inverse descent set of a permutation of [n]."""
    return run_sizes(position_array(word))


def subset_to_composition(subset, n):
    """Composition of n whose partial sums are the given subset of [n-1]."""
    marks = sorted(set(subset) | {n})
    prev = 0
    parts = []
    for m in marks:
        parts.append(m - prev)
        prev = m
    return tuple(parts)


def composition_to_subset(alpha):
    """Partial sums of alpha, omitting the final total."""
    out = set()
    total = 0
    for part in alpha[:-1]:
        total += part
        out.add(total)
    return out


# ---------------------------------------------------------------------------
# word surgeries

def reverse_word(word):
    return tuple(reversed(word))


def flip(word):
    """Reverse, then send each value i to n+1-i."""
    n = len(word)
    return tuple(n + 1 - v for v in reversed(word))


# ---------------------------------------------------------------------------
# value-window pattern tables
#
# A dual-type move permutes the values low..high of a word among their own
# positions.  Its table maps the window (those values in place order,
# renumbered to 1..k) to the new window; windows not in the table are fixed.

def window_table(templates):
    """Table of a move that swaps x and y in each template.

    A template spells a window of k = len(template) values with digits for
    the fixed values and the letters x, y for the two missing ones; both
    ways of filling in x and y are entered.
    """
    table = {}
    for template in templates:
        fixed = {int(ch) for ch in template if ch.isdigit()}
        a, b = sorted(set(range(1, len(template) + 1)) - fixed)
        for x, y in ((a, b), (b, a)):
            subst = {"x": x, "y": y}
            window = tuple(subst.get(ch) or int(ch) for ch in template)
            table[window] = tuple(y if v == x else x if v == y else v for v in window)
    return table


def apply_window(word, low, high, table):
    """Apply a pattern table to the values low..high of a word.

    One scan of the word reads the window (those values in place order,
    renumbered) and their positions; an image window is written back at
    the same positions.  Raises ValueError when one of those values is
    missing.
    """
    shift = low - 1
    positions = []
    window = []
    for p, v in enumerate(word):
        if low <= v <= high:
            positions.append(p)
            window.append(v - shift)
    new_window = table.get(tuple(window))
    if new_window is None:
        if len(set(window)) != high - shift:
            raise ValueError(f"values [{low}, {high}] not all present")
        return tuple(word)
    out = list(word)
    for p, v in zip(positions, new_window):
        out[p] = v + shift
    return tuple(out)


# ---------------------------------------------------------------------------
# slinky straightening of composition Schur symbols
#
# A straightened symbol is None (zero) or a (sign, partition) pair.

def slinky(alpha):
    """Straighten a composition Schur symbol to 0 or +/- a partition.

    Closed form: with v_i = alpha_i - i, the symbol is zero when v has a
    repeat; otherwise the sign is the parity of the permutation sorting v
    and the partition is sorted-descending v with i added back.
    """
    if not alpha:
        return (1, ())
    v = [a - i for i, a in enumerate(alpha, start=1)]
    if len(set(v)) < len(v):
        return None
    inversions = sum(
        1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] < v[j]
    )
    sign = -1 if inversions % 2 else 1
    lam = tuple(val + i for i, val in enumerate(sorted(v, reverse=True), start=1))
    return (sign, lam)


# ---------------------------------------------------------------------------
# serialization

# maps each byte v of a word to the digit of v for v in 0..9, else to NUL
_DIGIT_TABLE = bytes(range(48, 58)) + bytes(246)


def word_to_str(word):
    """Digit string for n <= 9, comma-separated otherwise.

    A word of at most nine values in 0..9 is translated as bytes in one
    step; any other short word (a value above 9 or below 0, or the empty
    word) joins its values' decimal strings.
    """
    if len(word) <= 9:
        try:
            digits = bytes(word).translate(_DIGIT_TABLE)
        except ValueError:  # a value outside 0..255
            digits = b""
        if digits.isdigit():
            return digits.decode()
        return "".join(map(str, word))
    return ",".join(map(str, word))


def word_from_str(text):
    text = text.strip()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)


def parts_to_str(parts):
    return ",".join(str(p) for p in parts)


def parts_from_str(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))

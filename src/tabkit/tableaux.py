"""Tableau families: SYT, SRT, SRCT, and shifted SST.

Rows are stored bottom-to-top in French notation: rows[0] is the bottom
row.  Cells are addressed (row, col), 0-based; for shifted tableaux row r
is indented r cells, so the absolute column of (r, c) is r + c.

The engine holds each filling as its reading word (`enumerate_words`);
`Tableau`, validated on construction, is the library boundary.
"""

from functools import lru_cache

from .core import inverse_descent_set, descent_composition

FLAVORS = ("SYT", "SRT", "SRCT", "SST")


@lru_cache(maxsize=None)
def reading_cells(flavor, shape):
    """Cell order of the flavor's reading word on a diagram of the shape:
    rows top to bottom for SYT and SST; each column read upward, columns
    right to left, for SRT; for SRCT each column but the first read
    downward, right to left, then the first column upward."""
    rows = range(len(shape))
    if flavor in ("SYT", "SST"):
        return tuple((r, c) for r in reversed(rows) for c in range(shape[r]))
    columns = range(max(shape, default=0) - 1, -1, -1)
    if flavor == "SRT":
        return tuple((r, c) for c in columns for r in rows if c < shape[r])
    return tuple(
        (r, c) for c in columns[:-1] for r in reversed(rows) if c < shape[r]
    ) + tuple((r, 0) for r in rows)


class InvalidTableauError(ValueError):
    pass


class Tableau:
    """An immutable filling of a diagram with distinct positive integers."""

    __slots__ = ("rows", "flavor", "shape", "_hash", "_word")

    def __init__(self, rows, flavor):
        self._assign(rows, flavor)
        problem = self._validate()
        if problem:
            raise InvalidTableauError(problem)

    @classmethod
    def _trusted(cls, rows, flavor, word=None):
        """A tableau whose rows, and word if given, are valid by construction."""
        t = cls.__new__(cls)
        t._assign(rows, flavor, word)
        return t

    def _assign(self, rows, flavor, word=None):
        self.rows = tuple(map(tuple, rows))
        self.flavor = flavor
        self.shape = tuple(map(len, self.rows))
        self._hash = None
        self._word = word

    # -- basic structure ---------------------------------------------------

    @property
    def size(self):
        return sum(len(row) for row in self.rows)

    def offset(self, r):
        return r if self.flavor == "SST" else 0

    def values(self):
        return [v for row in self.rows for v in row]

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.flavor == other.flavor
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.flavor, self.rows))
        return self._hash

    def __repr__(self):
        return f"Tableau({self.rows!r}, {self.flavor!r})"

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.flavor not in FLAVORS:
            return f"unknown flavor {self.flavor!r}"
        vals = self.values()
        if len(set(vals)) != len(vals):
            return "repeated value"
        if any(len(row) == 0 for row in self.rows):
            return "empty row"
        if self.flavor == "SRCT":
            return self._check_srct()
        return self._check_monotone(self.flavor != "SRT", int(self.flavor == "SST"))

    def _check_monotone(self, increasing, shift):
        """Rows and columns strictly increasing (or decreasing) and the shape
        a partition.  With shift 1 row r is indented r cells, so the cell
        below (r, c) is (r - 1, c + 1) and the shape must be strict."""
        shape = self.shape
        if any(a < b + shift for a, b in zip(shape, shape[1:])):
            return "shape is not a strict partition" if shift else "shape is not a partition"
        sign = 1 if increasing else -1
        order = "increasing" if increasing else "decreasing"
        for row in self.rows:
            if any(sign * a >= sign * b for a, b in zip(row, row[1:])):
                return f"row not {order}"
        for below, above in zip(self.rows, self.rows[1:]):
            if any(sign * below[c + shift] >= sign * v for c, v in enumerate(above)):
                return f"column not {order}"
        return None

    def _check_srct(self):
        for row in self.rows:
            if any(a <= b for a, b in zip(row, row[1:])):
                return "row not decreasing"
        col0 = [row[0] for row in self.rows]
        if any(a <= b for a, b in zip(col0, col0[1:])):
            return "first column not increasing downward"
        # triple rule: for a at (r, c) with right neighbor b (0 if absent),
        # no value in (b, a) may sit below b's cell in its column
        for r, row in enumerate(self.rows):
            for c, a in enumerate(row):
                b = row[c + 1] if c + 1 < len(row) else 0
                for r2 in range(r):
                    if c + 1 < len(self.rows[r2]):
                        v = self.rows[r2][c + 1]
                        if b < v < a:
                            return "triple rule violated"
        return None

    # -- reading words -----------------------------------------------------

    def reading_word(self):
        if self._word is None:
            cells = reading_cells(self.flavor, self.shape)
            self._word = tuple(self.rows[r][c] for r, c in cells)
        return self._word

    def with_word(self, word):
        """Refill the same cells, in reading order, with a new word; self
        when the word is its own reading word, else a validated tableau."""
        word = tuple(word)
        if word == self.reading_word():
            return self
        if len(word) != self.size:
            raise InvalidTableauError("word length does not match shape")
        t = Tableau(rows_of(word, self.flavor, self.shape), self.flavor)
        t._word = word
        return t

    # -- descent statistics ------------------------------------------------

    def inverse_descent_set(self):
        return inverse_descent_set(self.reading_word())

    def descent_composition(self):
        return descent_composition(self.reading_word())

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "flavor": self.flavor,
            "shape": list(self.shape),
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["rows"], data["flavor"])

    def render(self):
        """French layout, top row first."""
        width = max(len(str(v)) for v in self.values())
        lines = []
        for r in range(len(self.rows) - 1, -1, -1):
            pad = "." * width + " "
            cells = " ".join(str(v).rjust(width) for v in self.rows[r])
            lines.append(pad * self.offset(r) + cells)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction helpers

def superstandard(lam):
    """Rows filled 1..n in order, bottom row first."""
    rows = []
    nxt = 1
    for part in lam:
        rows.append(tuple(range(nxt, nxt + part)))
        nxt += part
    return Tableau(rows, "SYT")


def restrict_to(t, cutoff):
    """Restriction of an SYT to values <= cutoff."""
    rows = []
    for row in t.rows:
        kept = tuple(v for v in row if v <= cutoff)
        if kept:
            rows.append(kept)
    return Tableau(rows, "SYT")


# ---------------------------------------------------------------------------
# pistols

def in_single_pistol(shape, cells):
    """True when some pistol of the diagram contains every given cell: the
    cells lie in the diagram, and in one column or in adjacent columns
    c - 1, c with no cell of column c above a cell of column c - 1 (then
    the pistol of the highest cell in column c holds them all)."""
    if not all(0 <= r < len(shape) and 0 <= c < shape[r] for r, c in cells):
        return False
    cols = sorted({c for _, c in cells})
    if len(cols) < 2:
        return True
    left, right = cols[0], cols[-1]
    return (
        right == left + 1
        and max(r for r, c in cells if c == right)
        <= min(r for r, c in cells if c == left)
    )


# ---------------------------------------------------------------------------
# enumeration

def _checked(shape, flavor):
    """The shape without its zero parts, once it fits the flavor."""
    shape = tuple(shape)
    if flavor not in FLAVORS:
        raise InvalidTableauError(f"unknown flavor {flavor!r}")
    if flavor == "SRCT" and not all(part >= 1 for part in shape):
        raise InvalidTableauError(f"{shape} is not a composition")
    if flavor == "SST" and not all(a > b for a, b in zip(shape, shape[1:])):
        raise InvalidTableauError(f"{shape} is not a strict partition")
    if flavor != "SRCT" and any(a < b for a, b in zip(shape, shape[1:])):
        raise InvalidTableauError(f"{shape} is not a partition")
    return tuple(part for part in shape if part)


def enumerate_words(shape, flavor):
    """The reading words of all standard fillings of the shape with the
    flavor's constraints, sorted, as a tuple; a partition's zero parts are
    dropped.  Built once per (shape, flavor) per process (`_words`); a
    rejected shape is never cached."""
    return _words(_checked(shape, flavor), flavor)


def enumerate_tableaux(shape, flavor):
    """The tableaux of `enumerate_words`, in its order.  Each call returns a
    fresh list of the same tableaux, built once per (shape, flavor) per
    process (`_enumerated`)."""
    return list(_enumerated(_checked(shape, flavor), flavor))


@lru_cache(maxsize=None)
def _enumerated(shape, flavor):
    """The tableau of each word of `_words(shape, flavor)`."""
    return tuple(
        Tableau._trusted(rows_of(word, flavor, shape), flavor, word)
        for word in _words(shape, flavor)
    )


def rows_of(word, flavor, shape):
    """The rows, bottom row first, of the flavor's filling of the shape (no
    zero part) with this reading word."""
    grid = [[0] * part for part in shape]
    for (r, c), v in zip(reading_cells(flavor, shape), word):
        grid[r][c] = v
    return grid


@lru_cache(maxsize=None)
def _words(shape, flavor):
    """The words of `enumerate_words` for a checked shape: of `_fillings` for
    SRCT and SST, `syt_record` for SYT, and the complemented SYT for SRT."""
    if flavor in ("SRCT", "SST"):
        return tuple(sorted(_fillings(shape, flavor)))
    words = syt_record(shape)[0]
    if flavor == "SYT":
        return words
    at = {cell: p for p, cell in enumerate(reading_cells("SYT", shape))}
    order, top = [at[cell] for cell in reading_cells("SRT", shape)], sum(shape) + 1
    return tuple(sorted(tuple(top - w[p] for p in order) for w in words))


@lru_cache(maxsize=None)
def syt_record(shape):
    """(words, corners) for SYT(shape), a partition with no zero part, built
    once per shape per process from the records of its sub-shapes.  words
    holds the reading words in sorted order.  n sits in a corner, so each
    word is a word of SYT(shape less that corner) with n inserted at the
    corner's reading position; corners holds (sub-shape, child) for each
    corner, top row first, child[k] the index in words of the k-th word of
    the sub-shape with n so inserted."""
    if not shape:
        return ((),), ()
    n, made, above = sum(shape), [], 0  # above: cells in the rows above row r
    for r in range(len(shape) - 1, -1, -1):
        part = shape[r]
        if r + 1 == len(shape) or part > shape[r + 1]:
            p = above + part - 1
            sub = shape[:r] + (part - 1,) + shape[r + 1:] if part > 1 else shape[:r]
            made.append((sub, [w[:p] + (n,) + w[p:] for w in syt_record(sub)[0]]))
        above += part
    words = sorted(w for _sub, grown in made for w in grown)
    index = {w: k for k, w in enumerate(words)}
    corners = tuple((sub, tuple(map(index.__getitem__, grown))) for sub, grown in made)
    return tuple(words), corners


def _fillings(shape, flavor):
    """Backtracking fill with 1..n in order: each value takes the next open
    cell of a row the flavor admits.  SYT and SST rows fill left to right,
    a row above the bottom only while the row below holds more filled cells
    (two more for SST, whose row r is indented r cells), so rows and
    columns increase.  SRCT rows fill right to left, a row's first cell
    only once the row above is full, so rows decrease and the first column
    increases downward.  The triple rule for a value involves only smaller
    values, so it is checked as the value is placed, pruning the branch,
    and each completed filling is valid as it stands: its word is kept."""
    n, k, cells = sum(shape), len(shape), reading_cells(flavor, shape)
    srct = flavor == "SRCT"
    gap = int(flavor == "SST")
    grid = [[0] * part for part in shape]
    filled = [0] * k  # cells filled so far in each row
    out = []

    def place(v):
        if v > n:
            out.append(tuple(grid[r][c] for r, c in cells))
            return
        for r in range(k):
            c = filled[r]
            if c >= shape[r]:
                continue
            if srct:
                c = shape[r] - 1 - c
                if c == 0 and r + 1 < k and filled[r + 1] < shape[r + 1]:
                    continue
                # triple rule for v at (r, c): every value below in column
                # c + 1 that is filled is smaller than v, so none may exceed
                # v's right neighbour b (0 when there is none)
                b = grid[r][c + 1] if c + 1 < shape[r] else 0
                if any(c + 1 < shape[r2] and grid[r2][c + 1] > b for r2 in range(r)):
                    continue
            elif r and filled[r - 1] <= c + gap:
                continue
            grid[r][c] = v
            filled[r] += 1
            place(v + 1)
            filled[r] -= 1
            grid[r][c] = 0

    place(1)
    return out

"""Closure engine for the generated equivalence relations.

Carrier elements are either Tableau objects or words (tuples).  The
canonical key of a tableau is its reading word; of a word, itself.
Classes are always listed with members sorted by key and classes sorted
by least member.

`MOVES` gives each of the ten relations its carrier and one move on reading
words, and `moves_for(relation, shape)` binds that move to each index and a
shape; it is the one builder of indexed moves.  The classes of SYT, SRCT
and the SRT image close plain reading words, one shape at a time
(`_tableau_classes`); the classes of S_n and the DOT export use the same
word moves.  A move checks its own rules (the slink run sizes, a window's
values); `move_tables` checks that each image is a carrier element.
"""

import json

from .core import flip, partitions, reverse_word, word_to_str
from .rsk import dual_move, knuth_move, row_sequence, rsk, unbump
from .operators import (
    mason_rho,
    quasi_dual_word_srct,
    quasi_dual_word_srt,
    restricted_dual_move,
    shifted_dual_move,
    slink_star_word,
    slink_word,
)
from .tableaux import Tableau, enumerate_tableaux


def key_of(element):
    if isinstance(element, Tableau):
        return element.reading_word()
    if isinstance(element, tuple):
        return element
    return tuple(element)


class EquivClass:
    """A move-closed, connected set of carrier elements."""

    __slots__ = ("relation", "members")

    def __init__(self, relation, members):
        self.relation = relation
        self.members = tuple(sorted(members, key=key_of))

    @property
    def key(self):
        return key_of(self.members[0])

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, element):
        return element in self.members

    def __eq__(self, other):
        return (
            isinstance(other, EquivClass)
            and self.relation == other.relation
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.relation, self.members))

    def __repr__(self):
        return f"EquivClass({self.relation!r}, {len(self.members)} members)"


# ---------------------------------------------------------------------------
# move families

def _indices(span, n):
    """low .. n - top for the span (low, top) of a window move on words of
    length n; the one index 0 of a slink move, whose span is None."""
    return (0,) if span is None else range(span[0], n - span[1] + 1)


# Each relation, in the order the CLI lists them: its carrier (SYT(n), S_n,
# SRCT(alpha) or the SRT image of SRCT(alpha)), generator name, index span
# and move(i, word, shape) on the reading word of a carrier element; only
# the slink and quasi-dual moves read the shape.  Each nontrivial action of a
# move on SYT or S_n is a dual move d_k, which fixes a word's recording
# tableau Q and keeps SYT reading words of a shape among themselves.  A move
# looks its operator up by name when called, so a patched one runs.
MOVES = {
    "equiv0": ("SYT", "slink*", None, lambda i, w, s: slink_star_word(w, s)),
    "equiv1": ("SYT", "slink", None, lambda i, w, s: slink_word(w, s)),
    "equiv2": ("SYT", "dR", (2, 2), lambda i, w, s: restricted_dual_move(i, w)),
    "dual": ("SYT", "d", (2, 1), lambda i, w, s: dual_move(i, w)),
    "quasiDualSRCT": ("SRCT", "DQ", (2, 1), lambda i, w, s: quasi_dual_word_srct(i, w, s)),
    "quasiDualSRT": ("SRT", "dQ", (2, 1), lambda i, w, s: quasi_dual_word_srt(i, w, s)),
    "quasiDualSRT-restricted": ("SRT", "dR", (2, 2), lambda i, w, s: restricted_dual_move(i, w)),
    "shifted": ("S_n", "h", (1, 3), lambda i, w, s: shifted_dual_move(i, w)),
    "equiv2rev": (
        "S_n", "dR.rev", (2, 2),
        lambda i, w, s: reverse_word(restricted_dual_move(i, reverse_word(w))),
    ),
    "equiv2flip": (
        "S_n", "dR.flip", (2, 2), lambda i, w, s: flip(restricted_dual_move(i, flip(w))),
    ),
}
CARRIERS = {relation: entry[0] for relation, entry in MOVES.items()}
RELATIONS = tuple(MOVES)
# the relations on S_n and those on SYT(n), whose word classes are tableau
# classes carried across a fixed recording tableau; the shape-free ones
# among them close a single word under involutions
WORD_RELATIONS = tuple(r for r in RELATIONS if CARRIERS[r] in ("SYT", "S_n"))
SHAPE_FREE = tuple(r for r in WORD_RELATIONS if MOVES[r][2] is not None)


def moves_for(relation, shape):
    """The indexed moves of a relation on the reading words of its carrier
    elements of the shape, each move bound to its index and the shape; a
    shape-free relation's moves on words of length n take the shape (n,),
    which they do not read."""
    if relation not in MOVES:
        raise ValueError(f"unknown relation {relation!r}")
    _carrier, name, span, move = MOVES[relation]
    return [(name, i, lambda w, i=i: move(i, w, shape)) for i in _indices(span, sum(shape))]


# ---------------------------------------------------------------------------
# closure

class CarrierError(ValueError):
    """A move produced an element outside the declared carrier."""


def _search(seed, moves):
    """Breadth-first search from seed: each element reached, in the order
    reached, mapped to (parent, generator name, index) of the move that
    first reached it, and the seed to None."""
    reached = {seed: None}
    order = [seed]
    for element in order:
        for name, idx, move in moves:
            image = move(element)
            if image not in reached:
                reached[image] = (element, name, idx)
                order.append(image)
    return reached


def closure(seed, moves, relation):
    """Minimal move-closed superset of {seed}, as a class of the relation.

    With involutive moves a plain breadth-first search suffices; the
    non-involutive slink needs the components that all_classes finds, and
    `syt_classes` finds them on reading words.
    """
    return EquivClass(relation, list(_search(seed, moves)))


def move_tables(elements, moves):
    """The table of each indexed move (name, i, move) on the elements: the
    position in `elements` of each element's image.  The one carrier check:
    an image outside the elements raises CarrierError naming the first
    element, in element order, that a move takes outside, and the first
    such move."""
    index = {e: k for k, e in enumerate(elements)}
    tables = [[index.get(move(e)) for e in elements] for _name, _i, move in moves]
    escapes = [(table.index(None), m) for m, table in enumerate(tables) if None in table]
    if escapes:
        k, m = min(escapes)
        name, i, _move = moves[m]
        raise CarrierError(f"move {name}_{i} left the carrier at {key_of(elements[k])}")
    return tables


def all_classes(universe, moves, relation):
    """Partition of the universe into move-connected components."""
    elements = list(universe)
    parent = list(range(len(elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for table in move_tables(elements, moves):
        for a, b in enumerate(table):
            parent[find(a)] = find(b)

    groups = {}
    for i, element in enumerate(elements):
        groups.setdefault(find(i), []).append(element)
    classes = [EquivClass(relation, members) for members in groups.values()]
    return sorted(classes, key=lambda cls: cls.key)


def _straddling(fine, coarse):
    """The least key of each fine class that no single coarse class
    contains, in the order of `fine`."""
    lookup = {m: index for index, cls in enumerate(coarse) for m in cls.members}
    for cls in fine:
        targets = {lookup.get(m) for m in cls.members}
        if len(targets) != 1 or None in targets:
            yield cls.key


# ---------------------------------------------------------------------------
# standard carriers

def _tableau_classes(tableaux, shape, relation):
    """Classes of tableaux of one shape under a relation.

    The reading words of the tableaux are closed under the relation's moves
    on words (`moves_for`), and each word is mapped back to its tableau;
    no Tableau is built per image.  A reading word fixes the filling of its
    shape, so the carrier check of `move_tables` (CarrierError) is the check
    that an image is a carrier element; the slink moves check their run
    sizes themselves (InvalidTableauError).
    """
    by_word = {t.reading_word(): t for t in tableaux}
    return [
        EquivClass(relation, [by_word[w] for w in cls.members])
        for cls in all_classes(by_word, moves_for(relation, shape), relation)
    ]


def syt_classes(shape_or_n, relation):
    """Classes of SYT under one of the seven SYT relations, one SYT(shape)
    at a time."""
    shapes = partitions(shape_or_n) if isinstance(shape_or_n, int) else [tuple(shape_or_n)]
    classes = [
        cls
        for lam in shapes
        for cls in _tableau_classes(enumerate_tableaux(lam, "SYT"), lam, relation)
    ]
    return sorted(classes, key=lambda cls: cls.key)


def _dual_move_tree(tableaux):
    """Breadth-first spanning tree of SYT(lam) under the dual moves d_j.

    Takes the tableaux of SYT(lam) as `enumerate_tableaux` lists them, the
    root first, and returns the edges (child, parent, j) as indices into
    them, with child = d_j(parent) and each parent the root or an earlier
    child.  `move_tables` names a d_j image that is no SYT(lam), and a
    tableau the tree does not reach raises CarrierError.
    """
    lam = tableaux[0].shape
    words = [t.reading_word() for t in tableaux]
    moves = moves_for("dual", lam)
    tables = zip(moves, move_tables(words, moves))
    reached = _search(0, [(name, j, table.__getitem__) for (name, j, _), table in tables])
    if len(reached) < len(tableaux):
        missed = min(w for k, w in enumerate(words) if k not in reached)
        raise CarrierError(
            f"moves d_2..d_{sum(lam) - 1} on SYT{lam} do not reach {missed}"
            f" from {words[0]}"
        )
    return [(child, parent, j) for child, (parent, _name, j) in list(reached.items())[1:]]


def perm_classes(n, relation):
    """Classes of S_n under a word relation.

    Each relation's moves fix a word's recording tableau Q and move its
    insertion tableau P through P alone (Haiman's dual equivalence for the
    tableau relations), so a class is a class of SYT(shape) carried across
    each Q of that shape.  The carrying rests on Haiman's theorem: the Knuth
    move K_j fixes P and acts on Q as the dual move d_j.  So one reverse
    bump per P, against the root of a d_j spanning tree of SYT(shape), gives
    the word with that root as Q, and K_j along each tree edge gives the
    others.  Each SYT(shape) is enumerated once, for the tree and the
    classes.
    """
    classes = []
    for lam in partitions(n):
        tableaux = enumerate_tableaux(lam, "SYT")
        edges = _dual_move_tree(tableaux)
        root_steps = row_sequence(tableaux[0])
        for cls in _tableau_classes(tableaux, lam, relation):
            carried = []
            for p in cls.members:
                words = [None] * len(tableaux)
                words[0] = unbump(p.rows, root_steps)
                for child, parent, j in edges:
                    words[child] = knuth_move(j, words[parent])
                carried.append(words)
            # one class per Q: the words of the members of cls with that Q
            classes.extend(EquivClass(relation, column) for column in zip(*carried))
    return sorted(classes, key=lambda cls: cls.key)


def perm_class(word, relation):
    """The class of one permutation under a word-level relation.

    The word-move relations' moves are involutions on words, so a
    breadth-first closure from the word finds the class.  slink is not an
    involution, so for the slink relations it is the class of the insertion
    tableau P among the classes of SYT(shape of P) that `syt_classes`
    closes on reading words, carried across the word's one recording
    tableau Q by inverse RSK, with Q's row sequence read once.  Neither
    partitions S_n.
    """
    word = tuple(word)
    if relation in SHAPE_FREE:
        return closure(word, moves_for(relation, (len(word),)), relation)
    p, q = rsk(word)
    cls = next(c for c in syt_classes(p.shape, relation) if p in c)
    steps = row_sequence(q)
    return EquivClass(relation, [unbump(m.rows, steps) for m in cls.members])


def srct_classes(alpha):
    """Classes of SRCT(alpha) under the quasi-dual move."""
    return _tableau_classes(enumerate_tableaux(alpha, "SRCT"), alpha, "quasiDualSRCT")


def srt_image_classes(alpha, relation):
    """Classes of the SRT image of SRCT(alpha) under an SRT relation."""
    image = [mason_rho(t) for t in enumerate_tableaux(alpha, "SRCT")]
    return _tableau_classes(image, tuple(sorted(alpha, reverse=True)), relation)


def classes_for_cli(relation, n=None, alpha=None):
    """Carrier selection used by the command line front end: the
    quasi-dual relations take a composition alpha, the others a degree n."""
    carrier = CARRIERS[relation]
    if carrier in ("SYT", "S_n"):
        if n is None or alpha is not None:
            raise ValueError(f"relation {relation} needs --n")
        return (syt_classes if carrier == "SYT" else perm_classes)(n, relation)
    if alpha is None:
        raise ValueError(f"relation {relation} needs --alpha")
    if carrier == "SRCT":
        return srct_classes(alpha)
    return srt_image_classes(alpha, relation)


# ---------------------------------------------------------------------------
# export

def member_strings(cls):
    """The digit string of each member's key, in member order."""
    return [word_to_str(key_of(m)) for m in cls.members]


def classes_json_text(classes):
    """The classes as a JSON list, one object per class with the keys
    relation, size and members (the member strings), indented by two spaces
    and with no trailing newline: the text of `json.dumps(..., indent=2)`
    on that list, built by joining strings.  Each class has a member, and a
    member string holds only digits and commas, so it is quoted as it is."""
    if not classes:
        return "[]"
    relation_json = {}
    objects = []
    for cls in classes:
        if cls.relation not in relation_json:
            relation_json[cls.relation] = json.dumps(cls.relation)
        members = '",\n      "'.join(member_strings(cls))
        objects.append(
            f'  {{\n    "relation": {relation_json[cls.relation]},\n'
            f'    "size": {len(cls.members)},\n'
            f'    "members": [\n      "{members}"\n    ]\n  }}'
        )
    return "[\n" + ",\n".join(objects) + "\n]"


def classes_to_dot(classes, relation):
    """DOT graph: vertices labeled by reading word, edges by generator.

    The relation's moves act on each member's key, bound to its class's
    shape: a tableau's own, (n,) for a word of length n.  The classes are
    closed already, under the carrier check, so each image is a member."""
    lines = ["graph classes {"]
    for cls in classes:
        for member in cls.members:
            lines.append(f'  "{word_to_str(key_of(member))}";')
    emitted = set()
    for cls in classes:
        first = cls.members[0]
        shape = first.shape if isinstance(first, Tableau) else (len(first),)
        moves = moves_for(relation, shape)
        for member in cls.members:
            a = key_of(member)
            for gen_name, idx, move in moves:
                b = move(a)
                if a == b:
                    continue
                edge = (min(a, b), max(a, b), gen_name, idx)
                if edge in emitted:
                    continue
                emitted.add(edge)
                lines.append(
                    f'  "{word_to_str(edge[0])}" -- "{word_to_str(edge[1])}"'
                    f' [label="{gen_name}_{idx}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"

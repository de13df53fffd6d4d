"""Closure engine for the generated equivalence relations.

Carrier elements are either Tableau objects or words (tuples).  The
canonical key of a tableau is its reading word; of a word, itself.
Classes are always listed with members sorted by key and classes sorted
by least member.

`MOVES` gives each of the ten relations its carrier and its move on reading
words: the value window and pattern table of the six window relations, or a
move(i, word, shape); `moves_for(relation, shape)`, the one builder of each
relation's indexed moves, binds it to each index and a shape.  `move_tables`
moves each element's key, so the classes of SYT, SRCT and the SRT image
close the enumerated tableaux, one shape at a time; each class keeps its
carrier's move tables, read by the DOT export.  `closure` closes one word
under moves on words, and S_n carries the SYT classes across Q along the
Knuth class of one word.  A move checks its own rules (slink run sizes,
window values); `move_tables` and the word search of `closure` its carrier.
"""

import json

from .core import apply_window, flip, partitions, reverse_word, sort_to_partition, word_to_str
from .rsk import DUAL_WINDOW_TABLE, knuth_move, row_sequence, rsk, unbump
from .operators import (
    RESTRICTED_WINDOW_TABLE,
    SHIFTED_WINDOW_TABLE,
    mason_rho,
    quasi_dual_word_srct,
    quasi_dual_word_srt,
    slink_star_word,
    slink_word,
)
from .tableaux import Tableau, enumerate_tableaux


def key_of(element):
    if isinstance(element, Tableau):
        return element.reading_word()
    return element if isinstance(element, tuple) else tuple(element)


class EquivClass:
    """A move-closed, connected set of carrier elements (tableaux or words).

    `graph` is None, or (tables, indices) with `order` the tuple of the
    members in the order given:
    the (name, i, table) list of `move_tables` on the carrier, shared by its
    classes, and the carrier index of each member in `order`.  Equality
    ignores both."""

    __slots__ = ("relation", "members", "order", "graph")

    def __init__(self, relation, members, graph=None):
        given = tuple(members)
        tableaux = bool(given) and isinstance(given[0], Tableau)
        self.relation = relation
        self.members = tuple(sorted(given, key=key_of if tableaux else None))
        self.order = None if graph is None else given
        self.graph = graph

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


def _restricted_window(i, n):
    """The values i-1 .. i+2 that dR_i permutes."""
    return i - 1, i + 2


# Each relation, in the order the CLI lists them: its carrier (SYT(n), S_n,
# SRCT(alpha) or the SRT image of SRCT(alpha)), generator name, index span
# and move on the reading word of a carrier element.  A window relation's
# move is (window, table, outer): its move at index i on words of length n
# applies the table to the values window(i, n); with outer (reversal or the
# flip) set, it is outer∘dR_i∘outer, whose table is the table conjugated by
# outer, on the values that outer sends to the window of dR_i.  The slink
# and quasi-dual moves are move(i, word, shape), and only they read the
# shape.  Each nontrivial action of a move on SYT or S_n is a dual move d_k,
# which fixes a word's recording tableau Q and keeps SYT reading words of a
# shape among themselves.  A move(i, word, shape) looks its operator up by
# name when called, and a window move `apply_window`, so a patched one runs;
# a window table is read when `moves_for` binds it.
MOVES = {
    "equiv0": ("SYT", "slink*", None, lambda i, w, s: slink_star_word(w, s)),
    "equiv1": ("SYT", "slink", None, lambda i, w, s: slink_word(w, s)),
    "equiv2": ("SYT", "dR", (2, 2), (_restricted_window, RESTRICTED_WINDOW_TABLE, None)),
    "dual": ("SYT", "d", (2, 1), (lambda i, n: (i - 1, i + 1), DUAL_WINDOW_TABLE, None)),
    "quasiDualSRCT": ("SRCT", "DQ", (2, 1), lambda i, w, s: quasi_dual_word_srct(i, w, s)),
    "quasiDualSRT": ("SRT", "dQ", (2, 1), lambda i, w, s: quasi_dual_word_srt(i, w, s)),
    "quasiDualSRT-restricted": (
        "SRT", "dR", (2, 2), (_restricted_window, RESTRICTED_WINDOW_TABLE, None),
    ),
    "shifted": ("S_n", "h", (1, 3), (lambda i, n: (i, i + 3), SHIFTED_WINDOW_TABLE, None)),
    "equiv2rev": (
        "S_n", "dR.rev", (2, 2), (_restricted_window, RESTRICTED_WINDOW_TABLE, reverse_word),
    ),
    "equiv2flip": (
        "S_n", "dR.flip", (2, 2),
        (lambda i, n: (n - i - 1, n - i + 2), RESTRICTED_WINDOW_TABLE, flip),
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
    n = sum(shape)
    if callable(move):
        return [(name, i, lambda w, i=i: move(i, w, shape)) for i in _indices(span, n)]
    window, table, outer = move
    if outer is not None:
        table = {outer(k): outer(v) for k, v in table.items()}
    return [
        (name, i, lambda w, low=low, high=high: apply_window(w, low, high, table))
        for i in _indices(span, n)
        for low, high in [window(i, n)]
    ]


# ---------------------------------------------------------------------------
# closure

class CarrierError(ValueError):
    """A move produced an element outside the declared carrier."""


def _left_carrier(name, i, element):
    """The CarrierError of the move name_i taking the element outside."""
    return CarrierError(f"move {name}_{i} left the carrier at {key_of(element)}")


def _search(seed, moves):
    """Breadth-first search from the word seed: each word reached, in the
    order reached, mapped to (parent, generator name, index) of the move
    that first reached it, and the seed to None.  A newly reached word that
    does not rearrange the seed (a word outside S_n, for a seed in S_n)
    raises CarrierError naming the move and the word it moved."""
    letters = sorted(seed)
    reached = {seed: None}
    order = [seed]
    for word in order:
        for name, idx, move in moves:
            image = move(word)
            if image not in reached:
                if sorted(image) != letters:
                    raise _left_carrier(name, idx, word)
                reached[image] = (word, name, idx)
                order.append(image)
    return reached


def closure(seed, moves, relation):
    """Minimal move-closed set of words holding the word seed, as a class of
    the relation, by breadth-first search (enough for involutive moves, not
    for slink).  Each word reached must rearrange the seed (`_search`)."""
    return EquivClass(relation, list(_search(tuple(seed), moves)))


def move_tables(elements, moves):
    """(name, i, table) for each indexed move (name, i, move) on the
    elements, the table holding the position in `elements` of each
    element's image, each move acting on keys (`key_of`).  An image outside
    the keys raises CarrierError naming the first element, in element
    order, that a move takes outside, and the first such move."""
    keys = [key_of(e) for e in elements]
    index = {w: k for k, w in enumerate(keys)}
    tables = [(name, i, [index.get(move(w)) for w in keys]) for name, i, move in moves]
    escapes = [(t.index(None), name, i) for name, i, t in tables if None in t]
    if escapes:
        k, name, i = min(escapes, key=lambda escape: escape[0])
        raise _left_carrier(name, i, elements[k])
    return tables


def all_classes(universe, moves, relation):
    """Partition of the universe into move-connected classes, with their
    graph; the moves act on each element's key, as in `move_tables`."""
    elements = list(universe)
    parent = list(range(len(elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tables = move_tables(elements, moves)
    for _name, _i, table in tables:
        for a, b in enumerate(table):
            parent[find(a)] = find(b)

    groups = {}
    for k in range(len(elements)):
        groups.setdefault(find(k), []).append(k)
    classes = [
        EquivClass(relation, [elements[k] for k in indices], (tables, indices))
        for indices in groups.values()
    ]
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

def syt_classes(shape_or_n, relation):
    """Classes of SYT under one of the seven SYT relations, one SYT(shape)
    at a time."""
    shapes = partitions(shape_or_n) if isinstance(shape_or_n, int) else [tuple(shape_or_n)]
    classes = []
    for lam in shapes:
        classes += all_classes(enumerate_tableaux(lam, "SYT"), moves_for(relation, lam), relation)
    return sorted(classes, key=lambda cls: cls.key)


def perm_classes(n, relation):
    """Classes of S_n under a word relation.

    Each relation's moves fix a word's recording tableau Q and move its
    insertion tableau P through P alone (Haiman's dual equivalence for the
    tableau relations), so a class is a class of SYT(shape) carried across
    each Q of that shape.  The carrying rests on Haiman's theorem: the Knuth
    move K_j fixes P and acts on Q as the dual move d_j.  So the Knuth class
    of the word r with P = Q = T0, the first enumerated SYT(shape), holds
    one word per Q, each reached from its parent by one K_j, and the same
    K_j takes P's word with the parent's Q to P's word with the child's Q.
    Each P is reverse-bumped once, against T0, and carried along those
    edges.  A Knuth class that does not hold one word per SYT(shape) raises
    CarrierError.  A carried class keeps its tableau class's graph, with its
    words in the order of their P.
    """
    knuth = [("K", j, lambda w, j=j: knuth_move(j, w)) for j in range(2, n)]
    classes = []
    for lam in partitions(n):
        tableaux = enumerate_tableaux(lam, "SYT")
        root_steps = row_sequence(tableaux[0])
        root = unbump(tableaux[0].rows, root_steps)
        reached = _search(root, knuth)
        if len(reached) != len(tableaux):
            raise CarrierError(
                f"the Knuth class of {root} holds {len(reached)} words,"
                f" not |SYT{lam}| = {len(tableaux)}"
            )
        position = {w: k for k, w in enumerate(reached)}
        edges = [(position[parent], j) for parent, _name, j in list(reached.values())[1:]]
        for cls in all_classes(tableaux, moves_for(relation, lam), relation):
            carried = []
            for p in cls.order:
                words = [unbump(p.rows, root_steps)]
                for parent, j in edges:
                    words.append(knuth_move(j, words[parent]))
                carried.append(words)
            # one class per Q: the words of the members of cls with that Q
            classes.extend(EquivClass(relation, column, cls.graph) for column in zip(*carried))
    return sorted(classes, key=lambda cls: cls.key)


def perm_class(word, relation):
    """The class of one permutation under a word-level relation.

    The word-move relations' moves are involutions on words, so a
    breadth-first closure from the word finds the class.  slink is not an
    involution, so for the slink relations it is the class of the insertion
    tableau P among the classes of SYT(shape of P), carried across the
    word's one recording tableau Q by inverse RSK, with Q's row sequence
    read once.  Neither partitions S_n.
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
    srct = enumerate_tableaux(alpha, "SRCT")
    return all_classes(srct, moves_for("quasiDualSRCT", alpha), "quasiDualSRCT")


def srt_image_classes(alpha, relation):
    """Classes of the SRT image of SRCT(alpha) under an SRT relation."""
    image = [mason_rho(t) for t in enumerate_tableaux(alpha, "SRCT")]
    return all_classes(image, moves_for(relation, sort_to_partition(alpha)), relation)


def classes_for_cli(relation, n=None, alpha=None):
    """The classes of the relation on its carrier: SYT(n) or S_n for the
    degree n, SRCT(alpha) or its SRT image for the composition alpha."""
    carrier = CARRIERS[relation]
    if carrier == "SYT":
        return syt_classes(n, relation)
    if carrier == "S_n":
        return perm_classes(n, relation)
    if carrier == "SRCT":
        return srct_classes(alpha)
    return srt_image_classes(alpha, relation)


# ---------------------------------------------------------------------------
# export

def member_strings(cls):
    """The digit string of each member's key, in member order."""
    members = cls.members
    if members and isinstance(members[0], Tableau):
        members = map(key_of, members)
    return list(map(word_to_str, members))


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


def classes_to_dot(classes):
    """DOT graph: vertices labeled by reading word, edges by generator.

    The edges come from each class's move tables (`EquivClass.graph`), so
    no move is applied again: by class, then member in key order, then
    move, each edge once.  A move a -> b that the same move sends back is
    written from the end of lower key; slink is not an involution, so a
    one-way edge is written from its source."""
    vertices, edges = [], []
    for cls in classes:
        tables, indices = cls.graph
        keys = dict(zip(indices, map(key_of, cls.order)))
        ranked = sorted(indices, key=keys.__getitem__)
        labels = {k: word_to_str(keys[k]) for k in ranked}
        vertices.extend(f'  "{labels[k]}";' for k in ranked)
        for a in ranked:
            for name, i, table in tables:
                b = table[a]
                if b == a or (table[b] == a and keys[b] < keys[a]):
                    continue
                low, high = (a, b) if keys[a] < keys[b] else (b, a)
                edges.append(f'  "{labels[low]}" -- "{labels[high]}" [label="{name}_{i}"];')
    return "\n".join(["graph classes {", *vertices, *edges, "}"]) + "\n"

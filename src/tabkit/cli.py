"""Command line front end: class enumeration, expansions, verification
suites, the basis conjecture check, and DOT graph export.

Exit codes: 0 success, 1 a failed check, 2 usage error.
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import permutations

from .core import (
    all_permutations,
    compositions,
    flip,
    parts_from_str,
    parts_to_str,
    partitions,
    reverse_word,
    sort_to_partition,
    strict_partitions,
    word_from_str,
    word_to_str,
)
from .equivalence import (
    CarrierError,
    RELATIONS,
    WORD_RELATIONS,
    all_classes,
    classes_for_cli,
    classes_json_text,
    classes_to_dot,
    member_strings,
    move_tables,
    moves_for,
    perm_class,
    srct_classes,
    syt_classes,
    _left_carrier,
    _straddling,
)
from .operators import (
    mason_rho,
    mason_rho_inverse,
    restricted_dual_move,
    shifted_dual_move,
    shifted_dual_move_by_bridges,
)
from .qsym import (
    DecompositionError,
    MarkerMismatchError,
    NotSymmetricError,
    NotUnitriangularError,
    class_union_qsym,
    decompose_in_fk,
    family_lead_table,
    quasi_schur,
    schur_expand_by_slinky,
    schur_expand_fsum,
    schur_fundamental,
)
from .rsk import knuth_move, row_sequence, unbump
from .tableaux import InvalidTableauError, enumerate_words, rows_of

DEFAULT_MAX_DEGREE = 9

# a move that leaves its carrier or misses its run sizes: a failed check
CHECK_FAILURES = (CarrierError, InvalidTableauError)


class UsageError(ValueError):
    pass


def max_degree():
    raw = os.environ.get("TABKIT_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"TABKIT_MAX_DEGREE must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError("TABKIT_MAX_DEGREE must be >= 1")
    return cap


def check_degree(n):
    cap = max_degree()
    if n < 1:
        raise UsageError("degree must be >= 1")
    if n > cap:
        raise UsageError(f"degree {n} exceeds the cap {cap} (TABKIT_MAX_DEGREE)")
    return n


def parse_parts(text, flag):
    """Positive parts of a comma-separated option value."""
    try:
        parts = parts_from_str(text)
    except ValueError:
        raise UsageError(f"{flag} {text!r} is not a comma-separated list of integers")
    if not all(part >= 1 for part in parts):
        raise UsageError(f"{flag} {text!r} has a part below 1")
    return parts


# ---------------------------------------------------------------------------
# expansion formatting

def format_expansion(coeffs, letter):
    """A sum of basis elements, such as 2*F(1,2) + s(3), in sorted order;
    letter names the basis (F or s)."""
    if not coeffs:
        return "0"
    return " + ".join(
        (f"{c}*" if c != 1 else "") + f"{letter}({parts_to_str(parts)})"
        for parts, c in sorted(coeffs.items())
    )


def emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}")


# ---------------------------------------------------------------------------
# classes

def cmd_classes(args):
    relation = args.relation
    alpha = parse_parts(args.alpha, "--alpha") if args.alpha is not None else None
    n = sum(alpha) if alpha is not None else args.n
    if n is not None:
        check_degree(n)
    flag, value = ("--n", args.n) if relation in WORD_RELATIONS else ("--alpha", alpha)
    if value is None:
        raise UsageError(f"relation {relation} needs {flag}")
    classes = classes_for_cli(relation, n=n, alpha=alpha)

    if args.format == "json":
        emit(classes_json_text(classes) + "\n", args.out)
    elif args.format == "dot":
        emit(classes_to_dot(classes), args.out)
    else:
        lines = [f"{len(classes)} classes under {relation}"]
        for cls in classes:
            lines.append(f"  [{len(cls.members)}] {' '.join(member_strings(cls))}")
        emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args):
    if args.relation is not None and args.class_of is None:
        raise UsageError("--relation works only with --class-of")

    if args.shape is not None:
        lam = parse_parts(args.shape, "--shape")
        check_degree(sum(lam))
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise UsageError(f"{lam} is not a partition")
        q = schur_fundamental(lam)
        payload = {
            "input": {"shape": list(lam)},
            "fundamental": q.to_json(),
            "symmetric": True,
            "schur": schur_expand_by_slinky(q).to_json(),
        }
        text = (
            f"s({parts_to_str(lam)}) = {format_expansion(q.coeffs, 'F')}\n"
            f"terms (with multiplicity): {sum(q.coeffs.values())}\n"
        )

    elif args.class_of is not None:
        if args.relation is None:
            raise UsageError("--class-of needs --relation")
        try:
            word = word_from_str(args.class_of)
        except ValueError:
            raise UsageError(f"--class-of {args.class_of!r} is not a word of integers")
        n = len(word)
        check_degree(n)
        if sorted(word) != list(range(1, n + 1)):
            raise UsageError(f"{args.class_of!r} is not a permutation")
        cls = perm_class(word, args.relation)
        q = class_union_qsym([cls])
        witness = None
        try:
            expansion = schur_expand_fsum(q, [cls])
        except NotSymmetricError as exc:
            witness = exc.witness
        except MarkerMismatchError as exc:
            print(f"error: class of {word_to_str(word)} under {args.relation}: {exc}",
                  file=sys.stderr)
            return 1
        members = member_strings(cls)
        payload = {
            "input": {"word": word_to_str(word), "relation": args.relation},
            "class": {"size": len(members), "members": members},
            "fundamental": q.to_json(),
            "symmetric": witness is None,
        }
        lines = [
            f"class of {word_to_str(word)} under {args.relation}: " + " ".join(members),
            f"F-sum = {format_expansion(q.coeffs, 'F')}",
        ]
        if witness is None:
            payload["schur"] = expansion.to_json()
            lines.append("symmetric: yes; Schur expansion = "
                         + format_expansion(expansion.coeffs, "s"))
        else:
            payload["witness"] = [list(witness[0]), list(witness[1])]
            lines.append(
                "symmetric: no; monomial coefficients differ on "
                f"({parts_to_str(witness[0])}) vs ({parts_to_str(witness[1])})"
            )
        text = "\n".join(lines) + "\n"

    else:
        alpha = parse_parts(args.quasischur, "--quasischur")
        check_degree(sum(alpha))
        q = quasi_schur(alpha)
        try:
            decomposition = decompose_in_fk(q, 2)
        except DecompositionError as exc:
            print(f"error: S({parts_to_str(alpha)}): {exc}", file=sys.stderr)
            return 1
        payload = {
            "input": {"quasischur": list(alpha)},
            "fundamental": q.to_json(),
            "f2_decomposition": [
                {"class": word_to_str(key), "coeff": c}
                for key, c in sorted(decomposition.items())
            ],
        }
        lines = [f"S({parts_to_str(alpha)}) = {format_expansion(q.coeffs, 'F')}",
                 "decomposition over the k=2 family:"]
        for key, c in sorted(decomposition.items()):
            lines.append(f"  {c} * f[{word_to_str(key)}]")
        text = "\n".join(lines) + "\n"

    if args.format == "json":
        emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify suites
#
# Each suite returns a list of (check name, ok, witness) triples; suites are
# pure re-runs of the library property checks at a configurable degree.

def _first_failure(name, failures):
    """The check's triple from an iterable of failures: its first item, if
    any, is the witness."""
    witness = next(iter(failures), None)
    return (name, witness is None, witness)


def _transitive(name, classes):
    """The check that the classes are one, naming each by least key and size."""
    ok = len(classes) == 1
    return (name, ok, None if ok else [(cls.key, len(cls)) for cls in classes])


def _window_words(n):
    """The words of S_n equal to the identity outside one window of four
    consecutive values, in lexicographic order.

    Each word check of the involutions and shifted suites compares window
    moves on one window of four values, so its verdict on a word depends
    only on the order of those values in it.  The least word with a given
    order is a window word (the smaller values first, then the window, then
    the rest), so a check fails on S_n exactly when it fails on a window
    word, and first on the same word.
    """
    identity = tuple(range(1, n + 1))
    return sorted({
        identity[:low] + p + identity[low + 4:]
        for low in range(n - 3)
        for p in permutations(identity[low:low + 4])
    })


def suite_poset(n):
    results = []
    chain = ["equiv0", "equiv1", "equiv2", "dual"]
    universe_classes = {rel: syt_classes(n, rel) for rel in chain}
    for fine, coarse in zip(chain, chain[1:]):
        results.append(_first_failure(
            f"{fine} refines {coarse} on SYT({n})",
            _straddling(universe_classes[fine], universe_classes[coarse]),
        ))

    # quasi-dual classes on the composition image are unions of equiv2
    # classes; each image is enumerated and column sorted once, and closed
    # under both relations
    for alpha in compositions(n):
        shape = sort_to_partition(alpha)
        image = [mason_rho(w, alpha) for w in enumerate_words(alpha, "SRCT")]
        fine, coarse = (
            all_classes(image, moves_for(relation, shape), relation)
            for relation in ("quasiDualSRT-restricted", "quasiDualSRT")
        )
        results.append(_first_failure(
            f"restricted refines quasi-dual on image of {alpha}",
            _straddling(fine, coarse),
        ))

    # equiv2 on S_n refines the shifted classes taken on reversed (flipped)
    # words, checked on SYT(n).  Reversal carries equiv2 classes onto
    # equiv2rev classes, whose moves are dR_i conjugated by reversal; the flip
    # does the same for equiv2flip.  All three relations fix Q and move P
    # through insertion, so each word class is a class of SYT(lam) carried
    # across Q, and the check holds on S_n exactly when it holds on SYT(n).
    for name, relation in (("reversed", "equiv2rev"), ("flipped", "equiv2flip")):
        check = f"equiv2 refines {name} shifted classes on S_{n}"
        try:
            fine, coarse = syt_classes(n, relation), syt_classes(n, "shifted")
            results.append(_first_failure(check, _straddling(fine, coarse)))
        except CarrierError as exc:
            results.append((check, False, str(exc)))
    return results


def suite_involutions(n):
    words = _window_words(n)
    # a window word fails when its image is no word of S_n or not sent back
    results = [
        _first_failure(f"{name}_{i} on S_{n}", (
            w for w in words for image in [move(w)]
            if sorted(image) != sorted(w) or move(image) != w
        ))
        for name, i, move in moves_for("equiv2", (n,)) + moves_for("shifted", (n,))
    ]

    def unfixed(carrier, moves):
        # for each move, the carrier words that two steps of it do not fix
        return [
            [t for k, t in enumerate(carrier) if table[table[k]] != k]
            for _, _, table in move_tables(carrier, moves)
        ]

    # slink* is an involution off the superstandard tableau, which both maps fix
    results.append(_first_failure(f"slink* on SYT({n})", (
        t
        for lam in partitions(n)
        for failures in unfixed(enumerate_words(lam, "SYT"), moves_for("equiv0", lam))
        for t in failures
    )))

    for alpha in compositions(n):
        srct = enumerate_words(alpha, "SRCT")
        moves = moves_for("quasiDualSRCT", alpha)
        for (name, i, _move), found in zip(moves, unfixed(srct, moves)):
            results.append(_first_failure(f"{name}_{i} on SRCT({alpha})", found))
    return results


def suite_commutation(n):
    """K_j commutes with slink, slink* and every dR_i on S_n.

    Each move is tabulated once, as the index in `all_permutations(n)` of
    each word's image: K_j on the words, dR_i by `move_tables` on them.
    slink and slink* take the word of (P, Q), `unbump(P, row_sequence(Q))`
    on the rows of the pairs of each SYT(lam), to the word of (f(P), Q),
    with f tabulated on the words of SYT(lam) by `move_tables`.  A move
    image outside its carrier, or pairs that do not give each word of S_n
    once, raise CarrierError.  A check holds when K[O[k]] == O[K[k]] for
    every k; otherwise it names the first word where the two differ.
    """
    words = all_permutations(n)
    # built before the suite's own index, so the two indexes never coexist
    restricted = move_tables(words, moves_for("equiv2", (n,)))
    index = {w: k for k, w in enumerate(words)}
    ops = {"slink*": [None] * len(words), "slink": [None] * len(words)}
    pairs = 0
    for lam in partitions(n):
        syt = enumerate_words(lam, "SYT")
        moves = moves_for("equiv0", lam) + moves_for("equiv1", lam)
        tables = [(ops[name], table) for name, _i, table in move_tables(syt, moves)]
        rows = [rows_of(w, "SYT", lam) for w in syt]
        for steps in map(row_sequence, rows):
            # the words of (P, Q) for this Q and every P, in tableau order
            row = [index[unbump(p, steps)] for p in rows]
            for op, table in tables:
                for k, image in zip(row, table):
                    op[k] = row[image]
        pairs += len(syt) ** 2
    if pairs != len(words) or None in ops["slink"]:
        raise CarrierError(f"the RSK pairs of size {n} do not give each word of S_{n} once")
    ops.update((f"{name}_{i}", table) for name, i, table in restricted)
    results = []
    for j in range(2, n):
        knuth = [index.get(knuth_move(j, w)) for w in words]
        if None in knuth:
            raise _left_carrier("K", j, words[knuth.index(None)])
        for name, op in ops.items():
            results.append(_first_failure(
                f"K_{j} commutes with {name} on S_{n}",
                (words[k] for k in range(len(words)) if knuth[op[k]] != op[knuth[k]]),
            ))
    return results


def suite_mason(n):
    # the words of each SRCT(alpha) are enumerated once, for srct_classes
    # and srct alike; its classes sum to S_alpha
    classes_of = {alpha: srct_classes(alpha) for alpha in compositions(n)}
    quasi_schurs = {class_union_qsym(classes) for classes in classes_of.values()}
    results = []
    for alpha, classes in classes_of.items():
        srct = enumerate_words(alpha, "SRCT")
        images = [mason_rho(t, alpha) for t in srct]
        # bijectivity: the certified round trip also fails on a collision
        results.append(_first_failure(
            f"column sort bijective on SRCT({alpha})",
            (t for t, image in zip(srct, images) if mason_rho_inverse(image, alpha) != t),
        ))

        # the commuting square, over the DQ_i tables that built the classes:
        # they index the words of SRCT(alpha) in order, as srct
        tables = classes[0].graph[0]
        srt_moves = moves_for("quasiDualSRT", sort_to_partition(alpha))
        results.append(_first_failure(
            f"column sort commutes with quasi-dual moves on SRCT({alpha})",
            (
                (i, t)
                for k, t in enumerate(srct)
                for (_, _, table), (_, i, srt_move) in zip(tables, srt_moves)
                if images[table[k]] != srt_move(images[k])
            ),
        ))

        # transitivity of the quasi-dual action
        results.append(_transitive(f"quasi-dual action transitive on SRCT({alpha})", classes))

        # each class alone sums to a quasisymmetric Schur function
        sums = [(cls.key, class_union_qsym([cls])) for cls in classes]
        witness = [(key, q) for key, q in sums if q not in quasi_schurs]
        results.append(
            (f"every quasi-dual class of SRCT({alpha}) generates a quasisymmetric "
             "Schur function", not witness, witness)
        )
    return results


def suite_shifted(n):
    results = []
    words = _window_words(n)

    # pattern table against the bridge oracle, built on the inverse-descent
    # guard rather than on any window table
    results.append(_first_failure(
        f"shifted move matches its bridge oracle on S_{n}",
        (
            (i, w)
            for w in words
            for i in range(1, n - 2)
            if shifted_dual_move(i, w) != shifted_dual_move_by_bridges(i, w)
        ),
    ))

    # bridges: dR_i on the reverse is h_{i-1}; dR_i on the flip is h_{n-i-1}
    def bridge(kind, outer, i, h):
        return _first_failure(f"{kind} bridge dR_{i} -> h_{h} on S_{n}", (
            w
            for w in words
            for lhs in [outer(restricted_dual_move(i, outer(w)))]
            if lhs != w and shifted_dual_move(h, w) != lhs
        ))

    results += [bridge("reverse", reverse_word, i, i - 1) for i in range(2, n - 1)]
    results += [bridge("flip", flip, i, n - i - 1) for i in range(2, n - 1)]

    # transitivity on shifted standard tableaux via flipped reading words
    for lam in strict_partitions(n):
        name = f"flip-conjugated moves transitive on SST({lam})"
        universe = enumerate_words(lam, "SST")
        try:
            classes = all_classes(universe, moves_for("equiv2flip", (n,)), "equiv2flip")
        except CarrierError as exc:
            results.append((name, False, str(exc)))
        else:
            results.append(_transitive(name, classes))
    return results


def suite_conjecture(n):
    """The basis conjecture for each family, certified by its lead table.

    The distinct class functions of family k are a basis of QSym_n when
    they lead unitriangularly at all 2^(n-1) coordinates.  The suite builds
    each family's classes and table itself, so no cached table decides it.
    """
    dimension = 1 << (n - 1)
    results = []
    for k in (0, 1, 2):
        classes = syt_classes(n, f"equiv{k}")
        try:
            table = family_lead_table(classes)
        except NotUnitriangularError as exc:
            leads, witness = "not unitriangular", {"classes": exc.keys, "lead": exc.lead}
        else:
            missing = next((lead for lead in range(dimension) if lead not in table), None)
            leads = f"{len(table)} leads of {dimension}"
            witness = None if missing is None else {"least missing lead": missing}
        results.append((
            f"k={k} family is a unitriangular basis of QSym_{n}: "
            f"{len(classes)} classes, {leads}",
            witness is None,
            witness,
        ))
    return results


SUITE_RUNNERS = {
    "poset": suite_poset,
    "involutions": suite_involutions,
    "commutation": suite_commutation,
    "mason": suite_mason,
    "shifted": suite_shifted,
    "conjecture": suite_conjecture,
}


def cmd_verify(args):
    n = check_degree(args.n)
    try:
        results = SUITE_RUNNERS[args.suite](n)
    except CHECK_FAILURES as exc:
        results = [(f"suite {args.suite} runs to completion at n = {n}", False, str(exc))]
    failures = [r for r in results if not r[1]]
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "n": n,
            "passed": len(results) - len(failures),
            "failed": len(failures),
            "checks": [
                {"name": name, "ok": ok, "witness": repr(witness) if witness else None}
                for name, ok, witness in results
            ],
        }
        emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = []
        for name, ok, witness in results:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  witness: {witness!r}" if witness and not ok else ""
            lines.append(f"[{mark}] {name}{suffix}")
        lines.append(
            f"suite {args.suite}: {len(results) - len(failures)} passed, {len(failures)} failed"
        )
        emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Raises UsageError for `main` to report; its subcommands inherit it."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="tabkit",
        description="Tableau equivalence classes and quasisymmetric expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_classes = sub.add_parser("classes", help="list equivalence classes")
    carrier = p_classes.add_mutually_exclusive_group()
    carrier.add_argument("--n", type=int)
    carrier.add_argument("--alpha", help="composition, comma separated")
    p_classes.add_argument("--relation", required=True, choices=RELATIONS)
    common(p_classes, "text", "json", "dot")
    p_classes.set_defaults(fn=cmd_classes)

    p_expand = sub.add_parser("expand", help="fundamental and Schur expansions")
    selector = p_expand.add_mutually_exclusive_group(required=True)
    selector.add_argument("--shape", help="partition, comma separated")
    selector.add_argument("--class-of", dest="class_of", help="permutation word")
    selector.add_argument("--quasischur", help="composition, comma separated")
    p_expand.add_argument("--relation", choices=WORD_RELATIONS)
    common(p_expand, "text", "json")
    p_expand.set_defaults(fn=cmd_expand)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_RUNNERS)
    p_verify.add_argument("--n", type=int, default=5)
    common(p_verify, "text", "json")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first call of `main` and kept for the
    process; each `parse_args` still returns a fresh namespace."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CHECK_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

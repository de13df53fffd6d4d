import errno
import hashlib
import json
import os
import re
import shlex
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from tabkit import cli, equivalence, operators, qsym
from tabkit import rsk as rsk_module
from tabkit.cli import SUITE_RUNNERS, main, suite_commutation, suite_mason
from tabkit.core import (
    all_permutations,
    apply_window,
    compositions,
    descent_composition,
    flip,
    partitions,
    parts_to_str,
    reverse_word,
    word_from_str,
    word_to_str,
)
from tabkit.equivalence import (
    CARRIERS,
    MOVES,
    RELATIONS,
    WORD_RELATIONS,
    CarrierError,
    EquivClass,
    all_classes,
    move_tables,
    moves_for,
    perm_classes,
    srct_classes,
    syt_classes,
)
from tabkit.operators import (
    RESTRICTED_WINDOW_TABLE,
    SHIFTED_WINDOW_TABLE,
    restricted_dual_move,
)
from tabkit.qsym import (
    DecompositionError,
    QsymElement,
    class_union_qsym,
    decompose_in_fk,
    fk_lead_table,
    qsym_sum,
    quasi_schur,
)
from tabkit.rsk import DUAL_WINDOW_TABLE, knuth_move, row_sequence, rsk, unbump
from tabkit.tableaux import enumerate_tableaux, enumerate_words

from oracles import (
    commutation_by_words,
    duplicated_exchange,
    family_independence_report,
    insertion_tableau,
    misfiled_exchange,
    refines,
    schur_expand_class_union,
    syt_universe,
    tableau_moves,
)


# argparse's wording for a --relation of classes outside RELATIONS, and for
# --format dot given to expand or verify
RELATION_CHOICES = ", ".join(map(repr, RELATIONS))
DOT_CHOICE = "error: argument --format: invalid choice: 'dot' (choose from 'text', 'json')\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_text(capsys):
    code, out, err = run(capsys, "classes", "--relation", "equiv2", "--n", "4")
    assert code == 0
    assert out.startswith("8 classes under equiv2")


def test_classes_json(capsys):
    code, out, _ = run(
        capsys, "classes", "--relation", "equiv1", "--n", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 9
    assert sum(entry["size"] for entry in data) == 10  # all SYT of size 4


def test_classes_dot(capsys):
    code, out, _ = run(
        capsys, "classes", "--relation", "equiv2", "--n", "4", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph") and out.rstrip().endswith("}")
    assert '--' in out


# DOT output pinned byte for byte: vertex order, edge order and edge labels
DOT_GOLDENS = {
    ("quasiDualSRT", "--alpha", "2,2,2"): (
        'graph classes {\n'
        '  "321654";\n  "421653";\n  "431652";\n  "521643";\n  "531642";\n'
        '  "321654" -- "421653" [label="dQ_3"];\n'
        '  "421653" -- "431652" [label="dQ_2"];\n'
        '  "431652" -- "531642" [label="dQ_4"];\n'
        '  "521643" -- "531642" [label="dQ_2"];\n'
        '}\n'
    ),
    ("equiv0", "--n", "4"): (
        'graph classes {\n'
        '  "1234";\n  "2134";\n  "3124";\n  "2413";\n  "3214";\n'
        '  "3412";\n  "4123";\n  "4213";\n  "4312";\n  "4321";\n'
        '  "2134" -- "3124" [label="slink*_0"];\n'
        '}\n'
    ),
}


# sha256 and length of `classes --relation shifted --n 7` output, taken before
# the class-list writer built its text by joining strings
CLASSES_GOLDENS = {
    "json": ("e8880c24b2034dbca4a37a56ee68325b7ed0ffe5fb25ed37384e5c6cce28fbc3", 142915),
    "text": ("271c10943617b4feab848a95ba773f0c264abfe3a97edfef5f1f080a8245c448", 45050),
}


@pytest.mark.parametrize("fmt", list(CLASSES_GOLDENS))
def test_classes_output_golden(capsys, fmt):
    code, out, err = run(
        capsys, "classes", "--relation", "shifted", "--n", "7", "--format", fmt
    )
    assert (code, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CLASSES_GOLDENS[fmt]


# sha256 and length of `classes --relation <r> --n 8 --format json` output,
# taken while perm_classes carried its classes along a d_j spanning tree of
# each SYT(lam)
CLASSES_N8_GOLDENS = {
    "equiv0": ("cd0961d85c6d57c18c0f415f9ed613bad4279eb06281c71407b9eafdf6fe289a", 58107),
    "equiv1": ("bb233ca1e9e09dd1efce6136688881bf1260488cf3ff1a1a29dc1df97645860b", 53211),
    "equiv2": ("5907dcaa8d85b53b28ab9ed8288a2dbf122d126d79e537575dfdd5051832b919", 27739),
    "dual": ("458202ddb720ee772afdad229639b36ccaee841943efd62f4fbdc054f1fd2928", 15313),
    "shifted": ("3be8b0fb61868b71e311ee4c15f4b8a9362195de7d485d7802f3682c5776d416", 962051),
    "equiv2rev": ("98fda8ec278239b66f11c0bbacbd0bbe525d7e7c45cc2b9cc39cd162ceb95fd7", 1405455),
    "equiv2flip": ("34a657866e6565a3727f2919a0504970a7f8550a8c721e286d114981d1242721", 1414507),
}


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_classes_json_golden_at_degree_8(capsys, relation):
    code, out, err = run(
        capsys, "classes", "--relation", relation, "--n", "8", "--format", "json"
    )
    assert (code, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CLASSES_N8_GOLDENS[relation]


# sha256 and length of `classes --relation <r> --n 9 --format <f>` output for
# the two slink relations, taken while each slink move read the word's
# descent composition twice; the DOT pins every slink and slink* edge
CLASSES_N9_SLINK_GOLDENS = {
    ("equiv0", "json"): ("77f51d339254450ee5f41eff170418864a7ce944e49c1edf806fcbafabb6dcae", 201271),
    ("equiv0", "dot"): ("e7f20cfdc9cbf491b430484b6bc4d1b7e7ae66e73b9ed38b8a6742db64e4afb5", 64602),
    ("equiv1", "json"): ("6fc6ae16eed71f7e176f8a6a7986d8fc73bc0a1e3287f54348a01dbbb75367d2", 182911),
    ("equiv1", "dot"): ("cb79d9a58d2e47e1f8d2d8ed7ac26ca39ab57fad0c5a80ec485161b9b0dbc882", 76326),
}


@pytest.mark.parametrize("relation, fmt", list(CLASSES_N9_SLINK_GOLDENS))
def test_slink_classes_golden_at_degree_9(capsys, relation, fmt):
    code, out, err = run(capsys, "classes", "--relation", relation, "--n", "9", "--format", fmt)
    assert (code, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CLASSES_N9_SLINK_GOLDENS[relation, fmt]


# sha256 and length of the outputs of the `partition` benchmark's relations
# at its degrees, `classes --relation <r> --n <n> --format <f>`, taken while
# SYT were enumerated by a backtracking fill and each window move went
# through its operator; the DOT pins every edge
CLASSES_PARTITION_GOLDENS = {
    ("equiv2", 9, "json"): ("78cc6c9b287d0e3dc3c9bc0298f64732ed9c46de146657c51f883813a5373703", 83338),
    ("equiv2", 9, "dot"): ("2506c961e0ea38faec9d7a02f55fd7d5ad6c5eab5e0c9d768b7b018d77e94dc7", 181608),
    ("dual", 9, "json"): ("e3cad44a44714c17fdda7df1f60cb26242c5a47f16cacbd7821d1d99aeb7c2e7", 51921),
    ("dual", 9, "dot"): ("abe3d73d525a25e270ee822b12b39383b9b8c19846ffbc56337e6401ebb2768a", 300502),
    ("shifted", 8, "dot"): ("c7f5bd0e5afb08b44c8de05d7104af9aabab497fe5075cfbcd55d2243012f7d1", 3386898),
    ("equiv2rev", 8, "dot"): ("3f592e7b89e4b50f0d52a087201d9a4c9fd1743c55b32ebb2e19ab9e8ae0e754", 2538498),
    ("equiv2flip", 8, "dot"): ("2bd0eab73f9d09955d8cbe3e2be0e4667358188dc4038bb9cc092758ec1b9e33", 2580498),
}


@pytest.mark.parametrize("relation, n, fmt", list(CLASSES_PARTITION_GOLDENS))
def test_partition_classes_golden(capsys, relation, n, fmt):
    code, out, err = run(
        capsys, "classes", "--relation", relation, "--n", str(n), "--format", fmt
    )
    assert (code, err) == (0, "")
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CLASSES_PARTITION_GOLDENS[relation, n, fmt]


@pytest.mark.parametrize("relation, flag, value", list(DOT_GOLDENS))
def test_classes_dot_golden(capsys, relation, flag, value):
    expected = DOT_GOLDENS[relation, flag, value]
    assert run(
        capsys, "classes", "--relation", relation, flag, value, "--format", "dot"
    ) == (0, expected, "")


# sha256 and length of `classes --relation <r> --n 7 --format dot` output, and
# of the DOT of the three quasi-dual relations at every composition of 6,
# concatenated, taken while the export still applied every move to every
# member
DOT_HASH_GOLDENS = {
    "shifted": ("22d6c0528902b838122ecdd7283b084ae4c7c914820b89930e62efeb31a0c472", 334338),
    "equiv2flip": ("dfdcd39c0eaddef0215823a03f1744b4cb37fc900185973df0abf0faadda6a1f", 258738),
    "equiv1": ("b3b8db00385d7246e4d22fa590cce78d4a1b40865a4ece9fbb75f2ecbcf8e60a", 5674),
}
QUASI_DOT_GOLDEN = ("66719d3b71f1932989c5e72238ec75c3e911ad229fd1fd3deb41665b174e03a2", 10353)


def _sha_and_length(text):
    data = text.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("relation", list(DOT_HASH_GOLDENS))
def test_classes_dot_hash_golden(capsys, relation):
    code, out, err = run(
        capsys, "classes", "--relation", relation, "--n", "7", "--format", "dot"
    )
    assert (code, err) == (0, "")
    assert _sha_and_length(out) == DOT_HASH_GOLDENS[relation]


def test_quasi_dual_dot_golden(capsys):
    outs = []
    for relation in ("quasiDualSRCT", "quasiDualSRT", "quasiDualSRT-restricted"):
        for alpha in compositions(6):
            code, out, err = run(
                capsys, "classes", "--relation", relation, "--alpha", parts_to_str(alpha),
                "--format", "dot",
            )
            assert (code, err) == (0, "")
            outs.append(out)
    assert _sha_and_length("".join(outs)) == QUASI_DOT_GOLDEN


def test_each_carrier_is_tabulated_once(monkeypatch):
    # perm_classes tabulates only the moves of its own classes on each
    # SYT(lam), carrying them across Q with Knuth moves on words: a slink
    # relation with one move_tables call per shape, a window relation by
    # applying only the window that holds n, once to each word of each shape
    # it reaches, and reading every other table off the shape less a corner.
    # The mason suite reads the DQ_i tables that built the classes of each
    # SRCT(alpha)
    calls, applied = [], Counter()

    def counting(tables):
        def wrapped(elements, moves):
            calls.append(len(elements))
            return tables(elements, moves)
        return wrapped

    def counted(move, shape, i):
        def wrapped(w):
            applied[shape, i] += 1
            return move(w)
        return wrapped

    def counting_moves(relation, shape):
        return [(name, i, counted(move, shape, i)) for name, i, move in moves_for(relation, shape)]

    def top_windows(relation):
        # each shape of size m <= 6 with the index of the window that holds m,
        # applied once to each word of the shape
        window = MOVES[relation][3][0]
        return Counter({
            (mu, i): len(enumerate_tableaux(mu, "SYT"))
            for m in range(1, 7)
            for mu in partitions(m)
            for _name, i, _move in moves_for(relation, mu)
            if window(i, m)[1] == m
        })

    expected = {r: top_windows(r) for r in WORD_RELATIONS if not callable(MOVES[r][3])}
    monkeypatch.setattr(equivalence, "move_tables", counting(equivalence.move_tables))
    monkeypatch.setattr(cli, "move_tables", counting(cli.move_tables))
    monkeypatch.setattr(equivalence, "moves_for", counting_moves)
    for relation in WORD_RELATIONS:
        calls.clear()
        applied.clear()
        perm_classes(6, relation)
        if relation in expected:
            assert calls == [] and applied == expected[relation], relation
        else:
            assert len(calls) == len(partitions(6)), relation
    assert set(expected) == {"equiv2", "dual", "shifted", "equiv2rev", "equiv2flip"}
    calls.clear()
    suite_mason(6)
    assert len(calls) == len(compositions(6))


def test_every_move_is_built_by_moves_for(capsys, monkeypatch):
    # a counting wrapper over moves_for where the library binds it, as a
    # tracer installs one: each class builder and suite must call it, so a
    # count of move calls sees every move; the DOT export reads the tables
    # the class builder made and binds no move of its own
    calls = {"equivalence": 0, "cli": 0}

    def counting(module, builder):
        def wrapped(relation, shape):
            calls[module] += 1
            return builder(relation, shape)
        return wrapped

    monkeypatch.setattr(equivalence, "moves_for", counting("equivalence", equivalence.moves_for))
    monkeypatch.setattr(cli, "moves_for", counting("cli", cli.moves_for))

    def count(module, fn, *args):
        before = calls[module]
        fn(*args)
        return calls[module] - before

    assert count("equivalence", equivalence.syt_classes, 5, "equiv2")
    assert count("equivalence", equivalence.perm_classes, 5, "dual")
    assert count("equivalence", equivalence.perm_class, (2, 5, 1, 4, 3), "shifted")
    assert count("equivalence", equivalence.perm_class, (2, 5, 1, 4, 3), "equiv1")
    assert count("equivalence", equivalence.srct_classes, (2, 1, 2))
    assert count("equivalence", equivalence.srt_image_classes, (2, 2, 2), "quasiDualSRT")
    for suite in ("poset", "involutions", "commutation", "mason", "shifted"):
        assert count("cli", SUITE_RUNNERS[suite], 5), suite

    def classes(fmt):
        return count(
            "equivalence", run, capsys, "classes", "--relation", "equiv2", "--n", "5",
            "--format", fmt,
        )

    assert classes("dot") == classes("text")


def test_format_expansion():
    assert cli.format_expansion({}, "F") == "0"
    coeffs = {(2, 1): 2, (1, 2): 1, (1, 1, 1): Fraction(1, 2)}
    assert cli.format_expansion(coeffs, "s") == "1/2*s(1,1,1) + s(1,2) + 2*s(2,1)"
    assert cli.format_expansion({(3,): 1}, "F") == "F(3)"


def test_classes_srct(capsys):
    code, out, _ = run(
        capsys, "classes", "--relation", "quasiDualSRCT", "--alpha", "2,3,2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1  # the action is transitive on this shape
    # the SRT image of SRCT(2,2,2): one class under the quasi-dual moves,
    # split in two by the restricted ones
    assert run(capsys, "classes", "--relation", "quasiDualSRT", "--alpha", "2,2,2") == (
        0, "1 classes under quasiDualSRT\n  [5] 321654 421653 431652 521643 531642\n", ""
    )
    assert run(
        capsys, "classes", "--relation", "quasiDualSRT-restricted", "--alpha", "2,2,2"
    ) == (
        0,
        "2 classes under quasiDualSRT-restricted\n"
        "  [2] 321654 421653\n"
        "  [3] 431652 521643 531642\n",
        "",
    )


def test_classes_usage_errors(capsys):
    assert run(capsys, "classes", "--relation", "nope", "--n", "4") == (
        2, "", f"error: argument --relation: invalid choice: 'nope' (choose from {RELATION_CHOICES})\n"
    )
    # a relation given the option of another carrier names its own
    for argv, needs in [
        (["--relation", "equiv2"], "--n"),
        (["--relation", "shifted", "--alpha", "2,1"], "--n"),
        (["--relation", "quasiDualSRT", "--n", "4"], "--alpha"),
        (["--relation", "quasiDualSRCT", "--n", "4"], "--alpha"),
    ]:
        assert run(capsys, "classes", *argv) == (
            2, "", f"error: relation {argv[1]} needs {needs}\n"
        )


def test_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("TABKIT_MAX_DEGREE", "5")
    code, _, err = run(capsys, "classes", "--relation", "equiv2", "--n", "6")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("TABKIT_MAX_DEGREE", "abc")
    code, _, err = run(capsys, "classes", "--relation", "equiv2", "--n", "4")
    assert code == 2 and "integer" in err
    monkeypatch.setenv("TABKIT_MAX_DEGREE", "0")
    assert run(capsys, "classes", "--relation", "equiv2", "--n", "4") == (
        2, "", "error: TABKIT_MAX_DEGREE must be >= 1\n"
    )


def test_expand_shape(capsys):
    code, out, _ = run(capsys, "expand", "--shape", "2,1")
    assert code == 0
    assert "s(2,1)" in out and "F(1,2)" in out and "F(2,1)" in out


def test_expand_shape_json(capsys):
    code, out, _ = run(capsys, "expand", "--shape", "3,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["symmetric"] is True
    assert data["schur"]["coeffs"] == [{"partition": [3, 1], "coeff": 1}]


def test_expand_class_of_symmetric(capsys):
    code, out, _ = run(
        capsys, "expand", "--class-of", "1234", "--relation", "equiv2"
    )
    assert code == 0
    assert "symmetric: yes" in out


def test_expand_class_of_not_symmetric(capsys):
    # the equiv0 class of 2134 is {2134, 3124}, F(1,3) + F(2,2): M(1,1,2)
    # has coefficient 2 there and its rearrangement M(1,2,1) has 1
    code, out, err = run(
        capsys, "expand", "--class-of", "2134", "--relation", "equiv0",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["class"]["members"] == ["2134", "3124"]
    assert data["symmetric"] is False
    assert data["witness"] == [[1, 1, 2], [1, 2, 1]]
    assert "schur" not in data
    code, out, err = run(capsys, "expand", "--class-of", "2134", "--relation", "equiv0")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "class of 2134 under equiv0: 2134 3124",
        "F-sum = F(1,3) + F(2,2)",
        "symmetric: no; monomial coefficients differ on (1,1,2) vs (1,2,1)",
    ]


# sha256 of `expand --class-of WORD --relation R --format FMT` under each of
# the seven word relations in WORD_RELATIONS order, each run adding
# stdout, NUL, stderr, NUL, exit code and a newline; taken before the
# monomial expansion became one subset-sum transform
EXPAND_CLASS_GOLDENS = {
    ("2134", "text"): "28267bad3b18f592351356dd5de21f534b83f1f131f6dd6520c590c75a5cbcd2",
    ("2134", "json"): "3811dd14b06057f0feee4a7ca0ffa3fc3d61bb1274bf14d5a10bd072ea33ce21",
    ("2143", "text"): "c6d7cf01b5db7035daea928432d413bbf904365b255530dc5408ab9b69a3dc14",
    ("2143", "json"): "d676f6b82996ad738ea7baa67adb6e78dfd17988d567355b258c77e16a9ea52a",
    ("31524", "text"): "8fc6361414303278d399055aa8cb4784136a9980e1519f64a2c7e2083254fc0f",
    ("31524", "json"): "4b32744c147a5ad039a72f40653ee38bd4c5bd0f60baf5fd2eb75c39f2c044fd",
    ("241635", "text"): "11c149bdea13abb47fa233392d5732f8bd9e47c14877b2402645b5a5c2425584",
    ("241635", "json"): "165e2a6cacaf15b34e6c4a9bc90ae3c9897522735de573e4bd438cce8bb99812",
    ("27184635", "text"): "2c2dc670f589b01557bd7334206876b29a4d53984fa1d422f6dd67fb6439b7c7",
    ("27184635", "json"): "e018131b8f336d333b7b4d4203077fd0e65cc543600b6b44f926cdf221f1f2ba",
    ("318496275", "text"): "2727b4b96e57f25c01cf6fc3baa66b7f046ab91507867c93dcc5b8aebda8038c",
    ("318496275", "json"): "92a091d80e6f1ea8a41a975f6851afd2c3b19a486728c69e606f4e16ddafffe3",
}


@pytest.mark.parametrize("word, fmt", list(EXPAND_CLASS_GOLDENS))
def test_expand_class_of_golden(capsys, word, fmt):
    digest = hashlib.sha256()
    for relation in WORD_RELATIONS:
        code, out, err = run(
            capsys, "expand", "--class-of", word, "--relation", relation, "--format", fmt
        )
        digest.update(f"{out}\0{err}\0{code}\n".encode())
    assert digest.hexdigest() == EXPAND_CLASS_GOLDENS[word, fmt]


@pytest.mark.parametrize("word, relation, symmetric", [
    ("2143", "dual", True),
    ("2134", "equiv0", False),
])
def test_expand_class_of_reads_monomials_once(capsys, monkeypatch, word, relation, symmetric):
    # one query, symmetric or not, takes one monomial transform of its F-sum
    reads = []
    for name in ("to_monomial", "symmetry_witness"):
        original = getattr(QsymElement, name)
        monkeypatch.setattr(
            QsymElement, name,
            lambda self, original=original, name=name: reads.append(name) or original(self),
        )
    code, out, _ = run(
        capsys, "expand", "--class-of", word, "--relation", relation, "--format", "json"
    )
    assert code == 0 and json.loads(out)["symmetric"] is symmetric
    assert reads == ["symmetry_witness"]


def test_expand_class_of_sums_its_class_once(capsys, monkeypatch):
    # the F-sum that is printed is the one the Schur expansion reads
    calls = []
    real = qsym._fundamental_sum
    monkeypatch.setattr(
        qsym, "_fundamental_sum", lambda words, n: calls.append(n) or real(words, n)
    )
    for word, relation in (("2143", "dual"), ("2134", "equiv0"), ("21543", "equiv2rev")):
        calls.clear()
        code, _, _ = run(capsys, "expand", "--class-of", word, "--relation", relation)
        assert (code, calls) == (0, [len(word)])


def test_expand_class_of_equiv2rev_files_markers_under_the_conjugate(capsys):
    # reversal transposes P: the identity word's marker is a column-shaped
    # P(12345 reversed), filed under s(5)
    assert run(capsys, "expand", "--class-of", "12345", "--relation", "equiv2rev") == (
        0,
        "class of 12345 under equiv2rev: 12345\n"
        "F-sum = F(5)\n"
        "symmetric: yes; Schur expansion = s(5)\n",
        "",
    )


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # built on the first call, not at import; each call parses afresh
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "expand", "--shape", "2,1")[0] == 0
        assert run(capsys, "classes", "--relation", "dual", "--n", "3")[0] == 0
        assert run(capsys, "expand")[0] == 2
        assert built == [1]
        first = cli._parser().parse_args(["verify", "--suite", "poset"])
        second = cli._parser().parse_args(["classes", "--relation", "dual", "--n", "3"])
        assert first is not second and not hasattr(second, "suite")
        assert (first.n, first.format, second.format) == (5, "text", "text")
    finally:
        cli._parser.cache_clear()


def test_expand_quasischur(capsys):
    code, out, _ = run(capsys, "expand", "--quasischur", "2,3")
    assert code == 0
    assert "S(2,3)" in out and "decomposition" in out


def test_expand_usage_errors(capsys):
    assert run(capsys, "expand") == (
        2, "", "error: one of the arguments --shape --class-of --quasischur is required\n"
    )
    code, _, err = run(capsys, "expand", "--shape", "1,2")
    assert code == 2 and "not a partition" in err
    code, _, err = run(capsys, "expand", "--class-of", "1223", "--relation", "equiv2")
    assert code == 2 and "not a permutation" in err
    code, _, err = run(capsys, "expand", "--class-of", "1234")
    assert code == 2 and "--relation" in err
    word_choices = ", ".join(map(repr, WORD_RELATIONS))
    assert run(capsys, "expand", "--class-of", "2143", "--relation", "quasiDualSRCT") == (
        2, "", "error: argument --relation: invalid choice: 'quasiDualSRCT' "
        f"(choose from {word_choices})\n"
    )
    assert run(capsys, "expand", "--shape", "2,1", "--format", "dot") == (2, "", DOT_CHOICE)
    for selector in (("--shape", "2,1"), ("--quasischur", "2,1")):
        assert run(capsys, "expand", *selector, "--relation", "nope") == (
            2, "", f"error: argument --relation: invalid choice: 'nope' (choose from {word_choices})\n"
        )
        assert run(capsys, "expand", *selector, "--relation", "dual") == (
            2, "", "error: --relation works only with --class-of\n"
        )


def test_expand_dot_rejected_before_any_work(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("expand computed an answer it cannot print")

    monkeypatch.setattr("tabkit.cli.perm_class", fail)
    assert run(
        capsys, "expand", "--class-of", "2143", "--relation", "equiv2", "--format", "dot"
    ) == (2, "", DOT_CHOICE)


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_expand_class_of_builds_one_class(capsys, monkeypatch, relation):
    def fail(*args):
        raise AssertionError("expand --class-of partitioned all of S_n")

    for target in (
        "tabkit.equivalence.perm_classes",
        "tabkit.core.all_permutations",
    ):
        monkeypatch.setattr(target, fail)
    code, out, _ = run(
        capsys, "expand", "--class-of", "3152764", "--relation", relation,
        "--format", "json",
    )
    assert code == 0
    assert "3152764" in json.loads(out)["class"]["members"]


@pytest.mark.parametrize("relation", ["equiv2", "dual"])
def test_expand_class_of_closes_the_word(capsys, monkeypatch, relation):
    # a word-move relation's class is the closure of the word under its moves;
    # no shape of tableaux is partitioned
    def fail(*args):
        raise AssertionError("expand --class-of partitioned a shape")

    monkeypatch.setattr("tabkit.equivalence.syt_classes", fail)
    code, out, _ = run(
        capsys, "expand", "--class-of", "3152764", "--relation", relation,
        "--format", "json",
    )
    assert code == 0
    assert "3152764" in json.loads(out)["class"]["members"]


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_expand_class_of_at_the_degree_cap(capsys, relation):
    seed = "315892764"
    code, out, _ = run(
        capsys, "expand", "--class-of", seed, "--relation", relation, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    members = [word_from_str(m) for m in data["class"]["members"]]
    assert data["class"]["size"] == len(members) == len(set(members))
    assert word_from_str(seed) in members

    # move-closed: word moves act on the members themselves; tableau moves
    # act on the insertion tableaux, with the seed's recording tableau fixed
    moves = tableau_moves(relation, 9)
    if CARRIERS[relation] == "SYT":
        seed_q = rsk(word_from_str(seed))[1]
        pairs = [rsk(w) for w in members]
        assert all(q == seed_q for _p, q in pairs)
        carrier = {p for p, _q in pairs}
    else:
        carrier = set(members)
    for element in carrier:
        for name, idx, move in moves:
            assert move(element) in carrier, (name, idx, element)

    expected = {}
    for w in members:
        alpha = descent_composition(w)
        expected[alpha] = expected.get(alpha, 0) + 1
    got = {
        tuple(term["composition"]): term["coeff"]
        for term in data["fundamental"]["coeffs"]
    }
    assert got == expected


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_commands_run(capsys, monkeypatch, tmp_path):
    # every `tabkit` line of README's sh blocks exits 0 with nothing on
    # stderr, run from a scratch directory so that --out stays out of the repo
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("tabkit ")
    ]
    assert {argv[0] for argv in commands} == {"classes", "expand", "verify"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_marker_mismatch_is_reported_not_raised(capsys, monkeypatch, fmt):
    # markers that disagree with the slinky straightening are one error line
    # naming both expansions, exit 1, and nothing on stdout
    monkeypatch.setattr(qsym, "_marker_shape", lambda member, relation: None)
    with pytest.raises(qsym.MarkerMismatchError) as caught:
        schur_expand_class_union([cli.perm_class((2, 1, 4, 3), "dual")])
    assert caught.value.markers == qsym.SchurExpansion(4, {})
    assert caught.value.straightened == qsym.SchurExpansion(4, {(2, 2): 1})
    code, out, err = run(
        capsys, "expand", "--class-of", "2143", "--relation", "dual", "--format", fmt
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: class of 2143 under dual: marker counts SchurExpansion(4, {})"
        " disagree with slinky sum SchurExpansion(4, {(2, 2): 1})\n"
    )


def test_expand_quasischur_exact_coefficients(capsys):
    # the lead-table solve is in integers, so each coefficient is written as
    # it is: a JSON integer, and an integer in the text
    for n in range(1, 7):
        for alpha in compositions(n):
            decomposition = decompose_in_fk(quasi_schur(alpha), 2)
            assert all(type(c) is int for c in decomposition.values()), alpha
            terms = sorted(decomposition.items())
            code, out, _ = run(
                capsys, "expand", "--quasischur", parts_to_str(alpha), "--format", "json"
            )
            assert code == 0
            assert json.loads(out)["f2_decomposition"] == [
                {"class": word_to_str(key), "coeff": c} for key, c in terms
            ]
            code, out, _ = run(capsys, "expand", "--quasischur", parts_to_str(alpha))
            assert code == 0
            assert out.splitlines()[2:] == [f"  {c} * f[{word_to_str(key)}]" for key, c in terms]


def test_expand_quasischur_outside_the_span(capsys, monkeypatch):
    def outside(q, k):
        raise DecompositionError([Fraction(1)])

    monkeypatch.setattr("tabkit.cli.decompose_in_fk", outside)
    code, out, err = run(capsys, "expand", "--quasischur", "2,1", "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "outside the span" in err


def test_expand_quasischur_outside_the_lead_table(capsys, monkeypatch):
    # a family table without the first lead of S(2,1): decompose_in_fk
    # itself finds the function outside the span
    lead = next(i for i, c in enumerate(quasi_schur((2, 1)).to_vector()) if c)
    real = qsym.fk_lead_table
    monkeypatch.setattr(qsym, "fk_lead_table", lambda k, n: {
        at: entry for at, entry in real(k, n).items() if at != lead
    })
    assert run(capsys, "expand", "--quasischur", "2,1") == (
        1, "", "error: S(2,1): function is outside the span of the family\n"
    )


def test_expand_quasischur_at_the_degree_cap(capsys):
    code, out, _ = run(capsys, "expand", "--quasischur", "2,3,2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    family = {
        word_to_str(cls.key): class_union_qsym([cls]) for cls in syt_classes(9, "equiv2")
    }
    terms = data["f2_decomposition"]
    assert terms and all(type(t["coeff"]) is int and t["coeff"] >= 0 for t in terms)
    rebuilt = qsym_sum((family[t["class"]].scale(t["coeff"]) for t in terms), 9)
    fundamental = {
        tuple(term["composition"]): term["coeff"]
        for term in data["fundamental"]["coeffs"]
    }
    assert rebuilt.coeffs == fundamental


def test_expand_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "expand", "--shape", "2,2", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["input"] == {"shape": [2, 2]}


@pytest.mark.parametrize(
    "suite", ["poset", "involutions", "commutation", "mason", "shifted", "conjecture"]
)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "5")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_suites_run_no_insertion_and_move_no_tableau(capsys, monkeypatch):
    # every suite moves reading words through the class engine's word moves:
    # with insertion, inverse insertion and Tableau.with_word broken in every
    # module that binds them, each suite prints what it printed before
    argvs = [
        ["verify", "--suite", suite, "--n", "6", "--format", fmt]
        for suite in SUITE_RUNNERS
        for fmt in ("text", "json")
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def fail(*args):
        raise AssertionError("a suite inserted a word or moved a tableau")

    monkeypatch.setattr("tabkit.tableaux.Tableau.with_word", fail)
    for module in (cli, equivalence, operators, qsym, rsk_module):
        for name in ("rsk", "rsk_rows", "rsk_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    assert [run(capsys, *argv) for argv in argvs] == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_out_write_failure_exits_2(capsys):
    # /dev/full opens but refuses every write: the failed write or close is
    # a usage error with exit 2, not a traceback
    code, out, err = run(capsys, "classes", "--relation", "dual", "--n", "4", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --out: [Errno {errno.ENOSPC}]")


def test_involutions_checks_every_composition_of_n(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "involutions", "--n", "7", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    alpha = (2, 1, 3, 1)
    dq = [c for c in checks if c["name"].endswith(f"on SRCT({alpha})")]
    assert [c["name"] for c in dq] == [f"DQ_{i} on SRCT({alpha})" for i in range(2, 7)]
    assert all(c["ok"] for c in checks)


def test_window_words_are_the_least_words_of_their_window_patterns():
    assert [len(cli._window_words(n)) for n in range(1, 10)] == [0, 0, 0, 24, 42, 60, 78, 96, 114]
    for n in range(4, 7):
        words = cli._window_words(n)
        assert words == sorted(set(words))
        # the least word of S_n that holds the window's values in a given
        # order is the window word with that order
        least = {}
        for w in all_permutations(n):
            for low in range(1, n - 2):
                least.setdefault((low, tuple(v for v in w if low <= v <= low + 3)), w)
        assert sorted(set(least.values())) == words


BROKEN_TABLES = {
    "restricted entry deleted": (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), None),
    "shifted entry deleted": (SHIFTED_WINDOW_TABLE, (1, 4, 3, 2), None),
    "restricted entry misdirected": (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2)),
}


@pytest.mark.parametrize("broken", [None, *BROKEN_TABLES])
def test_window_suites_match_the_s_n_sweep(monkeypatch, broken):
    # the window words decide every word check as the sweep of S_n does, with
    # the same witnesses, on the true tables and on broken ones
    degrees = range(4, 8)
    if broken is not None:
        table, key, image = BROKEN_TABLES[broken]
        if image is None:
            monkeypatch.delitem(table, key)
        else:
            monkeypatch.setitem(table, key, image)
        degrees = range(4, 7)
    for n in degrees:
        by_window = (cli.suite_involutions(n), cli.suite_shifted(n))
        with monkeypatch.context() as sweep:
            sweep.setattr(cli, "_window_words", all_permutations)
            assert (cli.suite_involutions(n), cli.suite_shifted(n)) == by_window
        if broken is not None:
            assert not all(ok for _, ok, _ in by_window[0] + by_window[1])


@pytest.mark.parametrize("suite", ["involutions", "shifted"])
def test_window_suites_never_sweep_s_n(capsys, monkeypatch, suite):
    def fail(n):
        raise AssertionError("a window suite swept S_n")

    monkeypatch.setattr("tabkit.core.all_permutations", fail)
    monkeypatch.setattr(cli, "all_permutations", fail)
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "6")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].endswith(" 0 failed")


def test_shifted_carrier_escape_is_a_failed_check(capsys, monkeypatch):
    # a restricted table entry that sends an SST reading word outside SST(lam)
    # fails the transitivity check with the escaping word, not a traceback
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    code, out, err = run(capsys, "verify", "--suite", "shifted", "--n", "7")
    assert code == 1 and err == ""
    witness = "move dR.flip_2 left the carrier at (4, 5, 7, 1, 2, 3, 6)"
    lines = out.splitlines()
    assert f"[FAIL] flip-conjugated moves transitive on SST((4, 3))  witness: {witness!r}" in lines
    assert lines[-1] == "suite shifted: 5 passed, 9 failed"


def test_broken_restricted_entry_names_the_move(capsys, monkeypatch):
    # a table entry whose image is no SYT leaves the carrier of reading words
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    message = "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"
    with pytest.raises(CarrierError) as caught:
        syt_classes(6, "equiv2")
    assert str(caught.value) == message
    code, out, err = run(capsys, "classes", "--relation", "equiv2", "--n", "6")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_broken_shifted_entry_names_the_move(capsys, monkeypatch):
    # the carrier check of syt_classes is what proves each h_i image an SYT
    monkeypatch.setitem(SHIFTED_WINDOW_TABLE, (1, 2, 4, 3), (1, 2, 3, 4))
    message = "move h_3 left the carrier at (3, 4, 6, 1, 2, 5)"
    for classes in (syt_classes, perm_classes):
        with pytest.raises(CarrierError) as caught:
            classes(6, "shifted")
        assert str(caught.value) == message
    code, out, err = run(capsys, "classes", "--relation", "shifted", "--n", "6")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("relation, entry, message", [
    ("equiv2", (RESTRICTED_WINDOW_TABLE, (1, 3, 4, 2), (3, 1, 4, 2)),
     "move dR_4 left the carrier at (3, 5, 6, 1, 2, 4, 7)"),
    ("equiv2rev", (RESTRICTED_WINDOW_TABLE, (1, 3, 4, 2), (3, 1, 4, 2)),
     "move dR.rev_4 left the carrier at (4, 6, 2, 5, 1, 3, 7)"),
    ("equiv2flip", (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2)),
     "move dR.flip_3 left the carrier at (3, 4, 6, 1, 2, 5, 7)"),
    ("dual", (DUAL_WINDOW_TABLE, (2, 1, 3), (1, 2, 3)),
     "move d_2 left the carrier at (2, 1, 3, 4, 5, 6, 7)"),
    ("shifted", (SHIFTED_WINDOW_TABLE, (1, 2, 4, 3), (1, 2, 3, 4)),
     "move h_3 left the carrier at (3, 4, 6, 1, 2, 5, 7)"),
])
def test_escape_in_a_window_that_misses_n_is_named_as_before(capsys, monkeypatch, relation, entry, message):
    # the first move to leave SYT(lam) has a window that misses n = 7, so
    # its table is read off SYT(lam less a corner); the escape still names
    # the first word, in carrier order, that any move takes outside, and the
    # first such move, as move_tables on the words of SYT(lam) does
    _name, i = re.match(r"move (\S+)_(\d+) ", message).groups()
    assert MOVES[relation][3][0](int(i), 7)[1] < 7
    monkeypatch.setitem(*entry)
    reference = []
    for lam in partitions(7):
        try:
            move_tables(enumerate_words(lam, "SYT"), moves_for(relation, lam))
        except CarrierError as exc:
            reference.append(str(exc))
    assert reference[0] == message
    for classes in (syt_classes, perm_classes):
        with pytest.raises(CarrierError) as caught:
            classes(7, relation)
        assert str(caught.value) == message
    code, out, err = run(capsys, "classes", "--relation", relation, "--n", "7")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _perm_classes_error(capsys, relation):
    """The CarrierError message of perm_classes(6, relation), checked to be
    the one error line of `classes` on S_6, with exit 1."""
    with pytest.raises(CarrierError) as caught:
        perm_classes(6, relation)
    message = str(caught.value)
    code, out, err = run(capsys, "classes", "--relation", relation, "--n", "6")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    return message


def test_knuth_class_of_the_wrong_size_is_named(capsys, monkeypatch):
    # perm_classes carries words across Q along the Knuth class of one word
    # per shape: a K_j that fixes every word reaches one word, not f^lam
    monkeypatch.setattr(equivalence, "knuth_move", lambda j, w: w)
    message = _perm_classes_error(capsys, "shifted")
    assert message == (
        "the Knuth class of (2, 1, 3, 4, 5, 6) holds 1 words, not |SYT(5, 1)| = 5"
    )
    assert "left the carrier" not in message


def test_knuth_image_that_repeats_a_value_leaves_the_carrier(capsys, monkeypatch):
    # a K_j image outside S_n is named by the word search, as in closure
    monkeypatch.setattr(equivalence, "knuth_move", lambda j, w: w[:j - 1] + w[j - 2:j - 1] + w[j:])
    assert _perm_classes_error(capsys, "equiv2flip") == (
        "move K_2 left the carrier at (1, 2, 3, 4, 5, 6)"
    )


def test_broken_dual_entry_leaves_the_s_n_transport_alone(capsys, monkeypatch):
    # the transport across Q moves words by K_j and reads no d_j table, so a
    # broken d_2 entry fails only the relation that moves by d_j
    expected = run(capsys, "classes", "--relation", "shifted", "--n", "6")
    monkeypatch.setitem(DUAL_WINDOW_TABLE, (2, 1, 3), (1, 2, 3))
    assert run(capsys, "classes", "--relation", "shifted", "--n", "6") == expected
    assert expected[0] == 0
    assert run(capsys, "classes", "--relation", "dual", "--n", "6") == (
        1, "", "error: move d_2 left the carrier at (2, 1, 3, 4, 5, 6)\n"
    )


# window entries whose image repeats a value, so it leaves S_n
LEAVING_S_N = {
    "dR": (RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (1, 1, 3, 4)),
    "h": (SHIFTED_WINDOW_TABLE, (1, 2, 4, 3), (1, 1, 4, 3)),
}


@pytest.mark.parametrize("entry, argv, failed", [
    ("dR", ("verify", "--suite", "involutions", "--n", "6"), [
        f"[FAIL] dR_{i} on S_6  witness: {w}"
        for i, w in ((2, (2, 1, 3, 4, 5, 6)), (3, (1, 3, 2, 4, 5, 6)), (4, (1, 2, 4, 3, 5, 6)))
    ]),
    ("h", ("verify", "--suite", "involutions", "--n", "6"), [
        f"[FAIL] h_{i} on S_6  witness: {w}"
        for i, w in ((1, (1, 2, 4, 3, 5, 6)), (2, (1, 2, 3, 5, 4, 6)), (3, (1, 2, 3, 4, 6, 5)))
    ]),
    ("dR", ("verify", "--suite", "commutation", "--n", "6"), [
        "[FAIL] suite commutation runs to completion at n = 6  witness:"
        " 'move dR_4 left the carrier at (1, 2, 4, 3, 5, 6)'"
    ]),
    ("dR", ("expand", "--class-of", "213456", "--relation", "equiv2"),
     "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"),
    ("dR", ("expand", "--class-of", "654312", "--relation", "equiv2rev"),
     "move dR.rev_2 left the carrier at (6, 5, 4, 3, 1, 2)"),
    ("dR", ("expand", "--class-of", "123465", "--relation", "equiv2flip"),
     "move dR.flip_2 left the carrier at (1, 2, 3, 4, 6, 5)"),
    ("h", ("expand", "--class-of", "124356", "--relation", "shifted"),
     "move h_1 left the carrier at (1, 2, 4, 3, 5, 6)"),
], ids=[
    "involutions-dR", "involutions-h", "commutation-dR",
    "class-of-equiv2", "class-of-equiv2rev", "class-of-equiv2flip", "class-of-shifted",
])
def test_move_that_leaves_s_n_exits_1(capsys, monkeypatch, entry, argv, failed):
    # a move image outside S_n fails the check that meets it, with a word
    # as witness, or is one error line; never a traceback
    monkeypatch.setitem(*LEAVING_S_N[entry])
    code, out, err = run(capsys, *argv)
    assert code == 1 and "Traceback" not in err
    if argv[0] == "verify":
        assert err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == failed
    else:
        assert (out, err) == ("", f"error: {failed}\n")


def test_wrong_run_sizes_are_reported_not_raised(capsys, monkeypatch):
    # a run exchange that misses its run sizes is one error line for classes
    # and the failed backstop check for verify, both a failed check (exit 1)
    monkeypatch.setattr(operators, "_exchange", misfiled_exchange(operators._exchange))
    message = (
        "run exchange on (2, 1, 3, 4, 5, 6) of shape (5, 1) gives run sizes"
        " (3, 3), not (4, 2)"
    )
    code, out, err = run(capsys, "classes", "--relation", "equiv1", "--n", "6")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "verify", "--suite", "involutions", "--n", "6")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"[FAIL] suite involutions runs to completion at n = 6  witness: {message!r}",
        "suite involutions: 0 passed, 1 failed",
    ]


def test_runs_that_miss_a_position_are_reported_not_raised(capsys, monkeypatch):
    # an exchange that puts a position in two runs, and so another in none,
    # is caught by the run check, before the carrier check sees the image
    monkeypatch.setattr(operators, "_exchange", duplicated_exchange(operators._exchange))
    message = (
        "run exchange on (2, 1, 3, 4, 5, 6) of shape (5, 1) leaves position 1"
        " out of its runs"
    )
    for relation in ("equiv0", "equiv1"):
        code, out, err = run(capsys, "classes", "--relation", relation, "--n", "6")
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_quasischur_that_leaves_its_carrier_exits_1(capsys, monkeypatch, fmt):
    # the k = 2 family's classes meet the broken move: one error line and
    # exit 1, not a traceback; a fresh cache makes the family be rebuilt
    monkeypatch.setattr(qsym, "fk_lead_table", lru_cache(maxsize=None)(fk_lead_table.__wrapped__))
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    message = "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"
    code, out, err = run(capsys, "expand", "--quasischur", "3,2,1", "--format", fmt)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_class_of_with_wrong_run_sizes_exits_1(capsys, monkeypatch, fmt):
    # the slink class of the word meets the misfiled run exchange
    monkeypatch.setattr(operators, "_exchange", misfiled_exchange(operators._exchange))
    message = (
        "run exchange on (2, 1, 3, 4, 5, 6) of shape (5, 1) gives run sizes"
        " (3, 3), not (4, 2)"
    )
    code, out, err = run(
        capsys, "expand", "--class-of", "213456", "--relation", "equiv1", "--format", fmt
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("suite, message", [
    ("poset", "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"),
    ("conjecture", "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"),
])
def test_suite_that_leaves_its_carrier_fails_with_exit_1(capsys, monkeypatch, suite, message):
    # a move image outside the carrier fails the suite with the error text as
    # witness, in text and JSON alike, instead of ending in a traceback
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    name = f"suite {suite} runs to completion at n = 6"
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "6")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"[FAIL] {name}  witness: {message!r}",
        f"suite {suite}: 0 passed, 1 failed",
    ]
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "6", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "suite": suite, "n": 6, "passed": 0, "failed": 1,
        "checks": [{"name": name, "ok": False, "witness": repr(message)}],
    }


def test_conjecture_verdict_never_rests_on_a_cached_lead_table(capsys, monkeypatch):
    # decompose_in_fk caches fk_lead_table(k, n); the suite builds its own
    # classes, so a broken move still fails it after every table is cached
    for k in (0, 1, 2):
        assert len(fk_lead_table(k, 6)) == 32
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    message = "move dR_2 left the carrier at (2, 1, 3, 4, 5, 6)"
    code, out, err = run(capsys, "verify", "--suite", "conjecture", "--n", "6")
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == (
        f"[FAIL] suite conjecture runs to completion at n = 6  witness: {message!r}"
    )


def test_conjecture_suite_matches_the_rank_oracle():
    # each family's lead table decides what the exact ranks decide
    for n in range(1, 8):
        expected = []
        for k in (0, 1, 2):
            report = family_independence_report(k, n)
            dimension = report["dimension"]
            name = (f"k={k} family is a unitriangular basis of QSym_{n}: "
                    f"{report['classes']} classes, {report['distinct']} leads of {dimension}")
            ok = report["rank"] == report["distinct"] == dimension
            expected.append((name, ok))
        assert [(name, ok) for name, ok, _ in cli.suite_conjecture(n)] == expected


def _equiv2_shares_a_lead(monkeypatch):
    # equiv2 class (2, 5, 1, 3, 4) gets the function of (2, 4, 1, 3, 5) plus
    # F(1,1,1,1,1): a different function with the same lead 2
    real = qsym.class_union_qsym
    donor = next(c for c in syt_classes(5, "equiv2") if c.key == (2, 4, 1, 3, 5))

    def shared(classes):
        if classes[0].relation == "equiv2" and classes[0].key == (2, 5, 1, 3, 4):
            return real([donor]) + QsymElement.fundamental((1, 1, 1, 1, 1))
        return real(classes)

    monkeypatch.setattr(qsym, "class_union_qsym", shared)


def _swap_classes(monkeypatch, *relations):
    real = cli.syt_classes
    monkeypatch.setattr(
        cli, "syt_classes", lambda n, r: real(n, "dual" if r in relations else r)
    )


@pytest.mark.parametrize("inject, failed", [
    (lambda mp: _swap_classes(mp, "equiv0", "equiv2"), [
        ("k=0 family is a unitriangular basis of QSym_5: 7 classes, 7 leads of 16",
         {"least missing lead": 4}),
        ("k=2 family is a unitriangular basis of QSym_5: 7 classes, 7 leads of 16",
         {"least missing lead": 4}),
    ]),
    (_equiv2_shares_a_lead, [
        ("k=2 family is a unitriangular basis of QSym_5: 17 classes, not unitriangular",
         {"classes": ((2, 4, 1, 3, 5), (2, 5, 1, 3, 4)), "lead": 2}),
    ]),
    (lambda mp: _swap_classes(mp, "equiv1"), [
        ("k=1 family is a unitriangular basis of QSym_5: 7 classes, 7 leads of 16",
         {"least missing lead": 4}),
    ]),
], ids=["missing-lead", "shared-lead", "k1-missing-lead"])
def test_conjecture_failed_checks_name_a_witness(capsys, monkeypatch, inject, failed):
    inject(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", "conjecture", "--n", "5")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        f"[FAIL] {name}  witness: {witness!r}" for name, witness in failed
    ]
    assert lines[-1] == f"suite conjecture: {3 - len(failed)} passed, {len(failed)} failed"
    code, out, err = run(capsys, "verify", "--suite", "conjecture", "--n", "5", "--format", "json")
    assert (code, err) == (1, "")
    assert [
        (c["name"], c["witness"]) for c in json.loads(out)["checks"] if not c["ok"]
    ] == [(name, repr(witness)) for name, witness in failed]


def test_commutation_matches_word_oracle():
    for n in range(1, 8):
        assert suite_commutation(n) == commutation_by_words(n)


def test_commutation_unbumps_each_word_once(monkeypatch):
    # the words of S_n come from the RSK pair grid: one reverse bump per word
    # and one row sequence per recording tableau, each SYT(lam) in turn
    unbumped, sequenced = [], []

    def counted_unbump(p_rows, steps):
        unbumped.append(unbump(p_rows, steps))
        return unbumped[-1]

    def counted_row_sequence(q_rows):
        sequenced.append(tuple(map(tuple, q_rows)))
        return row_sequence(q_rows)

    monkeypatch.setattr(cli, "unbump", counted_unbump)
    monkeypatch.setattr(cli, "row_sequence", counted_row_sequence)
    for n in range(1, 7):
        unbumped.clear()
        sequenced.clear()
        assert all(ok for _, ok, _ in suite_commutation(n))
        assert sorted(unbumped) == all_permutations(n)
        assert sequenced == [t.rows for t in syt_universe(n)]


@pytest.mark.parametrize("name, broken", [
    # every pair gives the identity word: it comes six times, the others never
    ("unbump", lambda p_rows, steps: tuple(sorted(unbump(p_rows, steps)))),
    # the last shape is skipped: its words are missing from the grid
    ("partitions", lambda n: partitions(n)[:-1]),
    # each tableau is listed twice: every word comes four times
    ("enumerate_words", lambda shape, flavor: 2 * enumerate_words(shape, flavor)),
], ids=["repeated-word", "missing-shape", "repeated-tableaux"])
def test_commutation_grid_that_misses_a_word_is_a_failed_check(capsys, monkeypatch, name, broken):
    # pairs that do not give each word of S_n once fail the backstop check
    # instead of tabulating a move
    monkeypatch.setattr(cli, name, broken)
    message = "the RSK pairs of size 3 do not give each word of S_3 once"
    with pytest.raises(CarrierError, match=message):
        suite_commutation(3)
    code, out, err = run(capsys, "verify", "--suite", "commutation", "--n", "3")
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == (
        f"[FAIL] suite commutation runs to completion at n = 3  witness: {message!r}"
    )


def test_commutation_misdirected_restricted_entry_fails_its_checks(capsys, monkeypatch):
    # a misdirected dR_i window keeps every word in S_n, so the suite runs to
    # completion and the checks it breaks name the oracle's witnesses
    monkeypatch.setitem(RESTRICTED_WINDOW_TABLE, (2, 1, 3, 4), (3, 1, 4, 2))
    results = suite_commutation(6)
    assert results == commutation_by_words(6)
    failed = [(name, witness) for name, ok, witness in results if not ok]
    assert len(results) == 20 and len(failed) == 12
    assert failed[0] == ("K_2 commutes with dR_2 on S_6", (2, 1, 3, 4, 5, 6))
    code, out, err = run(capsys, "verify", "--suite", "commutation", "--n", "6")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "suite commutation: 8 passed, 12 failed"


def _wrong_on(move, target, index):
    """`move`, except that at (index, target) it returns the word unmoved."""
    def wrong(i, w):
        if i == index and tuple(w) == target:
            return tuple(w)
        return move(i, w)
    return wrong


def _window_wrong_on(target, index):
    """`apply_window`, except that in the window of dR_index, the values
    index-1 .. index+2 under the restricted table, it returns target
    unmoved."""
    def wrong(w, low, high, table):
        if (low, high) == (index - 1, index + 2) and table is RESTRICTED_WINDOW_TABLE:
            if tuple(w) == target:
                return tuple(w)
        return apply_window(w, low, high, table)
    return wrong


@pytest.mark.parametrize(
    "name, move, index, target, failures",
    [
        ("knuth_move", knuth_move, 3, (2, 1, 4, 3, 5), 2),
        ("knuth_move", knuth_move, 2, (2, 4, 3, 5, 1), 2),
        # K_2 no longer acts on Q as d_2 there, yet every check still holds
        ("knuth_move", knuth_move, 2, (3, 5, 4, 2, 1), 0),
        ("restricted_dual_move", restricted_dual_move, 2, (2, 1, 4, 3, 5), 3),
        ("restricted_dual_move", restricted_dual_move, 3, (2, 4, 3, 5, 1), 3),
    ],
)
def test_commutation_mutant_reports_the_oracle_witnesses(
    monkeypatch, name, move, index, target, failures
):
    # the mutant leaves a word unmoved that the move moves; the suite names
    # the same failing checks and first failing words as the word oracle.
    # The suite binds K_j in cli, and dR_i through moves_for in equivalence
    # as `apply_window` on its window; the oracle's dR_i is
    # `operators.restricted_dual_move`, which calls `apply_window` there
    assert move(index, target) != target
    if name == "knuth_move":
        monkeypatch.setattr(cli, name, _wrong_on(move, target, index))
    else:
        for owner in (equivalence, operators):
            monkeypatch.setattr(owner, "apply_window", _window_wrong_on(target, index))
        assert operators.restricted_dual_move(index, target) == target
    results = suite_commutation(5)
    assert sum(not ok for _, ok, _ in results) == failures
    assert results == commutation_by_words(5)


def test_commutation_shape_change_is_a_failed_check(capsys, monkeypatch):
    # a slink whose image has another shape leaves the reading words of
    # SYT(lam), so the suite fails its backstop check with the move's carrier
    # witness and exits 1, not with a traceback
    monkeypatch.setattr(equivalence, "slink_word", lambda w, lam: tuple(sorted(w)))
    name = "suite commutation runs to completion at n = 4"
    message = "move slink_0 left the carrier at (2, 1, 3, 4)"
    code, out, err = run(capsys, "verify", "--suite", "commutation", "--n", "4")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"[FAIL] {name}  witness: {message!r}",
        "suite commutation: 0 passed, 1 failed",
    ]
    code, out, err = run(
        capsys, "verify", "--suite", "commutation", "--n", "4", "--format", "json"
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "suite": "commutation", "n": 4, "passed": 0, "failed": 1,
        "checks": [{"name": name, "ok": False, "witness": repr(message)}],
    }


@pytest.mark.parametrize("broken, message", [
    # K_2 copies the first letter over the second: 1234 -> 1134
    (lambda j, w: w[:j - 1] + w[j - 2:j - 1] + w[j:], "move K_2 left the carrier at (1, 2, 3, 4)"),
    # K_3 leaves S_4 only at 2143, after K_2 holds on every word
    (lambda j, w: (0,) * 4 if (j, w) == (3, (2, 1, 4, 3)) else knuth_move(j, w),
     "move K_3 left the carrier at (2, 1, 4, 3)"),
], ids=["every-word", "one-word"])
def test_knuth_image_outside_s_n_is_a_failed_check(capsys, monkeypatch, broken, message):
    # the suite that checks K_j names the first word whose image leaves S_n
    monkeypatch.setattr(cli, "knuth_move", broken)
    code, out, err = run(capsys, "verify", "--suite", "commutation", "--n", "4")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"[FAIL] suite commutation runs to completion at n = 4  witness: {message!r}",
        "suite commutation: 0 passed, 1 failed",
    ]


def test_poset_failed_refinement_names_a_witness(capsys, monkeypatch):
    # with the dual classes in place of the equiv0 ones, the first check
    # fails and names the least key of the first straddling class
    real = cli.syt_classes
    monkeypatch.setattr(
        cli, "syt_classes", lambda n, r: real(n, "dual" if r == "equiv0" else r)
    )
    name, ok, witness = cli.suite_poset(5)[0]
    assert name == "equiv0 refines equiv1 on SYT(5)" and not ok
    assert witness == next(
        cls.key for cls in real(5, "dual")
        if len({c.key for c in real(5, "equiv1") for m in cls.members if m in c}) > 1
    )
    code, out, _ = run(capsys, "verify", "--suite", "poset", "--n", "5")
    assert code == 1
    assert f"[FAIL] {name}  witness: {witness!r}" in out.splitlines()


def _poset_s_n_checks(n, classes_of):
    """The (name, ok) pairs of the poset suite's two S_n checks, built from
    whole classes of S_n: equiv2 against the reversed and the flipped
    shifted classes."""
    fine, shifted = classes_of("equiv2"), classes_of("shifted")
    return [
        (
            f"equiv2 refines {name} shifted classes on S_{n}",
            refines(fine, [EquivClass(name, map(image, cls)) for cls in shifted]),
        )
        for name, image in (("reversed", reverse_word), ("flipped", flip))
    ]


def _swept_classes(n):
    """Union-find over all of S_n under the word moves of equiv2 or shifted."""
    def classes_of(relation):
        if relation == "equiv2":
            moves = [("dR", i, lambda w, i=i: restricted_dual_move(i, w)) for i in range(2, n - 1)]
        else:
            moves = moves_for(relation, (n,))
        return all_classes(all_permutations(n), moves, relation)
    return classes_of


def _poset_s_n_results(n):
    return [r for r in cli.suite_poset(n) if r[0].endswith(f"shifted classes on S_{n}")]


def test_poset_s_n_checks_match_the_sweep_of_s_n():
    for n in range(1, 8):
        results = _poset_s_n_results(n)
        assert [r[:2] for r in results] == _poset_s_n_checks(n, _swept_classes(n))
        assert all(ok for _, ok, _ in results)


def test_poset_s_n_checks_match_perm_classes_on_broken_tables(monkeypatch):
    # with each inverse pair of the shifted table removed in turn, the
    # checks on SYT(n) give the verdicts of the construction from whole
    # perm_classes, and each failure names the least reading word, over all
    # shapes, of an equiv2rev (equiv2flip) class that no shifted class holds
    pairs = [(a, b) for a, b in SHIFTED_WINDOW_TABLE.items() if a < b]
    assert len(pairs) == 8
    failing = 0
    for n in (5, 6):
        for pair in pairs:
            with monkeypatch.context() as broken:
                for key in pair:
                    broken.delitem(SHIFTED_WINDOW_TABLE, key)
                results = _poset_s_n_results(n)
                expected = _poset_s_n_checks(n, lambda r: perm_classes(n, r))
                assert [r[:2] for r in results] == expected, pair
                for (_, ok, witness), relation in zip(results, ("equiv2rev", "equiv2flip")):
                    if ok:
                        continue
                    shape = insertion_tableau(witness).shape
                    fine = next(c for c in syt_classes(shape, relation) if c.key == witness)
                    shifted = syt_classes(shape, "shifted")
                    assert sum(any(m in c for m in fine) for c in shifted) > 1
                failing += n == 6 and not all(ok for _, ok, _ in results)
    assert failing == 6


def test_poset_suite_never_sweeps_s_n(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the poset suite swept S_n")

    for target in (
        "tabkit.core.all_permutations",
        "tabkit.equivalence.perm_classes",
        "tabkit.equivalence.unbump",
        "tabkit.equivalence.knuth_move",
    ):
        monkeypatch.setattr(target, fail)
    monkeypatch.setattr(cli, "all_permutations", fail)
    code, out, err = run(capsys, "verify", "--suite", "poset", "--n", "6")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].endswith(" 0 failed")


def test_poset_carrier_escape_is_a_failed_check(capsys, monkeypatch):
    # a shifted table entry whose move sends an SYT outside SYT(lam) fails
    # both S_n checks with the escaping reading word, not a traceback
    monkeypatch.setitem(SHIFTED_WINDOW_TABLE, (1, 2, 4, 3), (1, 2, 3, 4))
    code, out, err = run(capsys, "verify", "--suite", "poset", "--n", "6")
    assert code == 1 and err == ""
    witness = "move h_3 left the carrier at (3, 4, 6, 1, 2, 5)"
    lines = out.splitlines()
    for name in ("reversed", "flipped"):
        assert f"[FAIL] equiv2 refines {name} shifted classes on S_6  witness: {witness!r}" in lines
    assert lines[-1] == "suite poset: 35 passed, 2 failed"


def test_mason_class_check_names_the_split_class():
    name = "every quasi-dual class of SRCT({}) generates a quasisymmetric Schur function"
    for n in range(1, 8):
        checks = [r for r in suite_mason(n) if r[0].startswith("every quasi-dual class")]
        assert len(checks) == 2 ** (n - 1) and all(ok for _, ok, _ in checks)
    # degree 8: SRCT((3,1,3,1)) splits 7 + 2; the 2-class is S_(2,1,3,2), the
    # 7-class sums to no S_beta and is the witness
    failed = [r for r in suite_mason(8) if not r[1]]
    alpha = (3, 1, 3, 1)
    assert [r[0] for r in failed] == [
        f"quasi-dual action transitive on SRCT({alpha})",
        name.format(alpha),
    ]
    classes = sorted(srct_classes(alpha), key=len)
    assert [len(c) for c in classes] == [2, 7]
    assert class_union_qsym([classes[0]]) == quasi_schur((2, 1, 3, 2))
    assert failed[1][2] == [(classes[1].key, class_union_qsym([classes[1]]))]


def test_mason_transitivity_names_every_class(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mason", "--n", "8", "--format", "json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    check = checks["quasi-dual action transitive on SRCT((3, 1, 3, 1))"]
    assert not check["ok"]
    assert check["witness"] == repr(
        [((1, 4, 3, 7, 8, 6, 5, 2), 7), ((2, 1, 4, 7, 8, 6, 5, 3), 2)]
    )
    transitive = [c for name, c in checks.items() if name.startswith("quasi-dual action")]
    assert [c["witness"] for c in transitive if c["ok"]] == [None] * (len(transitive) - 1)


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "conjecture", "--n", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(check["ok"] for check in data["checks"])


def test_verify_dot_rejected_before_any_work(capsys, monkeypatch):
    def fail(n):
        raise AssertionError("verify ran a suite it cannot print")

    monkeypatch.setitem(SUITE_RUNNERS, "poset", fail)
    assert run(capsys, "verify", "--suite", "poset", "--n", "3", "--format", "dot") == (
        2, "", DOT_CHOICE
    )


def test_verify_unknown_suite(capsys):
    suites = ", ".join(map(repr, SUITE_RUNNERS))
    assert run(capsys, "verify", "--suite", "nope") == (
        2, "", f"error: argument --suite: invalid choice: 'nope' (choose from {suites})\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--relation", "quasiDualSRCT", "--alpha", "2,,3"],
        ["expand", "--shape", "3,a"],
        ["expand", "--shape", "3,0"],
        ["expand", "--quasischur", "2,x"],
        ["expand", "--quasischur", "2,0"],
        ["expand", "--class-of", "12a4", "--relation", "equiv2"],
        ["expand", "--shape", "2,1", "--out", "/nonexistent/dir/x"],
        ["classes", "--relation", "equiv0", "--n", "0"],
        ["expand", "--shape", ""],
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_n_with_alpha_is_usage_error(capsys):
    assert run(
        capsys, "classes", "--relation", "quasiDualSRCT", "--alpha", "2,2", "--n", "7"
    ) == (2, "", "error: argument --n: not allowed with argument --alpha\n")


@pytest.mark.parametrize("argv", [
    [],
    ["classes", "--n", "4"],
    ["verify", "--suite", "nope"],
    ["classes", "--n", "7", "--alpha", "2,2"],
    ["expand"],
    ["expand", "--shape", "2,1", "--quasischur", "2,1"],
    ["expand", "--shape", "2,1", "--format", "dot"],
    ["verify", "--suite", "poset", "--format", "dot"],
    ["classes", "--relation", "nope", "--n", "4"],
    ["expand", "--class-of", "2143", "--relation", "nope"],
    ["expand", "--class-of", "2143", "--relation", "quasiDualSRCT"],
])
def test_every_usage_error_is_one_line_returned_by_main(capsys, argv):
    # argparse's own errors too: main returns 2, with no usage block and no SystemExit
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


def test_help_offers_each_commands_choices(capsys):
    helps = {}
    for command in ("classes", "expand", "verify"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "[--format {text,json,dot}]" in helps["classes"]
    assert "[--format {text,json}]" in helps["expand"]
    assert "[--format {text,json}]" in helps["verify"]
    assert f"--relation {{{','.join(RELATIONS)}}}" in helps["classes"]
    assert f"[--relation {{{','.join(WORD_RELATIONS)}}}]" in helps["expand"]


@pytest.mark.parametrize("argv", [
    ["classes", "--relation", "quasiDualSRCT", "--alpha", ""],
    ["expand", "--quasischur", ""],
])
def test_an_empty_composition_has_degree_0(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: degree must be >= 1\n")

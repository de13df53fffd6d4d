import json
from fractions import Fraction

import pytest

from tabkit.cli import SUITE_RUNNERS, main
from tabkit.core import descent_composition, word_from_str, word_to_str
from tabkit.equivalence import TABLEAU_RELATIONS, WORD_RELATIONS, moves_for, syt_classes
from tabkit.qsym import DecompositionError, class_union_qsym, qsym_sum
from tabkit.rsk import rsk


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


def test_classes_srct(capsys):
    code, out, _ = run(
        capsys, "classes", "--relation", "quasiDualSRCT", "--alpha", "2,3,2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1  # the action is transitive on this shape


def test_classes_usage_errors(capsys):
    code, _, err = run(capsys, "classes", "--relation", "nope", "--n", "4")
    assert code == 2 and "unknown relation" in err
    code, _, err = run(capsys, "classes", "--relation", "equiv2")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "classes", "--relation", "quasiDualSRCT", "--n", "4")
    assert code == 2


def test_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("TABKIT_MAX_DEGREE", "5")
    code, _, err = run(capsys, "classes", "--relation", "equiv2", "--n", "6")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("TABKIT_MAX_DEGREE", "abc")
    code, _, err = run(capsys, "classes", "--relation", "equiv2", "--n", "4")
    assert code == 2 and "integer" in err


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
    code, out, _ = run(
        capsys, "expand", "--class-of", "2134", "--relation", "equiv0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    if not data["symmetric"]:
        assert "witness" in data


def test_expand_quasischur(capsys):
    code, out, _ = run(capsys, "expand", "--quasischur", "2,3")
    assert code == 0
    assert "S(2,3)" in out and "decomposition" in out


def test_expand_usage_errors(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "expand", "--shape", "1,2")
    assert code == 2 and "not a partition" in err
    code, _, err = run(capsys, "expand", "--class-of", "1223", "--relation", "equiv2")
    assert code == 2 and "not a permutation" in err
    code, _, err = run(capsys, "expand", "--class-of", "1234")
    assert code == 2 and "--relation" in err
    code, _, err = run(capsys, "expand", "--shape", "2,1", "--format", "dot")
    assert code == 2
    for selector in (("--shape", "2,1"), ("--quasischur", "2,1")):
        code, _, err = run(capsys, "expand", *selector, "--relation", "nope")
        assert code == 2 and "--relation" in err


def test_expand_dot_rejected_before_any_work(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("expand computed an answer it cannot print")

    monkeypatch.setattr("tabkit.cli.perm_classes", fail)
    monkeypatch.setattr("tabkit.cli.perm_class", fail)
    code, _, err = run(
        capsys, "expand", "--class-of", "2143", "--relation", "equiv2", "--format", "dot"
    )
    assert code == 2 and "no dot output" in err


@pytest.mark.parametrize("relation", WORD_RELATIONS)
def test_expand_class_of_builds_one_class(capsys, monkeypatch, relation):
    def fail(*args):
        raise AssertionError("expand --class-of partitioned all of S_n")

    for target in (
        "tabkit.cli.perm_classes",
        "tabkit.equivalence.perm_classes",
        "tabkit.core.all_permutations",
        "tabkit.equivalence.all_permutations",
    ):
        monkeypatch.setattr(target, fail)
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
    moves = moves_for(relation, 9)
    if relation in TABLEAU_RELATIONS:
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


def test_expand_quasischur_exact_coefficients(capsys, monkeypatch):
    decomposition = {(1, 2, 3): Fraction(3), (2, 1, 3): Fraction(-1, 2)}
    monkeypatch.setattr("tabkit.cli.decompose_in_fk", lambda q, k, n: decomposition)
    code, out, _ = run(capsys, "expand", "--quasischur", "2,1", "--format", "json")
    assert code == 0
    terms = json.loads(out)["f2_decomposition"]
    assert terms == [
        {"class": "123", "coeff": 3},
        {"class": "213", "coeff": "-1/2"},
    ]
    code, out, _ = run(capsys, "expand", "--quasischur", "2,1")
    assert code == 0 and "  -1/2 * f[213]" in out


def test_expand_quasischur_outside_the_span(capsys, monkeypatch):
    def outside(q, k, n):
        raise DecompositionError([Fraction(1)])

    monkeypatch.setattr("tabkit.cli.decompose_in_fk", outside)
    code, out, err = run(capsys, "expand", "--quasischur", "2,1", "--format", "json")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "outside the span" in err


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
    code, out, err = run(capsys, "verify", "--suite", "poset", "--n", "3", "--format", "dot")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "no dot output" in err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


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
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_n_with_alpha_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--relation", "quasiDualSRCT", "--alpha", "2,2", "--n", "7"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err

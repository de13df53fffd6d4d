"""Semantic checks of the CLI's JSON outputs.

No byte goldens: each check recomputes what the answer must satisfy with
code of its own (descent compositions, SYT reading words, carrier sizes).
A check returns None when the output is right and a reason otherwise.
"""

import json
from fractions import Fraction
from math import factorial

from workloads import RECORDED_CLASS_COUNTS

TABLEAU_RELATIONS = ("equiv0", "equiv1", "equiv2", "dual")


def parse_word(text):
    text = text.strip()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)


def descent_composition(word):
    """Composition of len(word) cut after each i that occurs after i+1."""
    pos = {v: k for k, v in enumerate(word)}
    n = len(word)
    marks = [i for i in range(1, n) if pos[i] > pos[i + 1]] + [n]
    parts, prev = [], 0
    for m in marks:
        parts.append(m - prev)
        prev = m
    return tuple(parts)


def count_syt(n):
    """Standard Young tableaux of size n: the involutions of S_n."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def is_syt_reading_word(word):
    """True when word is the row reading word (top row first, French
    notation) of a standard Young tableau: its rows are its maximal
    increasing runs, they get no longer going up, and columns increase."""
    runs = [[word[0]]]
    for v in word[1:]:
        if v > runs[-1][-1]:
            runs[-1].append(v)
        else:
            runs.append([v])
    rows = runs[::-1]  # bottom row first
    for lower, upper in zip(rows, rows[1:]):
        if len(upper) > len(lower) or any(u <= lo for u, lo in zip(upper, lower)):
            return False
    return True


def f_sum(words):
    """Sum of F(descent composition) over the words, as {composition: coeff}."""
    out = {}
    for w in words:
        alpha = descent_composition(w)
        out[alpha] = out.get(alpha, 0) + 1
    return out


def reported_fundamental(payload):
    return {
        tuple(term["composition"]): term["coeff"]
        for term in payload["fundamental"]["coeffs"]
        if term["coeff"] != 0
    }


def exact(value):
    """A JSON coefficient as an exact rational: an integer or an "a/b" string."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"coefficient {value!r} is not exact")
    return Fraction(value)


def option(argv, name):
    return argv[argv.index(name) + 1]


def check_verify(argv, payload):
    if payload.get("failed") != 0:
        return f"verify reports {payload.get('failed')} failed checks"
    checks = payload.get("checks", [])
    if not checks or payload.get("passed") != len(checks):
        return "verify reports no checks or a pass count that disagrees"
    if not all(c.get("ok") is True for c in checks):
        return "a verify check is not ok"
    return None


def check_classes(argv, payload):
    relation, n = option(argv, "--relation"), int(option(argv, "--n"))
    seen = set()
    for cls in payload:
        members = [parse_word(m) for m in cls["members"]]
        if cls["relation"] != relation or cls["size"] != len(members) or not members:
            return f"class {cls['members'][:1]} has a wrong relation, size or no members"
        for w in members:
            if sorted(w) != list(range(1, n + 1)):
                return f"member {w} is not a permutation of [{n}]"
            if relation in TABLEAU_RELATIONS and not is_syt_reading_word(w):
                return f"member {w} is not the reading word of an SYT"
            if w in seen:
                return f"member {w} lies in two classes"
            seen.add(w)
    carrier = count_syt(n) if relation in TABLEAU_RELATIONS else factorial(n)
    if len(seen) != carrier:
        return f"classes cover {len(seen)} of the {carrier} carrier elements"
    recorded = RECORDED_CLASS_COUNTS.get((relation, n))
    if recorded is not None and len(payload) != recorded:
        return f"{len(payload)} classes, {recorded} recorded"
    return None


def check_class_of(argv, payload):
    seed = parse_word(option(argv, "--class-of"))
    members = [parse_word(m) for m in payload["class"]["members"]]
    if seed not in members:
        return f"the seed {seed} is not in its reported class"
    if payload["class"]["size"] != len(members) or len(set(members)) != len(members):
        return "class size disagrees with its distinct members"
    if any(sorted(w) != sorted(seed) for w in members):
        return "a member is not a permutation of the seed's values"
    if reported_fundamental(payload) != f_sum(members):
        return "the reported F-sum is not the sum of F(descent composition) over the class"
    return None


def check_quasischur(argv, payload, reference):
    n = sum(int(p) for p in option(argv, "--quasischur").split(","))
    family = reference(n)
    total = {}
    for term in payload["f2_decomposition"]:
        f = family.get(parse_word(term["class"]))
        if f is None:
            return f"{term['class']} is not the key of an equiv2 class of SYT({n})"
        coeff = exact(term["coeff"])
        for alpha, c in f.items():
            total[alpha] = total.get(alpha, 0) + coeff * c
    total = {alpha: c for alpha, c in total.items() if c != 0}
    if not total or total != reported_fundamental(payload):
        return "sum of coeff * F(class) is not the reported quasisymmetric Schur function"
    return None


def check(argv, rc, stdout, reference):
    """None when the command exited 0 and its JSON output is right; else why not.

    `reference(n)` maps the key of each equiv2 class of SYT(n) to its F-sum.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
        if argv[0] == "verify":
            return check_verify(argv, payload)
        if argv[0] == "classes":
            return check_classes(argv, payload)
        if "--class-of" in argv:
            return check_class_of(argv, payload)
        return check_quasischur(argv, payload, reference)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def equiv2_family(classes_json):
    """{class key: F-sum} from the JSON of `classes --relation equiv2`."""
    family = {}
    for cls in classes_json:
        members = [parse_word(m) for m in cls["members"]]
        family[min(members)] = f_sum(members)
    return family

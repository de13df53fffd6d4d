"""The benchmark's workloads: the CLI commands each one runs, why it was
chosen, and which per-layer metrics should move which end-to-end metric
(BENCHMARK.json holds the same in one line per workload).

Every command list runs in one fresh process, so caches start cold, as for a
CLI user.  Inputs depend only on (workload, seed): every child process of a
run gets the same commands, so each command is timed several times.
"""

import random

# Degrees: the full benchmark, and the small smoke-test version (n <= 5).
FULL = {"commutation": 6, "involutions": 7, "laws_classes": 9,
        "flip": 8, "tableau_classes": 9, "query": 8, "decompose": 8,
        "decompose_batch": 5}
SMALL = {"commutation": 5, "involutions": 5, "laws_classes": 5,
         "flip": 5, "tableau_classes": 5, "query": 5, "decompose": 5,
         "decompose_batch": 4}

QUERY_RELATIONS = ("equiv0", "equiv1", "equiv2", "dual", "shifted")

# Class counts of `classes --relation r --n n` recorded at the commit that
# added this benchmark; a change to any of them is a wrong answer.
RECORDED_CLASS_COUNTS = {
    ("equiv0", 9): 2104,
    ("equiv1", 9): 1849,
    ("equiv2", 9): 465,
    ("dual", 9): 30,
    ("shifted", 8): 3200,
    ("equiv2flip", 8): 9052,
    ("equiv2", 8): 194,
    ("equiv0", 5): 23,
    ("equiv1", 5): 22,
    ("equiv2", 5): 17,
    ("dual", 5): 7,
    ("shifted", 5): 56,
    ("equiv2flip", 5): 75,
}


def compositions(n):
    """All compositions of n, in lexicographic order."""
    if n == 0:
        return [()]
    return sorted(
        (first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)
    )


# Tableau construction and validation, slink/slink* run surgery and
# rsk/rsk_inverse do most of the work.
def _laws(rng, sizes):
    return [
        ["verify", "--suite", "commutation", "--n", str(sizes["commutation"])],
        ["verify", "--suite", "involutions", "--n", str(sizes["involutions"])],
        ["classes", "--relation", "equiv0", "--n", str(sizes["laws_classes"])],
        ["classes", "--relation", "equiv1", "--n", str(sizes["laws_classes"])],
    ], {}


# Full-carrier union-find plus the windowed word moves, with almost no
# Tableau or qsym work.
def _partition(rng, sizes):
    return [
        ["classes", "--relation", "shifted", "--n", str(sizes["flip"])],
        ["classes", "--relation", "equiv2flip", "--n", str(sizes["flip"])],
        ["classes", "--relation", "equiv2", "--n", str(sizes["tableau_classes"])],
        ["classes", "--relation", "dual", "--n", str(sizes["tableau_classes"])],
    ], {}


# The user asks for one class; a seed-local closure should show here and not
# in `partition`, and any cost it adds to full partitions shows there.
def _class_query(rng, sizes):
    word = list(range(1, sizes["query"] + 1))
    rng.shuffle(word)
    text = "".join(map(str, word))
    return [
        ["expand", "--class-of", text, "--relation", rel] for rel in QUERY_RELATIONS
    ], {"word": text}


# The exact solver does most of the work and no other workload touches it;
# several targets at one degree in one process show a factor-once cache.
def _decompose(rng, sizes):
    alphas = rng.sample(compositions(sizes["decompose"]), sizes["decompose_batch"])
    texts = [",".join(map(str, alpha)) for alpha in alphas]
    return [["expand", "--quasischur", text] for text in texts], {"compositions": texts}


WORKLOADS = {
    "laws": _laws,
    "partition": _partition,
    "class-query": _class_query,
    "decompose": _decompose,
}

# Which per-layer metric should move which end-to-end metric, on which
# workload; "none" lists the workloads where the prediction is no change.
PREDICTIONS = [
    {"layer_metrics": ["tableaux.self_s", "tableaux.Tableau.constructions",
                       "tableaux.restrict_to.calls", "tableaux.superstandard.calls",
                       "tableaux.enumerate_tableaux.us_per_tableau"],
     "moves": {"laws": ["run_ref"]}, "none": ["partition", "decompose"]},
    {"layer_metrics": ["rsk.self_s", "rsk.rsk.ns_per_call",
                       "rsk.rsk_inverse.ns_per_call", "rsk.knuth_move.calls"],
     "moves": {"laws": ["run_ref"], "class-query": ["cmd_p50_ref"]}},
    {"layer_metrics": ["operators.self_s", "operators.slink.calls",
                       "operators.slink.ns_per_call", "operators.slink_star.calls",
                       "operators.slink_star.ns_per_call"],
     "moves": {"laws": ["run_ref"]}},
    {"layer_metrics": ["operators.restricted_dual_move.calls",
                       "operators.restricted_dual_move.ns_per_call",
                       "operators.restricted_dual_move_tableau.calls",
                       "operators.restricted_dual_move_tableau.ns_per_call",
                       "operators.shifted_dual_move.calls",
                       "operators.shifted_dual_move.ns_per_call",
                       "operators.identity_ratio"],
     "moves": {"partition": ["run_ref"]}},
    {"layer_metrics": ["core.self_s", "core.calls"],
     "moves": {"partition": ["run_ref"]}},
    {"layer_metrics": ["equivalence.self_s", "equivalence.all_classes.elements",
                       "equivalence.all_classes.us_per_element"],
     "moves": {"partition": ["run_ref", "peak_rss_mb"]}},
    {"layer_metrics": ["equivalence.touched_per_member"],
     "moves": {"class-query": ["cmd_p50_ref"]}, "none": ["partition"]},
    {"layer_metrics": ["qsym.self_s", "qsym.solve_exact.calls",
                       "qsym.solve_exact.s_per_call", "qsym.solve_exact.cells",
                       "qsym.family_builds"],
     "moves": {"decompose": ["run_ref", "cmd_p50_ref"]},
     "none": ["laws", "partition", "class-query"]},
    {"layer_metrics": ["cli.self_s"], "moves": {"laws": ["run_ref"]}},
]


def build(workload, seed, small=False):
    """(command list, generated inputs) of a workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, SMALL if small else FULL)

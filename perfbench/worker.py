"""One benchmark child process: set up, run one command list, check it.

    python3 perfbench/worker.py --workload W --seed S --mode M [--small]

Modes: ``probe`` stops once set-up is done; ``plain`` runs the command list;
``traced`` runs it under the layer tracer.  Both time the reference loop
before and after each command.  The child prints one JSON object on stdout.
It runs from the root of a checkout and imports tabkit from ``src/`` there,
never from anywhere else.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads
from reference import seconds_per_loop

SRC = os.path.abspath("src")


def import_tabkit():
    """The checkout's tabkit package; refuses a tabkit from anywhere else."""
    sys.path.insert(0, SRC)
    import tabkit.cli

    if not os.path.abspath(tabkit.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tabkit imported from {tabkit.cli.__file__}, not {SRC}")
    return tabkit.cli


def run_command(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a dead run
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def run_list(main, commands, reference=None, counter=None):
    """Run the commands; per command its wall and CPU seconds and, with a
    ``counter``, how much the counter grew.  With a ``reference`` timer, also
    the reference time before the first command and after each one
    (``ref_s``, one more entry than commands)."""
    results = []
    ref_s = [reference()] if reference else None
    for argv in commands:
        n0 = counter() if counter else 0
        c0, t0 = time.process_time(), time.perf_counter()
        rc, out, err = run_command(main, argv)
        t1, c1 = time.perf_counter(), time.process_time()
        results.append({"argv": argv, "rc": rc, "out": out, "err": err,
                        "wall_s": t1 - t0, "cpu_s": c1 - c0,
                        "counted": (counter() if counter else 0) - n0})
        if reference:
            ref_s.append(reference())
    return results, ref_s


def check_all(main, results):
    """Check every output; returns the failure reasons, one per command."""
    from checks import check, equiv2_family

    families = {}

    def reference(n):
        if n not in families:
            rc, out, _ = run_command(main, ["classes", "--relation", "equiv2", "--n", str(n)])
            families[n] = equiv2_family(json.loads(out)) if rc == 0 else {}
        return families[n]

    return [check(r["argv"], r["rc"], r["out"], reference) for r in results]


def class_members(result):
    """Members a class-reporting command reported (0 for other commands)."""
    if result["rc"] != 0:
        return 0
    try:
        payload = json.loads(result["out"])
        if result["argv"][0] == "classes":
            return sum(cls["size"] for cls in payload)
        if "--class-of" in result["argv"]:
            return payload["class"]["size"]
    except (ValueError, KeyError, TypeError):
        pass
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "plain", "traced"))
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    cli = import_tabkit()
    commands, inputs = workloads.build(args.workload, args.seed, args.small)
    t_first = time.perf_counter()
    report = {"t_first": t_first, "inputs": inputs}
    if args.mode == "probe":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "traced":
        from layertrace import LAYERS, Tracer

        tracer = Tracer({name: sys.modules[f"tabkit.{name}"] for name in LAYERS})
        tracer.install()
        results, report["ref_s"] = run_list(
            tracer.entry(cli.main), commands, seconds_per_loop, tracer.touched
        )
        tracer.uninstall()
    else:
        results, report["ref_s"] = run_list(cli.main, commands, seconds_per_loop)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_all(cli.main, results)
    report.update({
        "run_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "cmd_s": [r["wall_s"] for r in results],
        "cmd_cpu_s": [r["cpu_s"] for r in results],
        "peak_rss_mb": rss_mb,
        "attempted": len(results),
        "failed": sum(f is not None for f in failures),
        "failures": [
            {"argv": r["argv"], "reason": f, "stderr": r["err"][-2000:]}
            for r, f in zip(results, failures) if f is not None
        ],
    })
    if tracer is not None:
        members = [class_members(r) for r in results]
        layer = tracer.layer_metrics()
        reported = sum(members)
        layer["equivalence.touched_per_member"] = (
            sum(r["counted"] for r, m in zip(results, members) if m) / reported
            if reported else 0.0
        )
        report["layer"] = layer
        report["spans"] = tracer.spans()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tabkit benchmark: CLI workloads timed end to end, and a traced run for
the per-layer numbers.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports tabkit from ``src/`` there.
Each command list runs in a fresh child process (``worker.py``), so caches
start cold, as for a CLI user.  Children run one at a time, single-threaded,
until ``--seconds`` have passed, all on the inputs the seed gives.

Every figure is a median over the children.  The gated command costs are in
reference units (``reference.py``): a command's wall time divided by the
time of a fixed pure-Python loop run just before and after it, which cancels
the slowdowns that other tenants of a shared machine cause.  The wall and
CPU seconds (``run_s``, ``cpu_s``, ``cmd_p50_s``) are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children on the same inputs and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object; the full record (inputs, environment, every child, the aggregated
spans) goes to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layertrace import PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

# set-up is ~80 ms and noisy: before each untraced child, time it in this
# many set-up-only children, so its samples spread over the whole run
SETUP_PROBES = 2
# every run ends well inside the 180 s allowed for one
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref": "ref",
    "cmd_p50_ref": "ref",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics, but too noisy on a shared machine to gate
WALL_UNITS = {"run_s": "s", "cpu_s": "s", "cmd_p50_s": "s"}


class BenchError(RuntimeError):
    pass


def spawn(args, mode, number, deadline):
    """Run one worker; its report, with setup_s measured from the spawn."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    if args.small:
        cmd.append("--small")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child {number} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child {number} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["mode"] = mode
    report["number"] = number
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    report["setup_s"] = report["t_first"] - t_spawn
    return report


def measure(args):
    deadline = time.perf_counter() + DEADLINE_S
    probes = []
    children = []
    t0 = time.perf_counter()
    number = 0
    while True:
        t_child = time.perf_counter()
        if not args.trace:
            probes += [spawn(args, "probe", number, deadline) for _ in range(SETUP_PROBES)]
        children.append(spawn(args, "plain", number, deadline))
        if args.trace:
            children.append(spawn(args, "traced", number, deadline))
        number += 1
        # start another child only if it should end within --seconds
        now = time.perf_counter()
        if now - t0 + (now - t_child) > args.seconds:
            break
    return probes, children


def per_command(reports, key):
    """Each command's median over the children (all run the same list)."""
    return [statistics.median(times) for times in zip(*(r[key] for r in reports))]


def ref_costs(report):
    """Each command's wall time over the mean reference time around it."""
    ref_s = report["ref_s"]
    return [wall / ((a + b) / 2) for wall, a, b in zip(report["cmd_s"], ref_s, ref_s[1:])]


def end_to_end(probes, plain):
    """(gated metrics, wall-clock metrics, how each was aggregated)."""
    ref = per_command(plain, "cmd_ref")
    wall = per_command(plain, "cmd_s")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + plain),
        "run_ref": sum(ref),
        "cmd_p50_ref": statistics.median(ref),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    clock = {
        "run_s": sum(wall),
        "cpu_s": sum(per_command(plain, "cmd_cpu_s")),
        "cmd_p50_s": statistics.median(wall),
    }
    each = f"{len(wall)} commands, each the median of {len(plain)} runs"
    samples = {
        "setup_s": f"median of {len(probes) + len(plain)}",
        "run_ref": f"sum over {each}",
        "cmd_p50_ref": f"median over {each}",
        "peak_rss_mb": f"median of {len(plain)}",
        "run_s": f"sum over {each}",
        "cpu_s": f"sum over {each}",
        "cmd_p50_s": f"median over {each}",
    }
    return metrics, clock, samples


def per_layer(plain, traced):
    metrics = {
        name: statistics.median(r["layer"][name] for r in traced)
        for name in PER_LAYER_UNITS if name != "trace_overhead"
    }
    metrics["trace_overhead"] = (
        sum(per_command(traced, "cmd_ref")) / sum(per_command(plain, "cmd_ref"))
    )
    return metrics


def src_digest():
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """The commit of a git checkout, read from .git; None outside one."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="degrees <= 5, for the smoke test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "tabkit", "cli.py")):
        print("error: run from the root of a tabkit checkout (no src/tabkit/cli.py here)",
              file=sys.stderr)
        return 2
    try:
        probes, children = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in children:
        r["cmd_ref"] = ref_costs(r)
    plain = [r for r in children if r["mode"] == "plain"]
    traced = [r for r in children if r["mode"] == "traced"]
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    if args.trace:
        metrics, clock, samples = per_layer(plain, traced), {}, {}
        units = PER_LAYER_UNITS
    else:
        metrics, clock, samples = end_to_end(probes, plain)
        units = {**END_TO_END_UNITS, **WALL_UNITS}

    print(f"# tabkit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} children={len(children)} ({len(probes)} set-up probes)")
    for r in children:
        print(f"#   {r['mode']} child {r['number']}: inputs {json.dumps(r['inputs'])} "
              f"run_s {r['run_s']:.4f}")
    for name, value in {**metrics, **clock}.items():
        count = f"  ({samples[name]})" if name in samples else ""
        print(f"{name} = {value:.6g} {units[name]}{count}")
    print(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} commands failed)")
    for r in children:
        for f in r["failures"]:
            print(f"#   FAILED {' '.join(f['argv'])}: {f['reason']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_clock": {k: {"value": v, "unit": units[k]} for k, v in clock.items()},
        "samples": samples,
        "error_rate": failed / attempted,
        "probes": probes,
        "children": children,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# record: {path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

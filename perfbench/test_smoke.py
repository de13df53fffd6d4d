"""Smoke test of the benchmark at degree <= 5.

    python3 perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that the output checker is not vacuous: a tampered output or a command
that exits 2 counts as failed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
os.chdir(ROOT)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc, proc.stdout.strip().splitlines()


def tamper(argv, payload):
    """A plausible wrong answer for each kind of command."""
    if argv[0] == "verify":
        payload["failed"] = 1
    elif argv[0] == "classes":
        payload[0]["members"].pop()
        payload[0]["size"] -= 1
    elif "--class-of" in argv:
        term = payload["fundamental"]["coeffs"][0]
        term["coeff"] += 1
    else:
        term = payload["f2_decomposition"][0]
        term["coeff"] += 1
    return payload


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc, lines = run_benchmark(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, expected
                    )
                    for name, unit in expected.items():
                        self.assertTrue(
                            any(line.startswith(f"{name} = ") and f" {unit}" in line
                                for line in lines),
                            f"{name} not printed with {unit}",
                        )
                    self.assertTrue(any(line.startswith("error_rate = 0 ") for line in lines))

    def test_predictions_name_real_metrics(self):
        names = {m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
        self.assertEqual(set(workloads.WORKLOADS), {w["name"] for w in SPEC["workloads"]})
        for p in workloads.PREDICTIONS:
            self.assertLessEqual(set(p["layer_metrics"]), names)
            for workload, metrics in p["moves"].items():
                self.assertIn(workload, workloads.WORKLOADS)
                self.assertLessEqual(set(metrics), names)
            self.assertLessEqual(set(p.get("none", ())), set(workloads.WORKLOADS))

    def test_checker_rejects_tampered_outputs(self):
        cli = worker.import_tabkit()
        for name in workloads.WORKLOADS:
            commands, _ = workloads.build(name, 7, small=True)
            results, _ = worker.run_list(cli.main, commands)
            self.assertEqual(worker.check_all(cli.main, results), [None] * len(results))
            for r in results:
                with self.subTest(argv=r["argv"]):
                    r["out"] = json.dumps(tamper(r["argv"], json.loads(r["out"])))
            failures = worker.check_all(cli.main, results)
            self.assertTrue(all(f is not None for f in failures), failures)

    def test_exit_2_counts_as_failed(self):
        cli = worker.import_tabkit()
        commands = [["classes", "--relation", "equiv2", "--n", "4"],
                    ["classes", "--relation", "no-such-relation", "--n", "4"],
                    ["verify", "--suite", "no-such-suite", "--n", "4"]]
        results, _ = worker.run_list(cli.main, commands)
        self.assertEqual([r["rc"] for r in results], [0, 2, 2])
        failures = worker.check_all(cli.main, results)
        self.assertIsNone(failures[0])
        self.assertEqual(failures[1:], ["exit code 2", "exit code 2"])

    def test_tracer_restores_every_binding(self):
        from layertrace import LAYERS, Tracer

        worker.import_tabkit()
        modules = {name: sys.modules[f"tabkit.{name}"] for name in LAYERS}
        owners = list(modules.values()) + [
            cls for m in modules.values() for cls in vars(m).values()
            if isinstance(cls, type) and cls.__module__ == m.__name__
        ]
        runners = dict(modules["cli"].SUITE_RUNNERS)
        before = [dict(vars(owner)) for owner in owners]
        original = modules["qsym"].syt_classes
        tracer = Tracer(modules)
        tracer.install()
        self.assertIsNot(modules["qsym"].syt_classes, original)
        tracer.uninstall()
        for owner, saved in zip(owners, before):
            now = dict(vars(owner))
            self.assertEqual(set(now), set(saved), owner)
            for name, value in saved.items():
                self.assertIs(now[name], value, f"{owner}.{name}")
        self.assertEqual(modules["cli"].SUITE_RUNNERS, runners)

    def test_recorded_counts_are_checked(self):
        cli = worker.import_tabkit()
        results, _ = worker.run_list(cli.main, [["classes", "--relation", "dual", "--n", "5"]])
        payload = json.loads(results[0]["out"])
        merged = payload[0]["members"] + payload[1]["members"]
        payload[:2] = [{"relation": "dual", "size": len(merged), "members": merged}]
        reason = checks.check(results[0]["argv"], 0, json.dumps(payload), None)
        self.assertIn("recorded", reason)


if __name__ == "__main__":
    unittest.main()

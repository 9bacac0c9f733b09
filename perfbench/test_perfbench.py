#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from the checkout root:

    python3 perfbench/test_perfbench.py

Builds the driver as run.py does, then checks that the correctness gate
reports a planted wrong golden as a failed operation, that a planted
warm-cache miss trips the warm assertion, that planted unspanned work
trips the reconciliation, that the gate reports the seed's component-key
collision, that --compare ignores only the commit, and that a short run
of every workload prints every metric of BENCHMARK.json with its unit,
with the per-layer values the workload's driver produced.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SMALL = "--workloads=conv,mm"


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PlantedFaults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe, _ = run.build()
        cls.tmp = run.build_dir() / "state" / "selftest"
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.tmp.mkdir(parents=True)

    def driver(self, mode, *args, env=None):
        return subprocess.run(
            [str(self.exe), mode, "--threads=4", *args], capture_output=True,
            text=True, env=dict(os.environ, **(env or {})))

    def test_wrong_golden_is_a_failed_operation(self):
        goldens = self.tmp / "goldens"
        goldens.mkdir()
        lines = (run.HERE / "goldens" / "sweep.txt").read_text().splitlines()
        i = next(n for n, l in enumerate(lines) if l.startswith("sweep/conv/"))
        key, digest = lines[i].split()
        lines[i] = f"{key} {'0' * 16 if digest != '0' * 16 else '1' * 16}"
        (goldens / "sweep.txt").write_text("\n".join(lines) + "\n")

        r = self.driver("sweep", SMALL, "--seconds=1",
                        f"--goldens={goldens}")
        self.assertEqual(r.returncode, 0, r.stderr)
        rec = last_json(r.stdout)
        # Every sweep pass checks the planted row once, and nothing else
        # fails.
        self.assertEqual(rec["failed"], len(rec["samples"]["wall_s"]))
        self.assertIn(f"mismatch at {key}", rec["failures"])

    def test_warm_cache_miss_trips_the_warm_assertion(self):
        cache, ref = self.tmp / "cache", self.tmp / "ref.csv"
        args = [SMALL, f"--cache-dir={cache}", f"--ref={ref}"]
        r = self.driver("populate", *args, env={"PRISM_RAM_CACHE_MB": "0"})
        self.assertEqual(r.returncode, 0, r.stderr)
        r = self.driver("warm", *args)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(last_json(r.stdout)["failed"], 0)

        sorted(cache.glob("conv-basecore-*.art"))[0].unlink()
        r = self.driver("warm", *args)
        self.assertEqual(r.returncode, 3)
        self.assertIn("warm assertion failed: basecore", r.stderr)

    def test_unspanned_work_trips_the_reconciliation(self):
        args = [SMALL, "--seconds=1", "--trace=1",
                f"--goldens={run.HERE / 'goldens'}"]
        r = self.driver("sweep", *args)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(last_json(r.stdout)["failed"], 0)

        # 400 ms of sleep per context in every untraced load phase: work
        # the DesignSearch phase time holds and no layer span covers.
        r = self.driver("sweep", *args, "--plant-gap-ms=400")
        self.assertEqual(r.returncode, 0, r.stderr)
        rec = last_json(r.stdout)
        self.assertGreater(rec["values"]["reconcile.gap_frac"], 0.25)
        self.assertTrue(any(f.startswith("reconcile load")
                            for f in rec["failures"]), rec["failures"])


class KnownSeedFailure(unittest.TestCase):
    def test_collision_check_reports_the_key_collision(self):
        r = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--collision-check"],
            capture_output=True, text=True, cwd=run.ROOT)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        res = last_json(r.stdout)
        # RAM tier on: one twin of each pair is handed the other's
        # tables. Off (the control): every row matches its golden.
        self.assertGreater(res["ram_on"]["failed"], 0)
        self.assertEqual(res["ram_off"]["failed"], 0)
        self.assertGreater(res["ram_off"]["attempted"], 0)


class Reporting(unittest.TestCase):
    def test_compare_ignores_only_the_commit(self):
        tmp = run.build_dir() / "state" / "selftest-compare"
        tmp.mkdir(parents=True, exist_ok=True)
        fp = {"cpus": 4, "cpu_model": "m", "build_type": "RelWithDebInfo",
              "compiler": "c", "commit": "a"}
        rec = {"workload": "cold_sweep", "fingerprint": fp,
               "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
        a, b, c = tmp / "a.json", tmp / "b.json", tmp / "c.json"
        a.write_text(json.dumps(rec))
        b.write_text(json.dumps(dict(rec, fingerprint=dict(fp, commit="b"))))
        c.write_text(json.dumps(dict(rec, fingerprint=dict(fp, cpus=8))))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.compare(a, b)
        self.assertIn("a -> b", out.getvalue())
        with self.assertRaises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            run.compare(a, c)

    def test_missing_layer_metric_fails_instead_of_reading_0(self):
        table = [{"name": n, "unit": "s"} for n in run.PRODUCES["validate"]]
        values = {n: 1.0 for n in run.PRODUCES["validate"]}
        self.assertEqual(run.layer_values("validate", values, table), values)
        del values["refsim.busy_s"]
        with self.assertRaises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            run.layer_values("validate", values, table)

    def test_produced_metrics_are_declared(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(set(run.PRODUCES), set(run.WORKLOADS))
        for w, produced in run.PRODUCES.items():
            self.assertLessEqual(set(produced), names, w)


class EveryMetric(unittest.TestCase):
    def test_short_run_prints_every_metric_with_its_unit(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[table]}
            for w in bench["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    r = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"),
                         "--workload", w["name"], "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, cwd=run.ROOT)
                    self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                    res = last_json(r.stdout)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"], r.stderr[-2000:])
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    values = {k: v["value"]
                              for k, v in res["metrics"].items()}
                    if trace == 0:
                        self.assertTrue(all(values.values()), values)
                        continue
                    # The values come from the driver: what the workload
                    # produces reads non-zero (bar rare-event counters),
                    # and only layers it does not exercise read 0.
                    produced = set(run.PRODUCES[w["name"]])
                    for name, v in values.items():
                        if name not in produced:
                            self.assertEqual(v, 0.0, name)
                        elif name not in run.MAY_BE_ZERO:
                            self.assertNotEqual(v, 0.0, name)


if __name__ == "__main__":
    unittest.main()

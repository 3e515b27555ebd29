#!/usr/bin/env python3
"""Benchmark of the ptbilayer CLI, end to end and per module.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

One process, one client, closed loop: each operation is one in-process call
of ``ptbilayer.sweep_cli.cli_main(argv)`` and the next starts only after it
returns. Every output is checked by ``gate.py``; an operation fails when it
raises, exits non-zero or gives output that fails the check. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-module metrics.
Times are scaled to a reference host speed measured by a calibration kernel
that runs before every operation (see ``REFERENCE_CALIBRATION_NS``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``benchmarks/README.md``
defines every workload and metric.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SECONDS = 30
WARMUP_SECONDS = 2.0
SETUP_RUNS = 7
LAYERS = ("noise", "scattering", "effective", "observables", "media")
PER_POINT_LAYERS = ("noise", "scattering", "effective")
EVAL_SPANS = ("scattering.transfer_chain", "effective.bloch_index")

# Host-speed calibration. Other tenants of a shared host change the speed it
# gives this process by up to 2x, over seconds to minutes; CPU time tracks
# wall time, so it is not scheduling. A fixed kernel of small complex 2x2
# products, independent of ptbilayer, runs just before every operation and
# every set-up sample. Timings are scaled by REFERENCE_CALIBRATION_NS over the
# kernel's mean time in the same pass: they are reported at the host speed at
# which the kernel takes REFERENCE_CALIBRATION_NS. A change in the package
# shows in full, because the kernel does not use it.
CALIBRATION_ITERATIONS = 100
REFERENCE_CALIBRATION_NS = 600_000   # about the kernel's fastest time on the baseline host

# Set-up as a CLI invocation pays it: a fresh interpreter imports the package
# and resolves both presets' default frequencies (set2 runs the balance solve).
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ptbilayer
ptbilayer.preset_default_omega("set1")
t1 = time.perf_counter()
ptbilayer.preset_default_omega("set2")
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "balance_solve_ms": (t2 - t1) * 1e3,
                  "module": ptbilayer.__file__}))
"""


def calibration_ns() -> int:
    """Run time of the fixed calibration kernel."""
    a = np.array([[1 + 1j, 0.5], [0.25, 1 - 1j]])
    acc = 0j
    t0 = time.perf_counter_ns()
    for i in range(CALIBRATION_ITERATIONS):
        b = np.array([[cmath.exp(1j * i * 1e-3), 0.1], [0.2, 1.0]])
        a = (a @ b) / abs(a[0, 0])
        acc += complex(a[1, 1]) + cmath.sqrt(acc.real + 2.0)
    return time.perf_counter_ns() - t0


def setup_sample() -> dict:
    """Set-up time and balance-solve time of one fresh interpreter."""
    calib = statistics.mean(calibration_ns() for _ in range(5))
    proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(proc.stdout)
    if Path(sample["module"]).resolve().parent != SRC / "ptbilayer":
        raise RuntimeError(f"set-up imported ptbilayer from {sample['module']}")
    sample["scale"] = REFERENCE_CALIBRATION_NS / calib
    return sample


def import_package():
    sys.path.insert(0, str(SRC))
    import ptbilayer
    import ptbilayer.sweep_cli
    if Path(ptbilayer.__file__).resolve().parent != SRC / "ptbilayer":
        raise RuntimeError(f"imported ptbilayer from {ptbilayer.__file__}, not {SRC}")
    return ptbilayer


class Run:
    """One workload run: executes passes, checks outputs, keeps the records."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.ptbilayer = import_package()
        self.cli_main = self.ptbilayer.sweep_cli.cli_main
        self.reference = gate.load_reference()
        self.inputs = random.Random(seed)
        self.checks = random.Random(f"{seed}-checks")
        self.tracer = tracing.Tracer() if trace else None
        self.ops: list[dict] = []       # one record per operation
        self.passes: list[dict] = []    # one record per pass
        self.problems: list[str] = []
        self.setup: list[dict] = []     # fresh-interpreter set-up samples
        # The reference tables are many long-lived objects that a CLI process
        # does not have; keep the collector from traversing them during the
        # timed calls.
        gc.freeze()

    def execute(self, argv: list[str], traced: bool) -> tuple[int, str, str]:
        """(latency ns, stdout, error or '') of one cli_main call."""
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.operation(len(self.ops)) if traced
                else contextlib.nullcontext())
        error = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                with span:
                    rc = self.cli_main(argv)
            except (Exception, SystemExit) as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
        if not error and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        return t1 - t0, out.getvalue(), error

    def run_pass(self, timed: bool, traced: bool) -> None:
        index = len(self.passes)
        record = {"timed": timed, "traced": traced, "ns": 0, "rows": 0, "bytes": 0,
                  "calib_ns": 0, "ops": 0}
        for op in workloads.make_pass(self.workload, self.inputs):
            record["calib_ns"] += calibration_ns()
            record["ops"] += 1
            ns, text, error = self.execute(op.argv, traced)
            rows = ok = 0
            problems = [error] if error else []
            if not error and isinstance(op.spec, workloads.Locate):
                problems = gate.check_locate(op.spec, text, op.bracket)
                rows, ok = 1, int(not problems)
            elif not error:
                problems, rows, ok = gate.check_sweep(
                    op.spec, text, self.reference, self.checks, self.ptbilayer)
            if problems:
                self.problems.append(f"{op.spec.name} {' '.join(op.argv)}: "
                                     + "; ".join(problems))
            self.ops.append({"name": op.spec.name, "pass": index, "ns": ns,
                             "rows": rows, "ok": ok, "failed": bool(problems)})
            record["ns"] += ns
            record["rows"] += rows
            record["bytes"] += len(text.encode())
        self.passes.append(record)

    def measure(self, seconds: float) -> None:
        setup_sample()   # discarded: may compile bytecode and fill caches
        # warm-up, untimed: lazy set-up, caches, and a busy CPU before timing
        warm_until = time.perf_counter() + WARMUP_SECONDS
        while not self.passes or time.perf_counter() < warm_until:
            self.run_pass(timed=False, traced=False)
        start = time.perf_counter()
        timed = 0
        while timed < 2 or time.perf_counter() < start + seconds:
            # set-up samples are spread over the run, between passes, so
            # they see the same machine as the timed passes
            if len(self.setup) < SETUP_RUNS * (time.perf_counter() - start) / seconds:
                self.setup.append(setup_sample())
            # traced runs alternate untraced and traced passes
            traced = self.tracer is not None and timed % 2 == 1
            gc.collect()
            if traced:
                with self.tracer.installed(self.ptbilayer.sweep_cli):
                    self.run_pass(timed=True, traced=True)
            else:
                self.run_pass(timed=True, traced=False)
            timed += 1
        while len(self.setup) < SETUP_RUNS:
            self.setup.append(setup_sample())

    def setup_median(self, key: str) -> float:
        """Median over the set-up samples, at the reference host speed."""
        return statistics.median(x[key] * x["scale"] for x in self.setup)

    def scale(self, index: int) -> float:
        """Factor from measured times of a pass to the reference host speed."""
        p = self.passes[index]
        return REFERENCE_CALIBRATION_NS * p["ops"] / p["calib_ns"]

    def timed(self, traced: bool) -> list[int]:
        return [i for i, p in enumerate(self.passes)
                if p["timed"] and p["traced"] == traced]

    def end_to_end(self) -> dict:
        timed = self.timed(traced=False)
        timed_set = set(timed)
        lat_ms = [op["ns"] * self.scale(op["pass"]) / 1e6
                  for op in self.ops if op["pass"] in timed_set]
        deciles = statistics.quantiles(lat_ms, n=10)
        return {
            "points_per_s": (statistics.median(
                self.passes[i]["rows"] * 1e9 / (self.passes[i]["ns"] * self.scale(i))
                for i in timed), "1/s", len(timed)),
            "latency_p50_ms": (deciles[4], "ms", len(lat_ms)),
            "latency_p90_ms": (deciles[8], "ms", len(lat_ms)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", 1),
            "setup_s": (self.setup_median("setup_s"), "s", len(self.setup)),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.arrays()
        names = self.tracer.names
        traced = self.timed(traced=True)
        calls = {p: Counter() for p in traced}
        self_ns = {p: Counter() for p in traced}
        for nid, op, ns in zip(spans["name_id"].tolist(), spans["op"].tolist(),
                               spans["self_ns"].tolist()):
            p = self.ops[op]["pass"]
            calls[p][names[nid]] += 1
            self_ns[p][names[nid]] += ns

        def layer_total(counter: Counter, layer: str):
            return sum(v for name, v in counter.items() if name.split(".")[0] == layer)

        locate = self.workload == "locate-thresholds"

        def points(p):   # rows, or scalar evaluations on the locate workload
            if locate:
                return max(sum(calls[p][name] for name in EVAL_SPANS), 1)
            return max(self.passes[p]["rows"], 1)

        per_pass = defaultdict(list)
        for p in traced:
            ms_per_ns = self.scale(p) / 1e6
            for layer in LAYERS:
                per_pass[f"{layer}.calls"].append(layer_total(calls[p], layer))
                ms = layer_total(self_ns[p], layer) * ms_per_ns
                per_pass[f"{layer}.self_ms"].append(ms)
                if layer in PER_POINT_LAYERS:
                    per_pass[f"{layer}.us_per_point"].append(ms * 1e3 / points(p))
            per_pass["sweep_cli.self_ms"].append(self_ns[p][tracing.ROOT_SPAN] * ms_per_ns)
            per_pass["sweep_cli.output_ms"].append(
                sum(self_ns[p][name] for name in tracing.OUTPUT_SPANS) * ms_per_ns)
            per_pass["sweep_cli.output_bytes"].append(self.passes[p]["bytes"])

        units = {"calls": "count", "self_ms": "ms", "us_per_point": "us",
                 "output_ms": "ms", "output_bytes": "B"}
        metrics = {name: (statistics.median(values), units[name.split(".")[1]], len(values))
                   for name, values in per_pass.items()}
        metrics["media.balance_solve_ms"] = (
            self.setup_median("balance_solve_ms"), "ms", len(self.setup))
        rows = sum(op["rows"] for op in self.ops)
        metrics["sweep_cli.rows_ok_frac"] = (
            sum(op["ok"] for op in self.ops) / rows if rows else 0.0, "ratio", rows)
        locates = sum(op["pass"] in calls for op in self.ops) if locate else 0
        evals = sum(points(p) for p in traced) if locate else 0
        metrics["sweep_cli.evals_per_locate"] = (
            evals / locates if locates else 0.0, "count", locates)

        def pass_ns(ids):
            return statistics.median(self.passes[i]["ns"] * self.scale(i) for i in ids)
        metrics["trace.overhead_frac"] = (
            pass_ns(traced) / pass_ns(self.timed(traced=False)) - 1.0, "ratio", len(traced))
        return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptbilayer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(run: Run, seed: int, seconds: float) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "workload": run.workload, "seed": seed, "run_seconds": seconds,
            "passes": len(run.passes), "operations": len(run.ops)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    run = Run(workload, seed, trace)
    run.measure(seconds)
    metrics = run.per_layer() if trace else run.end_to_end()
    attempted = len(run.ops)
    failed = sum(op["failed"] for op in run.ops)
    prov = provenance(run, seed, seconds)

    timed = sum(p["timed"] for p in run.passes)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(run.passes)} passes ({timed} timed)  {attempted} operations")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")
    if workload == "locate-thresholds" and not trace:
        for q in ("p50", "p90"):
            value, unit, n = metrics[f"latency_{q}_ms"]
            print(f"  {f'locate_{q}_ms':28s} {value:14.6g} {unit:6s} n={n} (= latency_{q}_ms)")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} {'ratio':6s} "
          f"n={attempted} ({failed} failed)")
    timed_passes = [i for i, p in enumerate(run.passes) if p["timed"]]
    host_speed = statistics.median(run.scale(i) for i in timed_passes)
    print(f"  {'host_speed':28s} {host_speed:14.6g} {'ratio':6s} n={len(timed_passes)} "
          "(times above are scaled to host speed 1)")
    for problem in run.problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "attempted": attempted, "failed": failed,
              "problems": run.problems[:50], "provenance": prov, "host_speed": host_speed,
              "passes": run.passes, "operations": run.ops}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, sort_keys=True) + "\n")
    if trace:
        run.tracer.save(OUT_DIR / f"spans-{workload}.npz")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} trace {trace}: no result (exit code {proc.returncode})",
                      file=sys.stderr)
                correct = False
                continue
            correct = correct and result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptbilayer" / "__init__.py").is_file():
        print(f"error: no ptbilayer sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

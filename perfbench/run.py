"""Benchmark of the ballfourier library: one run of one workload.

    python3 perfbench/run.py --workload eval-scalar --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is taken from ``src`` there,
so nothing needs installing.  Workloads (see perfbench/README.md):

* ``verify-all``: ``ballfourier verify --suite all --r-max 3 --seed SEED``
  as a fresh process per pass, for the seconds given;
* ``eval-scalar``: a seeded cycle of single-value library calls, replayed;
* ``eval-batch``: the same functions on arrays of 1e5 values per call.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run; the metric names
and units are the ones listed in BENCHMARK.json.  The line before it is a
``detail`` record: machine and library versions, sample counts, the
SHA-256 of the verify output and the metrics under their per-workload names.
Exits 2 without a result when the checkout has no ``src/ballfourier``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from hashlib import sha256
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("verify-all", "eval-scalar", "eval-batch")
# fresh interpreters timed for setup_s, after one untimed warm-up
SETUP_REPEATS = 11
# verify passes per run at the least; more while the seconds allow
MIN_VERIFY_PASSES = 3
# a child taking longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150.0
# latency percentile reported as latency_tail_ms: the highest with at least
# ten samples beyond it at the run lengths used (verify-all has only a few
# passes per run, so its tail is its median)
TAIL_PERCENTILE = {"verify-all": 50, "eval-scalar": 99, "eval-batch": 90}
VERIFY_ARGS = ("verify", "--suite", "all", "--r-max", "3")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one BLAS thread: the Golub-Welsch eigh would otherwise use every core
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def run_child(argv, env: dict, log_path: str) -> tuple[int, float, float]:
    """Run a child process to its end: (exit code, wall seconds from launch
    to exit, its own peak RSS in MB).  os.wait4 gives the rusage of this one
    child, where RUSAGE_CHILDREN would give the maximum over all of them."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, tmp: str) -> float:
    """Median wall time of fresh interpreters that only import the library."""
    argv = [sys.executable, "-c", "import ballfourier"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        code, wall, _ = run_child(argv, env, os.path.join(tmp, "setup.log"))
        if code != 0:
            raise BenchmarkError("importing ballfourier failed:\n" + _tail(tmp, "setup.log"))
        if k:
            times.append(wall)
    return statistics.median(times)


def _tail(tmp: str, name: str) -> str:
    with open(os.path.join(tmp, name), encoding="utf-8", errors="replace") as handle:
        return handle.read()[-2000:]


def self_test_inputs(workload: str, seed: int) -> str:
    """Check that the seed alone fixes the inputs; returns their digest."""
    make = inputs.batch_stream if workload == "eval-batch" else inputs.scalar_stream
    first, again, other = (inputs.digest(make(s)) for s in (seed, seed, seed + 1))
    if first != again:
        raise BenchmarkError(f"{workload}: the same seed gave different inputs")
    if first == other:
        raise BenchmarkError(f"{workload}: seeds {seed} and {seed + 1} gave the same inputs")
    return first


def _worker(env, tmp, tag, workload, seed, seconds, trace, output=None):
    result_path = os.path.join(tmp, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
            "--result", result_path]
    if output is not None:
        argv += ["--output", output]
    code, wall, rss = run_child(argv, env, os.path.join(tmp, f"{tag}.log"))
    if code != 0:
        raise BenchmarkError(f"{workload} worker exited {code}:\n" + _tail(tmp, f"{tag}.log"))
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), rss


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_eval(workload: str, seed: int, result: dict) -> dict:
    """Compare the first cycle's outputs with the mpmath references.

    Every call of a scalar cycle is checked, and BATCH_CHECKED_POINTS seeded
    values of every batched call.  A checked value fails when its call
    raised or gave a non-finite value, or when it misses the reference by
    more than REL_TOLERANCE relative.  ``correct`` is false when any call
    raised or was non-finite, or any value is off by more than forward
    summation in double precision allows (reference.SCALE_TOLERANCE).
    """
    batch = workload == "eval-batch"
    calls = inputs.batch_stream(seed) if batch else inputs.scalar_stream(seed)
    bad = set(result["bad"])
    attempted = failed = wrong = 0
    for index, call in enumerate(calls):
        if batch:
            points = [inputs.batch_point(call, int(i)) for i in call["checked"]]
            values = result["checked"][index] or [None] * len(points)
        else:
            points, values = [call], [result["checked"][index]]
        for point, value in zip(points, values):
            attempted += 1
            if index in bad or value is None:
                failed += 1
                continue
            _, missed, off = reference.check(point, complex(*value))
            failed += missed
            wrong += off
    return {"correct": not bad and wrong == 0, "attempted": attempted, "failed": failed,
            "wrong": wrong, "raised_or_nonfinite": len(bad), "errors": result["errors"]}


def read_verify_output(path: str, exit_code: int, stdout_path: str | None) -> dict:
    """Parse one verify report file and check it against the exit code and,
    when given, the 'passed/total' summary the CLI prints."""
    with open(path, "rb") as handle:
        data = handle.read()
    reports = json.loads(data)
    failed = sum(1 for rep in reports if not rep["passed"])
    consistent = bool(reports) and exit_code == (0 if failed == 0 else 1)
    if stdout_path is not None:
        with open(stdout_path, encoding="utf-8", errors="replace") as handle:
            summary = handle.read().strip().splitlines()
        consistent &= summary[-1:] == [f"{len(reports) - failed}/{len(reports)} checks passed"]
    return {"sha256": sha256(data).hexdigest(), "reports": len(reports), "failed": failed,
            "low_confidence": sum(1 for rep in reports if rep["low_confidence"]),
            "consistent": consistent, "exit": exit_code}


def verify_verdict(outputs: list[dict]) -> dict:
    """Correctness of a set of verify passes over one seed: each output is
    consistent with its exit code, and all are byte-identical."""
    first = outputs[0]
    same = all(o["sha256"] == first["sha256"] for o in outputs)
    return {"correct": same and all(o["consistent"] for o in outputs),
            "attempted": first["reports"], "failed": first["failed"]}


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def run_verify_all(env, tmp, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    argv = [sys.executable, "-m", "ballfourier.cli", *VERIFY_ARGS, "--seed", str(seed)]
    walls, rss, outputs = [], [], []
    start = perf_counter()
    while (len(walls) < MIN_VERIFY_PASSES
           or perf_counter() - start + statistics.mean(walls) <= seconds):
        out = os.path.join(tmp, f"verify-{len(walls)}.json")
        log = os.path.join(tmp, f"verify-{len(walls)}.log")
        code, wall, peak = run_child(argv + ["--output", out], env, log)
        if code not in (0, 1):
            raise BenchmarkError(f"verify exited {code}:\n" + _tail(tmp, os.path.basename(log)))
        walls.append(wall)
        rss.append(peak)
        outputs.append(read_verify_output(out, code, log))
    verdict = verify_verdict(outputs)
    p50 = statistics.median(walls)
    metrics = {"latency_p50_ms": p50 * 1e3,
               "latency_tail_ms": float(np.percentile(walls, TAIL_PERCENTILE["verify-all"])) * 1e3,
               "throughput_per_s": outputs[0]["reports"] * len(walls) / sum(walls),
               "peak_rss_mb": statistics.median(rss)}
    detail = {"passes": len(walls), "pass_s": walls, "verdict_s": p50,
              "reports_per_pass": outputs[0]["reports"],
              "verify_sha256": outputs[0]["sha256"],
              "low_confidence": outputs[0]["low_confidence"]}
    return metrics, verdict, detail


def run_eval(env, tmp, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    digest = self_test_inputs(workload, seed)
    result, rss = _worker(env, tmp, "eval", workload, seed, seconds, 0)
    if result["inputs_sha256"] != digest:
        raise BenchmarkError("the worker generated other inputs than the seed gives")
    verdict = check_eval(workload, seed, result)
    tail = result[f"latency_p{TAIL_PERCENTILE[workload]}_ms"]
    metrics = {"latency_p50_ms": result["latency_p50_ms"], "latency_tail_ms": tail,
               "throughput_per_s": result["throughput_per_s"], "peak_rss_mb": rss}
    detail = {"calls_per_cycle": len(result["checked"]), "timed_calls": result["samples"],
              "cycles": result["cycles"], "speed_scale": result["speed_scale"],
              "raw_latency_p50_ms": result["raw_latency_p50_ms"],
              "raw_throughput_per_s": result["raw_throughput_per_s"],
              "inputs_sha256": digest, "wrong": verdict.pop("wrong"),
              "raised_or_nonfinite": verdict.pop("raised_or_nonfinite"),
              "errors": verdict.pop("errors")}
    if workload == "eval-scalar":
        detail.update({"evals_per_s": metrics["throughput_per_s"],
                       "eval_p50_us": result["latency_p50_ms"] * 1e3,
                       "eval_p99_us": result["latency_p99_ms"] * 1e3})
    else:
        detail.update({"points_per_s": metrics["throughput_per_s"],
                       "batch_call_p50_ms": result["latency_p50_ms"],
                       "batch_call_p90_ms": result["latency_p90_ms"]})
    return metrics, verdict, detail


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced pass, keyed <layer>.<function>.<quantity>."""
    out = {}
    for name, span in trace["spans"].items():
        calls, self_s = span["calls"], span["self_s"]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        for quantity, per in (("points", "ns_per_point"), ("terms", "ns_per_term")):
            if quantity in span:
                out[f"{name}.{quantity}"] = span[quantity]
                out[f"{name}.{per}"] = self_s / span[quantity] * 1e9 if span[quantity] else 0.0
        if "grid_points" in span:
            out[f"{name}.grid_points"] = span["grid_points"]
    suites = {name: span for name, span in trace["spans"].items()
              if name.startswith("verify.") and name != "verify.reports_to_json"}
    for name, span in suites.items():
        out[f"{name}_s"] = span["total_s"]
    out["verify.suites.self_s"] = sum(span["self_s"] for span in suites.values())
    out["quadrature.rule_build_s"] = trace["spans"]["quadrature.rule_build"]["self_s"]
    out["trace.outside_s"] = trace["outside_s"]
    out["trace.self_sum_s"] = sum(span["self_s"] for span in trace["spans"].values())
    out["trace.spans"] = trace["span_count"]
    return out


def run_traced(env, tmp, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Alternate a traced and an untraced pass of the same fixed work, each in
    a fresh process (so caches start cold), until the seconds are used.  The
    per-layer numbers are those of the traced pass with the median wall time,
    so its self times and outside time add up to its wall time exactly."""
    traced, untraced, outputs = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        for trace in (1, 0):
            tag = f"pass-{len(traced)}-{trace}"
            out = os.path.join(tmp, f"{tag}-verify.json") if workload == "verify-all" else None
            result, _ = _worker(env, tmp, tag, workload, seed, 0.0, trace, out)
            (traced if trace else untraced).append(result)
            if out is not None:
                outputs.append(read_verify_output(out, result["exit"], None))
    by_wall = sorted(traced, key=lambda r: r["wall_s"])
    chosen = by_wall[(len(by_wall) - 1) // 2]
    metrics = layer_metrics(chosen["trace"])
    counts = [{k: v for k, v in layer_metrics(r["trace"]).items() if isinstance(v, int)}
              for r in traced]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics.update({"trace.wall_s": chosen["wall_s"], "trace.untraced_wall_s": untraced_wall,
                    "trace.overhead_s": chosen["wall_s"] - untraced_wall})
    cache = chosen.get("rule_cache", {"hits": 0, "misses": 0})
    hits, misses = cache["hits"], cache["misses"]
    metrics.update({"quadrature.rule_cache.hits": hits, "quadrature.rule_cache.misses": misses,
                    "quadrature.rule_cache.hit_ratio":
                        hits / (hits + misses) if hits + misses else 0.0})
    if workload == "verify-all":
        verdict = verify_verdict(outputs)
        first = outputs[0]
        metrics.update({"verify.reports": first["reports"], "verify.failed": first["failed"],
                        "verify.low_confidence": first["low_confidence"]})
        detail = {"verify_sha256": first["sha256"]}
    else:
        verdict = check_eval(workload, seed, chosen)
        metrics.update({"verify.reports": 0, "verify.failed": 0, "verify.low_confidence": 0})
        detail = {"inputs_sha256": chosen["inputs_sha256"], "wrong": verdict.pop("wrong"),
                  "raised_or_nonfinite": verdict.pop("raised_or_nonfinite"),
                  "errors": verdict.pop("errors")}
    closes = abs(metrics["trace.self_sum_s"] + metrics["trace.outside_s"] - metrics["trace.wall_s"])
    verdict["correct"] &= closes <= 1e-6 * metrics["trace.wall_s"]
    verdict["correct"] &= all(c == counts[0] for c in counts)
    detail.update({"traced_passes": len(traced), "traced_wall_s": [r["wall_s"] for r in traced],
                   "untraced_wall_s": [r["wall_s"] for r in untraced]})
    return metrics, verdict, detail


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": 1}


def declared_metrics(root: str, trace: bool) -> list[dict]:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description="ballfourier benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ballfourier", "__init__.py")):
        print("perfbench: run from the root of a ballfourier checkout "
              "(src/ballfourier not found)", file=sys.stderr)
        return 2
    declared = declared_metrics(root, bool(args.trace))
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    env = child_env(root)
    try:
        if args.trace:
            values, verdict, detail = run_traced(env, tmp, args.workload, args.seed, args.seconds)
        else:
            setup_s = measure_setup(env, tmp)
            if args.workload == "verify-all":
                values, verdict, detail = run_verify_all(env, tmp, args.seed, args.seconds)
            else:
                values, verdict, detail = run_eval(env, tmp, args.workload, args.seed,
                                                   args.seconds)
            values["setup_s"] = setup_s
            detail["setup_s"] = setup_s
            detail["peak_rss_mb"] = values["peak_rss_mb"]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    detail["failed_frac"] = verdict["failed"] / verdict["attempted"]
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": environment()})
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": bool(verdict["correct"]),
        "attempted": int(verdict["attempted"]),
        "failed": int(verdict["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

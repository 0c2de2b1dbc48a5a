"""One pass of a workload in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload eval-scalar --seed 1 --seconds 10 \
        --trace 0 --result out.json

The library is imported from ``src`` of the current directory, which is the
root of a checkout.  The result is written as JSON to ``--result``.

* eval-scalar, eval-batch: replays the seeded call cycle until ``--seconds``
  have passed (at least one whole cycle) and times every call, running the
  calibration kernel (``calibrate.py``) between calls every half second.
  With ``--trace 1`` it runs the cycle exactly once with spans around every
  layer, and without calibration.
* verify-all: only with ``--trace``; runs ``cli.main`` in process once,
  traced or not, so the two can be compared.  The untraced end-to-end pass
  is the ``ballfourier verify`` process that ``run.py`` starts itself.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer, library_modules  # noqa: E402

# errors kept verbatim in the result; the rest are only counted
_ERRORS_KEPT = 5
# seconds between calibration kernels in a timed (untraced) eval run
_CALIBRATE_EVERY_S = 0.5


def _library() -> dict:
    modules = library_modules()
    root = modules[0]
    expected = os.path.join(os.getcwd(), "src", "ballfourier")
    if os.path.dirname(os.path.abspath(root.__file__)) != expected:
        raise RuntimeError(f"ballfourier was imported from {root.__file__}, not {expected}")
    return {m.__name__.rsplit(".", 1)[-1]: m for m in modules}


def _prepare(lib: dict, call: dict):
    """(function, args) of one call, resolved from the module namespaces as
    they are now (after any tracer is installed)."""
    kind = call["kind"]
    tf, dfamily = lib["tanh_family"], lib["dfamily"]
    if kind in ("fourier_closed_form", "fourier_via_recursion", "theta_factor", "family_eval"):
        params = tf.FamilyParams(call["a"], call["mu"], call["n"])
    if kind == "fourier_closed_form":
        return tf.fourier_closed_form, (params, np.asarray(call["xi"], dtype=np.float64))
    if kind == "fourier_via_recursion":
        return tf.fourier_via_recursion, (params, np.asarray(call["xi"], dtype=np.float64),
                                          call["mode"])
    if kind == "theta_factor":
        return tf.theta_factor, (call["j"], call["r"], params, call["xi"])
    if kind == "family_eval":
        return tf.family_eval, (np.asarray(call["x"], dtype=np.float64), params)
    if kind == "gegenbauer":
        return lib["classical"].gegenbauer, (call["n"], call["lam"], call["x"])
    if kind == "ball_basis_eval":
        return lib["ball"].ball_basis_eval, (call["n"], call["mu"],
                                             np.asarray(call["x"], dtype=np.float64))
    if kind == "d_family_eval":
        params = dfamily.DParams(call["a1"], call["a2"], call["n"])
        return dfamily.d_family_eval, (np.asarray(call["x"], dtype=np.complex128), params)
    if kind == "log_gamma":
        return lib["special"].log_gamma, (call["z"],)
    raise ValueError(f"unknown call kind {kind!r}")


def _finite(value) -> bool:
    if np.ndim(value) == 0:
        return cmath.isfinite(complex(value))
    return bool(np.isfinite(value).all())


def run_eval(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Replay the workload's call cycle and time every call."""
    batch = workload == "eval-batch"
    calls = inputs.batch_stream(seed) if batch else inputs.scalar_stream(seed)
    lib = _library()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    prepared = [_prepare(lib, call) for call in calls]
    values_per_cycle = len(calls) * (inputs.BATCH_POINTS if batch else 1)

    samples = [array("d") for _ in calls]
    scales = [array("d") for _ in calls]
    checked: list = [None] * len(calls)
    bad: set[int] = set()
    errors: list[str] = []
    cycles = 0
    scale = 1.0
    start = perf_counter()
    deadline = start + seconds
    recalibrate = start
    done = False
    while not done:
        for index, (fn, args) in enumerate(prepared):
            if cycles and perf_counter() >= deadline:
                done = True
                break
            if not trace and perf_counter() >= recalibrate:
                scale = calibrate.NOMINAL_S / calibrate.kernel_s()
                recalibrate = perf_counter() + _CALIBRATE_EVERY_S
            t0 = perf_counter()
            try:
                value = fn(*args)
            except Exception as exc:  # counted as a failed call, never fatal
                samples[index].append(perf_counter() - t0)
                scales[index].append(scale)
                bad.add(index)
                if len(errors) < _ERRORS_KEPT:
                    errors.append(f"call {index} ({calls[index]['kind']}): {exc!r}")
                continue
            samples[index].append(perf_counter() - t0)
            scales[index].append(scale)
            if not _finite(value):
                bad.add(index)
            if cycles == 0:
                if batch:
                    picked = np.asarray(value)[calls[index]["checked"]]
                    checked[index] = [[complex(v).real, complex(v).imag] for v in picked]
                else:
                    checked[index] = [complex(value).real, complex(value).imag]
        else:
            cycles += 1
            done = trace or perf_counter() >= deadline
    wall_s = perf_counter() - start

    # a call's time is the median of its repeats, which keeps bursts of
    # machine noise out; the percentiles are then taken over the calls
    raw = [np.frombuffer(s, dtype=np.float64) for s in samples]
    per_call_raw = np.array([np.median(r) for r in raw])
    per_call = np.array([np.median(r * np.frombuffer(f, dtype=np.float64))
                         for r, f in zip(raw, scales)])
    result = {
        "samples": sum(len(s) for s in samples),
        "cycles": cycles,
        "wall_s": wall_s,
        "speed_scale": float(np.median(np.concatenate([np.frombuffer(f) for f in scales]))),
        "throughput_per_s": values_per_cycle / float(per_call.sum()),
        "raw_throughput_per_s": values_per_cycle / float(per_call_raw.sum()),
        **{f"latency_p{q}_ms": float(np.percentile(per_call, q)) * 1e3 for q in (50, 90, 99)},
        "raw_latency_p50_ms": float(np.percentile(per_call_raw, 50)) * 1e3,
        "checked": checked,
        "bad": sorted(bad),
        "errors": errors,
        "inputs_sha256": inputs.digest(calls),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(wall_s)
    return result


def run_verify(seed: int, trace: bool, output: str) -> dict:
    """``ballfourier verify --suite all`` through ``cli.main`` in process."""
    lib = _library()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    argv = ["verify", "--suite", "all", "--r-max", "3", "--seed", str(seed), "--output", output]
    main = lib["cli"].main
    start = perf_counter()
    status = main(argv)
    wall_s = perf_counter() - start
    result = {"exit": status, "wall_s": wall_s}
    if tracer is not None:
        tracer.uninstall()
        hits, misses = tracer.rule_cache()
        result["trace"] = tracer.summary(wall_s)
        result["rule_cache"] = {"hits": hits, "misses": misses}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "eval-scalar", "eval-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--output", help="verify-all: report file to write")
    args = parser.parse_args()
    if args.workload == "verify-all":
        if args.output is None:
            parser.error("verify-all needs --output")
        result = run_verify(args.seed, bool(args.trace), args.output)
    else:
        result = run_eval(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""envnorm benchmark: one command for the suite, degree_sweep and
request_stream workloads.

    python3 benchmarks/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  A run is a closed loop with one client: it runs the
workload's rounds one after another, each in a fresh single-threaded process
so that every round starts with envnorm's caches empty, and makes
``passes_for(workload, --seconds)`` passes over the rounds; each operation
counts with the median of its calibrated times across the passes (see
``workloads.calibrated``).  Every output is checked
(see ``verify.py``).  Human-readable lines go first; the last line of
standard output is the JSON result.

``--trace 1`` instead runs round 0 of every workload twice, untraced and
traced, and reports the per-layer metrics of each workload as
``<workload>.<metric>`` (self times scaled to calibrated seconds), with the
tracing overhead as traced minus untraced round time.  ``--small`` runs the
same code at toy sizes, in seconds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> unit; --trace 0 prints these
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
DEADLINE_S = 170  # a run must end within 180 s

def passes_for(workload: str, seconds: float) -> int:
    """Passes in a run of ``seconds``: as many as fit at the workload's
    nominal pass time, at least two.  The count depends on the workload and
    ``seconds`` alone, so every run of a workload does the same work and
    takes the median over the same number of tries, however fast the
    program or the machine is."""
    return max(2, round(seconds / workloads.NOMINAL_PASS_S[workload]))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(workload, seed, index, trace, small, deadline):
    """Run one round in a fresh process and return its result dict."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--round", str(index),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a round could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round {index} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round {index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _percentile(latencies, q):
    """Nearest-rank percentile; a failed operation (None) sorts as infinitely slow."""
    ranked = sorted(math.inf if x is None else x for x in latencies)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def _report_rounds(rounds):
    for r in rounds:
        errors = ", ".join(f"{k} x{v}" for k, v in sorted(r["errors"].items())) or "none"
        print(f"  {r['workload']} round {r['index']}: attempted={r['attempted']} "
              f"failed={r['failed']} errors: {errors} round_s={r['round_s']:.3f} "
              f"(wall {r['round_wall_s']:.3f}) setup_s={r['setup_s']:.4f} "
              f"(wall {r['setup_wall_s']:.4f}) rss_mb={r['rss_mb']:.1f}")
        for p in r["problems"]:
            print(f"    CHECK FAILED {p}")


def measure(workload, seed, seconds, small, deadline):
    """Untraced run: ``passes_for(workload, seconds)`` whole passes over its rounds.

    Every operation runs once per pass, each time in a fresh process, and
    counts with the median of its calibrated times: the machine this runs on
    is shared and its neighbours slow it by up to half for minutes at a
    time, which calibration divides out.
    """
    passes = []
    for _ in range(passes_for(workload, seconds)):
        passes.append([_child(workload, seed, index, 0, small, deadline)
                       for index in range(workloads.ROUNDS)])
        _report_rounds(passes[-1])
    rounds = [r for p in passes for r in p]
    busy, passed = [], 0
    groups: dict = {}  # latency sample -> [seconds, failed]
    for index in range(workloads.ROUNDS):
        repeats = [p[index] for p in passes]
        for k, tries in enumerate(zip(*(r["ops"] for r in repeats))):
            seconds = statistics.median(t[0] for t in tries)
            ok = not any(t[1] for t in tries)
            # operations without a group are latency samples of their own
            sample = groups.setdefault((index, tries[0][3] or k), [0.0, False])
            sample[0] += seconds
            sample[1] = sample[1] or not ok
            passed += tries[0][2] if ok else 0
        busy.append(sum(s[0] for (i, _g), s in groups.items() if i == index))
    latencies = [None if failed else t for t, failed in groups.values()]
    p50, p90 = _percentile(latencies, 0.5), _percentile(latencies, 0.9)
    if math.isinf(p90):
        raise BenchError("more than a tenth of the operations failed; no latency percentiles")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "round_s": statistics.mean(busy),
        "ops_per_s": passed / sum(busy),
        "op_p50_ms": p50 * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    print(f"{workload}: passes={len(passes)} rounds per pass={workloads.ROUNDS} "
          f"latency samples={len(latencies)}")
    metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END.items()}
    return _outcome(rounds, rounds), metrics


def _outcome(own, checked):
    """(attempted, failed) over the workload's own rounds; correct over all."""
    return (sum(r["attempted"] for r in own), sum(r["failed"] for r in own),
            all(r["correct"] for r in checked))


def profile(workload, seed, small, deadline):
    """Traced run: round 0 of every workload, untraced then traced."""
    metrics, own, checked = {}, [], []
    for w in workloads.WORKLOADS:
        plain = _child(w, seed, 0, 0, small, deadline)
        traced = _child(w, seed, 0, 1, small, deadline)
        _report_rounds([plain, traced])
        if plain["attempted"] != traced["attempted"] or plain["failed"] != traced["failed"]:
            raise BenchError(f"{w}: traced and untraced round 0 differ in outcome")
        if plain.get("render_sha") != traced.get("render_sha"):
            plain["correct"] = False
            print(f"  CHECK FAILED {w}: traced and untraced suite reports differ")
        # span self times are wall seconds; scale them to calibrated seconds
        # at the traced round's mean ratio of the two
        scale = traced["round_s"] / traced["round_wall_s"]
        for name, value in traced["layers"].items():
            unit = tracing.unit(name)
            metrics[f"{w}.{name}"] = {"value": value * scale if unit == "s" else value,
                                      "unit": unit}
        overhead = traced["round_s"] - plain["round_s"]
        metrics[f"{w}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{w}: untraced round_s={plain['round_s']:.3f} traced round_s="
              f"{traced['round_s']:.3f} overhead_s={overhead:.3f}")
        checked += [plain, traced]
        if w == workload:
            own = [plain, traced]
    return _outcome(own, checked), metrics


def per_layer_names():
    """Every per-layer metric name with its unit, as ``--trace 1`` prints them."""
    names = {}
    for w in workloads.WORKLOADS:
        for name in tracing.WORKLOAD_LAYERS[w]:
            names[f"{w}.{name}"] = tracing.unit(name)
        names[f"{w}.trace.overhead_s"] = "s"
    return names


def run_one_round(args):
    """Child side: one round in this process, result as one JSON line."""
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer() if args.trace else None
    result = workloads.run_round(args.workload, args.seed, args.round, args.small, tracer)
    import envnorm

    if Path(envnorm.__file__).resolve().parent != SRC / "envnorm":
        raise BenchError(f"imported envnorm from {envnorm.__file__}, not from {SRC}")
    if tracer is not None:
        result["layers"] = tracing.layer_values(tracer, args.workload)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="toy sizes, for the tests")
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "envnorm" / "__init__.py").is_file():
        print(f"error: no envnorm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.round is not None:
            run_one_round(args)
            return 0
        deadline = time.monotonic() + DEADLINE_S
        compileall.compile_dir(str(SRC), quiet=1)
        if args.trace:
            outcome, metrics = profile(args.workload, args.seed, args.small, deadline)
        else:
            outcome, metrics = measure(args.workload, args.seed, args.seconds, args.small, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct = outcome
    print(f"{args.workload}: attempted={attempted} failed={failed} correct={correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qbsde benchmark: one workload per invocation, result as the last stdout line.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` reports BENCHMARK.json's
end-to-end metrics, ``--trace 1`` its per-layer metrics and writes the spans
to bench/out/.  See bench/README.md for the workloads, the metrics and how
the spans are attached.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 3  # this process plus fresh interpreters
# One BLAS thread: on the 2-vCPU reference box a second thread made round
# times swing by about 20 % for little mean gain (see README.md).
BLAS_THREADS = "1"

# import qbsde plus validation of the bundled catalogue, timed from inside a
# fresh interpreter exactly as this process times its own set-up
_SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import qbsde; qbsde.bundled_configs(); print(time.perf_counter() - t0)"
)


def _pin_blas_threads() -> None:
    """Set before numpy loads; the set-up probes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _setup_sample() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _rounds(workload, tracer, seconds: float):
    """Whole rounds until ``seconds`` have passed, at least one."""
    times, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        rounds.append(workload.round(tracer))
        times.append(time.perf_counter() - t)
    return times, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="accepted for the interface; every input is pinned")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "qbsde", "__init__.py")):
        print(f"no qbsde sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qbsde

    configs = qbsde.bundled_configs()
    setup = [time.perf_counter() - t0]

    import layers
    import workloads
    from tracing import Tracer, span_cost

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.make(args.workload, configs, OUT)

    if not args.trace:
        setup += [_setup_sample() for _ in range(SETUP_SAMPLES - 1)]
        times, rounds = _rounds(workload, None, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # a round whose Y0 operation raised has no SE; such a run reports failures
            "y0_se": statistics.median([r.y0_se for r in rounds if math.isfinite(r.y0_se)] or [0.0]),
        }
        wanted = spec["end_to_end"]
    else:
        tracer = Tracer()
        layers.install(tracer)
        try:
            tracer.call("setup.validate", qbsde.bundled_configs)
            cpu0 = time.process_time()
            times, rounds = _rounds(workload, tracer, args.seconds)
            cpu_s = time.process_time() - cpu0
        finally:
            tracer.uninstall()
        metrics = layers.per_layer_metrics(tracer, cpu_s, overhead_s=len(tracer.spans) * span_cost())
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": len(times), "round_s": times},
        )
        wanted = spec["per_layer"]

    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failing = [r for r in rounds if r.errors]
    if failing:
        # every round attempts the same operations; one round's report suffices
        print(f"{len(failing)} of {len(rounds)} rounds had failures; the first:", *failing[0].errors,
              sep="\n", file=sys.stderr)
    outcomes = [status for r in rounds for _, status in r.outcomes]
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(status != "ok" for status in outcomes),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload gateway_crash_sla --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
prints the per-layer metrics of a traced run (spans from wrappers around the
repo's public functions, installed and removed by the benchmark), its
tracing overhead, and checks that tracing left the records unchanged.
Lines starting with ``#`` are a human-readable report; the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/NOTES.md`` for why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

def pin_environment() -> None:
    """Serial plans and autotuned compiles, as users run them."""
    os.environ["REPRO_PARALLEL_THREADS"] = "0"
    os.environ["REPRO_PLAN_FAST_COMPILE"] = "0"


def environment() -> dict:
    import numpy

    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_PARALLEL_THREADS": os.environ["REPRO_PARALLEL_THREADS"],
        "REPRO_PLAN_FAST_COMPILE": os.environ["REPRO_PLAN_FAST_COMPILE"],
    }


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds of work, not a measurement)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Workloads, metrics and units are defined once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "real_offload":
        out = workloads.run_real(args.seed, args.seconds, bool(args.trace),
                                 args.tiny)
    else:
        out = workloads.run_simulated(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.tiny)

    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = out["layer"] if args.trace else out["metrics"]
    if set(values) != set(wanted):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(wanted))}")
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in out["info"].items():
        print(f"# {key} {json.dumps(value)}")
    for name, unit in wanted.items():
        print(f"# {name:34s} {values[name]!r:>24} {unit}")
    for error in out["errors"]:
        print(f"# ERROR {error}")
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

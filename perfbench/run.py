"""Repository benchmark: three workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload zoo-solve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run measures for ``--seconds`` in total, split over several fresh
child processes run one after the other (see ``harness.py``); the
parent pools their samples.  The last line of standard output is the
result object.  ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones and writes a Chrome trace-event file under
``.perfbench/``.  Any correctness mismatch fails the run (exit 1).
See ``perfbench/README.md`` for the metrics and the design.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zoo-solve", "ensemble-batch", "serve-open")
#: Scratch space inside the checkout: plan-cache temp dirs and traces.
SCRATCH = ROOT / ".perfbench"
#: A whole run, all children included, must end within this.
RUN_LIMIT_S = 170.0


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _prepare() -> dict:
    """Check the environment, put ``src`` on the path, load the spec."""
    # Every REPRO_* variable changes the program under test (workers,
    # backend, residency, precision, autotuning, ...).
    pinned = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if pinned:
        _fail("refusing to run with " + ", ".join(pinned) + " set: each "
              "one changes the program under test")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail("src/repro not found: run from a full checkout of the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("BENCHMARK.json not found at the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    with open(spec_path) as fh:
        return json.load(fh)


def _module(workload: str):
    from perfbench import ensemble, serve, zoo

    return {"zoo-solve": zoo, "ensemble-batch": ensemble,
            "serve-open": serve}[workload]


def run_child(args) -> int:
    """Measure one slice of a run; print the raw samples as JSON."""
    from perfbench.harness import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    part = _module(args.workload).measure(
        args.seed, args.seconds, tracer, args.quick, SCRATCH, args.child)
    if args.trace:
        part["trace_events"] = tracer.events(pid=args.child + 1)
    print(json.dumps(part))
    return 0


def run_workload(args, spec: dict) -> int:
    """Run the children of one workload, pool them, print the result."""
    from perfbench import serve
    from perfbench.harness import (
        PROCESSES,
        QUICK_PROCESSES,
        host_fingerprint,
        write_trace,
    )

    children = QUICK_PROCESSES if args.quick else PROCESSES
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = []
    for child in range(children):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / children),
               "--trace", str(args.trace), "--child", str(child)]
        if args.quick:
            cmd.append("--quick")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            _fail(f"{args.workload}: child {child} overran the run's "
                  f"{RUN_LIMIT_S:.0f} s", 4)
        if proc.returncode != 0:
            _fail(f"{args.workload}: child {child} exited with "
                  f"{proc.returncode}", 4)
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    try:
        out = _module(args.workload).summarize(parts, args.quick, bool(args.trace))
    except serve.GeneratorBehind as e:
        _fail(str(e), 3)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out.layers if args.trace else out.e2e
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        _fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    if values:  # empty only when a case never ran, which is an error too
        for m in declared:
            # A layer this workload bypasses is reported as 0.
            metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick,
            "processes": children, "host": host_fingerprint(), **out.info}
    if args.trace:
        path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, [e for p in parts for e in p["trace_events"]])
        info["trace_file"] = str(path.relative_to(ROOT))
    for e in out.errors:
        print("MISMATCH " + e, file=sys.stderr)
    if out.errors:
        info["errors"] = out.errors
    correct = not out.errors and bool(metrics)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    spec = _prepare()
    if args.child is not None:
        return run_child(args)
    if args.workload != "all":
        return run_workload(args, spec)
    status = 0
    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        args.workload = w
        status = max(status, run_workload(args, spec))
    return status


if __name__ == "__main__":
    sys.exit(main())

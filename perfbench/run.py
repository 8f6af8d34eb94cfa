"""Steady-state benchmark of the incremental data-bubble stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve_durable --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` re-runs the
same seed and sizes with every layer entry point wrapped in spans and
reports the per-layer ledger instead (spans are written to
``.perfbench_out/``). The first stdout line is the run header; an
untraced run follows it with a report line carrying every metric of the
workload, raw timings included. Then comes a table of the metrics, and
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when an output check
failed and 2 when the repository sources are missing. README.md in this
directory documents the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed runs use unless told otherwise.
DEFAULT_SEED = 1
#: Held out: never used while the benchmark or a change was tuned, so a
#: later claim can be confirmed on it.
HELD_OUT_SEED = 7919

#: Thread-count settings of the BLAS builds numpy may use.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: Units of the metrics only the report line carries.
REPORT_UNITS = {
    "recover_s": "s",
    "fscore": "fraction",
    "write_bytes_per_pt": "B",
    "fsyncs_per_kpt": "count",
    "failed_frac": "fraction",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_durable", "cluster_live",
                                 "recover_fleet"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(metrics: dict, units: dict) -> list[str]:
    return [
        f"{name:<28} {value:>16.6g} {units.get(name, '')}"
        for name, value in metrics.items()
        if isinstance(value, (int, float))
    ]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per workload, whatever the environment asks for: the
    # timings read this thread's CPU time, so work done by BLAS helper
    # threads would drop out of them. Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    begun = time.thread_time()
    import repro

    import_s = [time.thread_time() - begun]
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}",
              file=sys.stderr)
        return 2

    import host
    import ledger
    import workloads

    trace = bool(args.trace)
    if not trace:
        import_s += host.import_seconds(str(SRC), samples=2)
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, trace,
                            workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    head = host.header(args.workload, args.seed, args.seconds, trace,
                       out["run_lengths"])
    head["host.steal_frac"] = out["steal_frac"]
    head["blas_threads"] = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    print(json.dumps({"header": head}, sort_keys=True))
    units = dict(ledger.PER_LAYER if trace else workloads.E2E)
    if trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / (
            f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for row in out["spans"]:
                handle.write(json.dumps(row) + "\n")
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        print(json.dumps({"report": out["report"]}, sort_keys=True))
        units.update(REPORT_UNITS)
    for line in _table(out.get("report", out["metrics"]), units):
        print(line)
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in (ledger.PER_LAYER if trace
                               else workloads.E2E)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""ggkdv benchmark: one workload per call, run in a fresh worker process.

    python3 perfbench/run.py --workload {steer,observe,stabilize,cli} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the sources under ``src/`` of the
checkout it lives in.  Set-up time comes from several fresh interpreters
that import ggkdv and build the workload's spectrum tables.  The worker
(``worker.py``) then measures the workload as one closed-loop client and
checks every result.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Full results go to ``.bench_out/BENCH_*.json``.

BLAS thread settings are inherited from the caller and never set here,
except by the thread-determinism probe of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORKLOADS, checkout_env

HERE = Path(__file__).resolve().parent
# set-up probes run before and after the worker: the machine's speed
# drifts over seconds, so spreading them out samples more of it
SETUP_PROCESSES = (3, 3)
DEADLINE_S = 170


def setup_probes(workload: str, env: dict, count: int,
                 walls: list[float], imports: list[float]) -> None:
    """Append the whole-process wall times and in-process import times of
    fresh interpreters that import ggkdv and build the workload's tables."""
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"),
                               workload], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60, check=True)
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(proc.stdout)["import_s"])


def thread_byte_mismatch(out: Path, env: dict) -> float:
    """1 if ``observe`` at N=48, window 0.5 writes different bytes under
    one BLAS thread than under the inherited setting, else 0."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "observe.json"
    config.write_text(json.dumps({"N": 48, "window_length": 0.5}))
    written = []
    for label, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("inherited", {})):
        subprocess.run([sys.executable, "-m", "ggkdv.cli", "observe",
                        "--preset", "generic", "--config", str(config),
                        "--out", str(out / label), "--quiet"],
                       env={**env, **extra}, cwd=ROOT, timeout=60, check=True,
                       capture_output=True)
        written.append((out / label / "observability.csv").read_bytes())
    return float(written[0] != written[1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begin = time.perf_counter()

    if not (ROOT / "src" / "ggkdv" / "__init__.py").is_file():
        print(f"no ggkdv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env = checkout_env()

    walls, imports = [], []
    setup_probes(args.workload, env, SETUP_PROCESSES[0], walls, imports)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result_file = out / f"worker_{tag}.json"
    # own session, so a worker past the deadline goes down with its children
    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--result", str(result_file)],
                              env=env, cwd=ROOT, start_new_session=True)
    try:
        code = worker.wait(timeout=DEADLINE_S - (time.perf_counter() - begin))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise
    if code:
        print(f"worker exited with {code}", file=sys.stderr)
        return 1
    setup_probes(args.workload, env, SETUP_PROCESSES[1], walls, imports)
    result = json.loads(result_file.read_text())
    values = dict(result["metrics"])
    if args.trace:
        values["cli.import.p50_ms"] = statistics.median(imports) * 1e3
        values["gram.thread_byte_mismatch"] = thread_byte_mismatch(
            out / "thread_probe", env)
        declared = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(walls)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]}
               for m in declared}
    if values:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(values)}")

    bench = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, **{k: result[k] for k in (
                     "environment", "correct", "attempted", "failed",
                     "unexpected_failures", "known_seed_failures_seen",
                     "report", "spans_file")},
                 setup_wall_s=walls, metrics=metrics)
    (out / f"BENCH_{tag}.json").write_text(json.dumps(bench, indent=1) + "\n")

    print(f"ggkdv benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in
                                        result["environment"].items()))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in result["report"].items():
        print(f"  (report) {name:<39} {value:>14.6g} {unit}")
    for case, count in result["known_seed_failures_seen"].items():
        print(f"  known seed failure: {case} failed {count} time(s)")
    for case, N, why in result["unexpected_failures"]:
        print(f"  UNEXPECTED failure: {case} N={N}: {why}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Single-process benchmark worker: one closed-loop client running one
workload, started fresh by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --result FILE

It imports ggkdv from the checkout before anything else touches numpy,
builds the spectrum tables of its ladder, warms up, runs whole rounds of
the workload until ``--seconds`` of task time have passed, then checks
every result and writes the metrics as JSON to FILE.  With ``--trace 1``
the time is split: an untraced half, then a traced half that yields the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ggkdv  # noqa: E402  (first, so a package-level BLAS policy applies)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from ggkdv import spectral  # noqa: E402
from common import ROOT, WORKLOADS  # noqa: E402
from tracing import Tracer, layer_metric  # noqa: E402

SMALL_N = 16
# per-layer metrics that run.py measures in separate processes
PARENT_METRICS = {"cli.import.p50_ms", "gram.thread_byte_mismatch"}
# stop even if the tail is still short of samples
MAX_TIMED_S = 120.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Phase:
    """Whole rounds of one workload, timed task by task.  A phase ends only
    at a round boundary, so every figure comes from the same task mix."""

    def __init__(self):
        self.records: list[workloads.Record] = []
        self.timed_s = 0.0
        self.rounds = 0

    def run(self, wl, seed: int, seconds: float, tr: Tracer, min_small: int,
            first_round: int, next_id) -> int:
        small, r = 0, first_round

        def finished():
            if self.timed_s >= MAX_TIMED_S:
                return True
            return self.rounds and self.timed_s >= seconds and small >= min_small

        while not finished():
            for unit in wl.make_round(seed, r):
                records, dt = wl.run(unit, tr, r, next_id)
                self.records += records
                small += sum(rec.in_latency and rec.N <= SMALL_N for rec in records)
                self.timed_s += dt
            self.rounds += 1
            r += 1
        return r

    def tasks_per_s(self) -> float:
        """Tasks that passed their check per second of task time."""
        return sum(rec.ok for rec in self.records) / self.timed_s


def warm_up(wl, seed: int, next_id) -> None:
    """One unit per size, untimed: lazy imports and first-call set-up."""
    seen = set()
    for unit in wl.make_round(seed, 0):
        if unit.N not in seen:
            seen.add(unit.N)
            wl.run(unit, Tracer(False), 0, next_id)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def central(values) -> float:
    """Mean of the middle half of the samples.  The host's speed switches
    between states lasting seconds; a plain median jumps between them as
    their mix shifts, this moves in proportion."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def end_to_end(phase: Phase, wl_name: str, percentile: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """Latency figures are taken per setting, a (case, N) pair, as the
    mean of the middle half of its samples, and combined by geometric mean:
    a median pooled over settings of different cost jumps between them
    from run to run."""
    recs = phase.records
    by_setting: dict[tuple, list] = {}
    for rec in recs:
        if rec.in_latency:
            by_setting.setdefault((rec.case, rec.N), []).append(rec)
    center_ms = {key: central([rec.latency_s for rec in group]) * 1e3
                 for key, group in by_setting.items()}
    small = [key for key in center_ms if key[1] <= SMALL_N]
    top = max(N for _, N in center_ms)
    small_p50 = geomean(center_ms[key] for key in small)
    # each small task relative to its setting's center, pooled
    ratios = [rec.latency_s * 1e3 / center_ms[key]
              for key in small for rec in by_setting[key]]
    tail_ratio, beyond = tail(ratios, percentile)
    digits_by_setting: dict[tuple, list] = {}
    for rec in recs:
        if rec.digits is not None:
            digits_by_setting.setdefault((rec.case, rec.N), []).append(rec.digits)
    setting_digits = [statistics.median(d) for d in digits_by_setting.values()]
    passed = sum(rec.ok for rec in recs)
    metrics = {
        "tasks_per_s": phase.tasks_per_s(),
        "small_p50_ms": small_p50,
        "small_tail_ms": small_p50 * tail_ratio,
        "large_p50_ms": geomean(ms for (_, N), ms in center_ms.items()
                                if N == top),
        "pass_ratio": passed / len(recs),
        "digits_p50": statistics.median(setting_digits),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {  # printed and kept, but not gated: (value, unit)
        "fail_ratio": (1 - passed / len(recs), "ratio"),
        "tail_percentile": (percentile, "%"),
        "small_samples": (len(ratios), "count"),
        "small_samples_beyond_tail": (beyond, "count"),
        "small_settings": (len(small), "count"),
        "large_N": (top, "N"),
        "rounds": (phase.rounds, "count"),
        "timed_s": (phase.timed_s, "s"),
    }
    if wl_name == "cli":
        every = [rec.latency_s * 1e3 for rec in recs]
        process_tail, process_beyond = tail(every, percentile)
        report["process_p50_ms"] = (statistics.median(every), "ms")
        report["process_tail_ms"] = (process_tail, "ms")
        report["process_samples_beyond_tail"] = (process_beyond, "count")
    return metrics, report


def per_layer(names: list[str], tr: Tracer, plain: Phase, traced: Phase,
              cache_delta) -> dict:
    timed = traced.timed_s
    first = {min(rec.round for rec in traced.records)}
    specials = {
        "spectral.spectrum_table.calls": cache_delta[0] + cache_delta[1],
        "spectral.spectrum_table.hit_ratio":
            cache_delta[0] / max(1, cache_delta[0] + cache_delta[1]),
        "signals.kernel_evals": sum(
            rec.result["kernel_evals"] for rec in traced.records
            if rec.round in first and rec.result is not None),
        "trace.overhead_tasks_per_s": plain.tasks_per_s() - traced.tasks_per_s(),
        "trace.spans": len(tr.spans),
    }
    out = {}
    for name in names:
        if name in PARENT_METRICS:
            continue
        value = specials[name] if name in specials else layer_metric(tr, name, timed)
        if value is None:
            raise SystemExit(f"no rule computes per-layer metric {name!r}")
        out[name] = value
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    if not Path(ggkdv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ggkdv imported from {ggkdv.__file__}, not the checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((Path(__file__).parent / "mapping.json").read_text())
    percentile = mapping["tail_percentile"][args.workload]
    known = {f["case"] for f in mapping["known_seed_failures"]
             if f["workload"] == args.workload}
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"

    wl = workloads.make(args.workload, scratch)
    workloads.build_tables(args.workload)
    ids = iter(range(1 << 62))

    def next_id():
        return next(ids)

    warm_up(wl, args.seed, next_id)

    plain = Phase()
    if args.trace:
        tr = Tracer(True)
        traced = Phase()
        r = plain.run(wl, args.seed, args.seconds / 2, Tracer(False), 0, 1,
                      next_id)
        before = spectral.spectrum_table.cache_info()
        traced.run(wl, args.seed, args.seconds / 2, tr, 0, r, next_id)
        after = spectral.spectrum_table.cache_info()
        phases = [plain, traced]
    else:
        min_small = math.ceil(10 / (1 - percentile / 100))
        plain.run(wl, args.seed, args.seconds, Tracer(False), min_small, 1,
                  next_id)
        phases = [plain]
    # peak memory of the timed work, before the oracles allocate anything
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    records = [rec for phase in phases for rec in phase.records]
    wl.check(records)
    if args.trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], tr, plain,
                            traced, (after.hits - before.hits,
                                     after.misses - before.misses))
        spans = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.json"
        tr.write(spans)
        report = {}
    else:
        metrics, report = end_to_end(plain, args.workload, percentile,
                                     peak_rss_mb)

    failed = [rec for rec in records if not rec.ok]
    unexpected = [rec for rec in failed if rec.case not in known]
    seen_known = {}
    for rec in failed:
        if rec.case in known:
            seen_known[rec.case] = seen_known.get(rec.case, 0) + 1
    args.result.write_text(json.dumps({
        "environment": environment(),
        "attempted": len(records),
        "failed": len(failed),
        "correct": not unexpected and bool(records),
        "unexpected_failures": [(rec.case, rec.N, rec.why)
                                for rec in unexpected[:20]],
        "known_seed_failures_seen": seen_known,
        "metrics": metrics,
        "report": report,
        "spans_file": str(spans.relative_to(ROOT)) if args.trace else None,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

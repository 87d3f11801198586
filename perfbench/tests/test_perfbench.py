"""Tests of the benchmark itself: run with

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
import worker
from common import WORKLOADS
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAPPING = json.loads((BENCH_DIR / "mapping.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def ids():
    counter = iter(range(1 << 30))
    return lambda: next(counter)


def test_metric_names_units_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_every_per_layer_metric_has_a_rule():
    names = [m["name"] for m in SPEC["per_layer"]]
    empty = worker.Phase()
    empty.records = [workloads.Record("x", 6, (), 1, 0.1, {"kernel_evals": 3},
                                      ok=True)]
    empty.timed_s, empty.rounds = 0.1, 1
    values = worker.per_layer(names, Tracer(True), empty, empty, (0, 0))
    assert set(values) | worker.PARENT_METRICS == set(names)


def test_tail_has_ten_samples_beyond():
    for workload, percentile in MAPPING["tail_percentile"].items():
        needed = -(-10 * 100 // (100 - percentile))
        for n in (needed, needed + 7, 3 * needed):
            value, beyond = worker.tail([float(i) for i in range(n)], percentile)
            assert beyond >= 10, (workload, n)
            assert sum(v > value for v in range(n)) == beyond


class Quick:
    """A stand-in workload whose rounds take no time."""

    def make_round(self, seed, r):
        return [workloads.Unit("quick", N, (N,), {}) for N in (6, 16, 64)]

    def run(self, unit, tr, r, next_id):
        rec = workloads.Record(unit.case, unit.N, unit.item, r, 1e-4,
                               {"kernel_evals": 0}, ok=True, digits=15.0)
        return [rec], 1e-4


def test_run_keeps_going_until_the_tail_has_its_samples():
    phase = worker.Phase()
    phase.run(Quick(), 0, 0.0, Tracer(False), 100, 1, ids())
    metrics, report = worker.end_to_end(phase, "quick", 90, 1.0)
    assert report["small_samples_beyond_tail"][0] >= 10
    assert report["small_samples"][0] >= 100
    assert metrics["pass_ratio"] == 1.0


def _input_bytes(units) -> bytes:
    h = hashlib.sha256()
    for unit in units:
        h.update(repr((unit.case, unit.N, unit.item)).encode())
        for key in sorted(unit.args):
            value = unit.args[key]
            parts = value if isinstance(value, list) else [value]
            for part in parts:
                for leaf in (part if isinstance(part, tuple) else (part,)):
                    h.update(leaf.tobytes() if isinstance(leaf, np.ndarray)
                             else repr(leaf).encode())
    return h.digest()


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    wl = workloads.make(name, tmp_path)
    first = _input_bytes(wl.make_round(7, 1))
    assert _input_bytes(workloads.make(name, tmp_path).make_round(7, 1)) == first
    assert _input_bytes(wl.make_round(8, 1)) != first


def _small_observe(monkeypatch):
    monkeypatch.setattr(workloads, "OBS_REPEATS", {6: 1, 16: 1})
    monkeypatch.setattr(workloads, "DD_REPEATS", {6: 1})
    monkeypatch.setattr(workloads, "INGHAM_PER_ROUND", 2)
    return workloads.Observe()


def _run_round(wl, tracer):
    records = []
    for unit in wl.make_round(3, 1):
        records += wl.run(unit, tracer, 1, ids())[0]
    wl.check(records)
    return records


def test_oracle_catches_a_corrupted_beta(monkeypatch):
    wl = _small_observe(monkeypatch)
    records = _run_round(wl, Tracer(False))
    assert all(rec.ok for rec in records), [rec.why for rec in records]
    obs = [rec for rec in records if rec.case == "observability"]
    for rec in obs:
        rec.result["beta"] *= 1 + 1e-6
        rec.ok = False
    wl.check(obs)
    assert not any(rec.ok for rec in obs)


def test_oracle_catches_a_flipped_exit_code(tmp_path):
    wl = workloads.make("cli", tmp_path)
    unit = next(u for u in wl.make_round(3, 1) if u.case == "ingham")
    records, _ = wl.run(unit, Tracer(False), 1, ids())
    wl.check(records)
    assert records[0].ok, records[0].why
    records[0].result["code"] = 1
    wl.check(records)
    assert not records[0].ok and "exit 1" in records[0].why


def test_known_seed_failures_name_real_cases():
    cases = {"steer": {c[0] for c in workloads.STEER_CASES},
             "cli": {c[0] for c in workloads.CLI_INVOCATIONS}}
    for failure in MAPPING["known_seed_failures"]:
        assert failure["case"] in cases[failure["workload"]]
        assert failure["roadmap_item"] in ("numerical honesty", "CLI contract")


def test_traced_and_untraced_runs_check_the_same(monkeypatch):
    monkeypatch.setattr(workloads, "STEER_PAIRS", {6: 1})
    for wl in (_small_observe(monkeypatch), workloads.Steer()):
        plain = _run_round(wl, Tracer(False))
        tracer = Tracer(True)
        traced = _run_round(wl, tracer)
        assert tracer.spans
        assert [(r.case, r.ok, r.digits) for r in plain] == \
               [(r.case, r.ok, r.digits) for r in traced]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steer", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

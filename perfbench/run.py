"""Wall-clock benchmark of the CheckMate simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-goldens [--workload NAME]
    python3 perfbench/run.py --self-test

A run repeats one paper cell (see ``workloads.py``) in a closed loop: each
repetition runs in a fresh single-threaded interpreter (``cell.py``), one
at a time, and the next starts only after the previous one ended. A new
repetition starts while the run is younger than ``--seconds`` and the last
one's wall time still fits; every run makes at least one. The MST probe's
``lru_cache`` and the memory of earlier cells therefore never reach
``setup_s`` or ``peak_rss_mb``.

Every repetition's outputs are checked against ``goldens.json``: crc32
digests of the metrics row, the deduplicated sink output and the final
state fingerprints, plus the fixed work counts. A repetition that raises,
times out or breaks a digest counts as failed, and the command then exits
with code 1. With ``--trace 1`` repetitions alternate between untraced and
traced (``layertrace.py``) cells; the traced ones give the per-layer
metrics and the difference of the two medians of ``cell_s`` is the tracing
overhead.

``cell_s``, ``setup_s`` and ``msgs_per_s`` are scaled to a reference host
speed measured inside each repetition (``cell.HostSpeed``); the report
also prints the unscaled wall-clock medians.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (medians over the run's repetitions). Details,
the machine and the spans of the last traced cell go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from importlib import metadata
from pathlib import Path

from workloads import SEEDS, WORKLOADS, lookup, workload_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
#: a run, its last repetition included, ends within this many seconds
HARD_LIMIT = 170.0
#: end-to-end metrics: name -> unit
END_TO_END = {"cell_s": "s", "setup_s": "s", "msgs_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def run_cell(workload: str, seed: int, *, timeout: float, trace: bool = False,
             reference: bool = False, spans: Path = None, hash_seed: str = "0"):
    """One repetition in a fresh interpreter: (record or None, error or None)."""
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if reference:
        cmd.append("--reference")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(rec: dict, golden: dict):
    """Error text if the repetition's outputs differ from the golden ones."""
    bad = [k for k in golden["digests"] if rec["digests"].get(k) != golden["digests"][k]]
    bad += [k for k in golden["counts"] if rec["counts"].get(k) != golden["counts"][k]]
    return f"differs from golden: {', '.join(bad)}" if bad else None


def measure(workload: str, seed: int, seconds: float, trace: bool, goldens: dict) -> dict:
    golden = goldens[workload][str(seed)]
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    start = time.perf_counter()
    cells, traced, errors = [], [], []
    while True:
        round_start = time.perf_counter()
        for with_trace in (False, True) if trace else (False,):
            rec, err = run_cell(
                workload, seed, trace=with_trace, spans=spans if with_trace else None,
                timeout=HARD_LIMIT - (time.perf_counter() - start),
            )
            err = err or check(rec, golden)
            if err:
                errors.append(err)
            else:
                (traced if with_trace else cells).append(rec)
        now = time.perf_counter()
        took = now - round_start
        if now - start + took > min(seconds, HARD_LIMIT):
            break
    attempted = len(cells) + len(traced) + len(errors)
    metrics = {}
    if not trace and cells:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(c[name] for c in cells), "unit": unit}
    if trace and cells and traced:
        for name in traced[0]["layers"]:
            value = statistics.median(c["layers"][name] for c in traced)
            metrics[name] = {"value": value, "unit": _unit(name)}
        overhead = (statistics.median(c["cell_s"] for c in traced)
                    - statistics.median(c["cell_s"] for c in cells))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "workload": workload,
        "seed": seed,
        "exactly_once": golden["exactly_once"],
        "attempted": attempted,
        "failed": len(errors),
        "failed_frac": len(errors) / attempted,
        "errors": errors,
        "counts": golden["counts"],
        "metrics": metrics,
        "cells": cells,
        "traced_cells": traced,
        "machine": machine(),
    }


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_crc = 0
    for path in sorted(SRC.rglob("*.py")):
        src_crc = zlib.crc32(path.read_bytes(), src_crc)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "src_crc32": f"{src_crc:08x}",
    }


def report(result: dict, seed_arg: int) -> None:
    print(f"workload {result['workload']}  seed {result['seed']} (--seed {seed_arg})  "
          f"exactly_once {str(result['exactly_once']).lower()}")
    n = len(result["traced_cells"] or result["cells"])
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']:6s} median of {n}")
    if result["cells"]:
        wall = {k: statistics.median(c["wall"][k] for c in result["cells"])
                for k in result["cells"][0]["wall"]}
        print("  unscaled wall-clock medians: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    print(f"  {'failed_frac':42s} {result['failed_frac']:>16.6f} {'':6s} "
          f"{result['failed']} of {result['attempted']}")
    for err in result["errors"]:
        print(f"  failed: {err}")
    mc = result["machine"]
    print(f"  machine: {mc['nproc']} cpus, {mc['cpu']}, python {mc['python']}, "
          f"numpy {mc['numpy']}, commit {mc['commit']}, src crc32 {mc['src_crc32']}")


def record_goldens(names) -> int:
    """Record the golden outputs of every seed in ``SEEDS``. Each cell runs
    under two hash seeds, which must agree, and once as the failure-free
    ``protocol="none"`` reference for the exactly-once flag."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for name in names:
        for seed in SEEDS:
            runs = [run_cell(name, seed, timeout=900, hash_seed=h) for h in ("0", "1")]
            ref, ref_err = run_cell(name, seed, timeout=900, reference=True)
            errors = [e for _, e in runs if e] + ([ref_err] if ref_err else [])
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            (a, _), (b, _) = runs
            if (a["digests"], a["counts"]) != (b["digests"], b["counts"]):
                print(f"{name} seed {seed}: outputs depend on PYTHONHASHSEED", file=sys.stderr)
                return 1
            exactly_once = all(a["digests"][k] == ref["digests"][k] for k in ("sink", "state"))
            goldens.setdefault(name, {})[str(seed)] = {
                "digests": a["digests"],
                "counts": a["counts"],
                "exactly_once": exactly_once,
            }
            print(f"{name} seed {seed}: {a['digests']} exactly_once={exactly_once} "
                  f"sink {a['counts']['sink_records']} vs {ref['counts']['sink_records']}")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def benchmark(name: str, seed_arg: int, seconds: float, trace: bool, goldens: dict):
    """Measure, write the details, print the report and the result line.
    Returns (exit code, result)."""
    result = measure(name, workload_seed(seed_arg), seconds, trace, goldens)
    (OUT / f"{name}-seed{result['seed']}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result, seed_arg)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return (0 if result["failed"] == 0 else 1), result


def self_test() -> int:
    """The gate cannot pass silently: a perturbed golden digest and a
    workload that raises must both fail the run and its exit code."""
    goldens = json.loads(GOLDENS.read_text())
    bad = json.loads(json.dumps(goldens))
    for entry in bad["q8-coor-skew"].values():
        entry["digests"]["sink"] = f"{int(entry['digests']['sink'], 16) ^ 1:08x}"
    bad["selftest-cyclic-coor"] = bad["q8-coor-skew"]
    ok = True
    for name, gold, should_fail in (
        ("q8-coor-skew", goldens, False),
        ("q8-coor-skew", bad, True),
        ("selftest-cyclic-coor", bad, True),
    ):
        code, res = benchmark(name, 0, 1.0, False, gold)
        if should_fail:
            good = code != 0 and res["failed"] == res["attempted"]
        else:
            good = code == 0 and res["failed"] == 0
        ok &= good
        print(f"self-test {name} with {'perturbed' if gold is bad else 'stored'} goldens: "
              f"exit {code}, {res['failed']} of {res['attempted']} failed -> "
              f"{'ok' if good else 'WRONG'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="workload name (see workloads.py)")
    ap.add_argument("--seed", type=int, default=0,
                    help="selects the workload seed SEEDS[seed %% len(SEEDS)]")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true",
                    help="record the goldens of --workload, or of every workload")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "core" / "harness.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.record_goldens:
        return record_goldens([args.workload] if args.workload else list(WORKLOADS))
    if not args.workload:
        ap.error("give a --workload")
    lookup(args.workload)  # KeyError for an unknown workload
    code, _ = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                        json.loads(GOLDENS.read_text()))
    return code


if __name__ == "__main__":
    sys.exit(main())

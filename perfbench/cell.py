"""Run one benchmark cell in this (fresh) interpreter and print its record.

Usage: ``python3 perfbench/cell.py --workload NAME --seed N [--trace]
[--spans PATH] [--reference]``, with ``src`` on ``PYTHONPATH``. ``--seed``
is the workload seed itself. The last stdout line is a JSON record.

The cell goes through the public pipeline ``measure_mst`` ->
``core.config.build`` -> ``Simulation.run`` -> ``core.harness.metrics_row``.
``--reference`` runs the failure-free ``protocol="none"`` cell at the same
rate and seed instead, for the exactly-once comparison.

Its times are scaled to a reference host speed (see :class:`HostSpeed`);
the unscaled wall-clock times are kept under ``"wall"``.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import zlib
from pathlib import Path

from workloads import lookup

SRC = Path(__file__).resolve().parent.parent / "src"


#: iterations of the reference loop, and its time at the reference speed:
#: the quiet state of a 4-vCPU Xeon microVM (Python 3.11)
REF_LOOP_N = 3000
REF_LOOP_S = 200e-6
#: seconds between two runs of the reference loop
SAMPLE_EVERY = 0.05


class HostSpeed:
    """Times a fixed reference loop every 50 ms while the cell runs, from a
    timer signal, on the same CPU and in the same process.

    On a shared host other tenants slow each vCPU by up to 2x, in phases
    that last seconds to minutes. A time ``t`` measured while the loop took
    ``L`` on average is reported as ``t * REF_LOOP_S / L``: the time at the
    reference speed. This removes most of the host's swing from the
    metrics, not the program's own changes, because the loop runs no
    program code. The sampling costs about 1 % of the cell's time.
    """

    def __init__(self):
        self.samples = []  #: (start, seconds) of each loop

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for k in range(REF_LOOP_N):
            acc += k * k
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time over [start, end), or over the whole cell when
        no sample fell in the interval."""
        inside = [d for t, d in self.samples if start <= t < end]
        return statistics.mean(inside or [d for _, d in self.samples] or [REF_LOOP_S])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * REF_LOOP_S / self.loop_s(start, end)


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def digests(row: dict, res) -> dict:
    """crc32 of the metrics row, the deduplicated sink output and the final
    operator-state fingerprints, each in a canonical (sorted) text form."""
    sink = "\n".join(
        f"{name}\t{uid}\t{values[uid]!r}"
        for name, values in sorted(res.sink_results.items())
        for uid in sorted(values)
    )
    state = "\n".join(f"{inst!r}\t{fp!r}" for inst, fp in sorted(res.state_fingerprints.items()))
    return {
        "row": _crc(json.dumps(row, sort_keys=True)),
        "sink": _crc(sink),
        "state": _crc(state),
    }


def run_cell(name: str, seed: int, reference: bool = False) -> dict:
    from repro.core import config, harness, mst

    wl = lookup(name)
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        rate_mst = mst.measure_mst(wl.query, wl.protocol, wl.workers)
        cfg = wl.config(wl.mst_fraction * rate_mst, seed, "none" if reference else None)
        sim = config.build(cfg)
        t1 = time.perf_counter()
        res = sim.run(cfg.duration, fail_at=cfg.fail_at)
        t2 = time.perf_counter()
        row = harness.metrics_row(cfg, res, rate_mst)
        t3 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tel = res.telemetry
    counts = {
        "source_emitted": tel.n_source_emitted,
        "data_msgs": tel.n_data_msgs,
        "marker_msgs": tel.n_marker_msgs,
        "sinked": tel.n_sinked,
        "dup_sink": res.n_duplicate_sink_arrivals,
        "dedup_drops": res.n_dedup_drops,
        "ckpt_total": row["ckpt_total"],
        "invalid": row["invalid"],
        "replayed": row["n_replay"],
        "sink_records": sum(len(v) for v in res.sink_results.values()),
    }
    msgs = counts["source_emitted"] + counts["data_msgs"] + counts["marker_msgs"]
    return {
        "cell_s": speed.scaled(t0, t3),
        "setup_s": speed.scaled(t0, t1),
        "msgs_per_s": msgs / speed.scaled(t1, t2),
        "peak_rss_mb": peak_kb / 1024.0,
        "wall": {"cell_s": t3 - t0, "setup_s": t1 - t0, "run_s": t2 - t1,
                 "msgs_per_s": msgs / (t2 - t1), "ref_loop_s": speed.loop_s(t0, t3)},
        "counts": counts,
        "digests": digests(row, res),
    }


def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer metrics of one traced cell, named after ``src/repro``."""
    sim, c = tracer.sim, out["counts"]
    m = {}

    def seconds(metric: str, span: str, own: bool = False) -> None:
        _, total, own_s = tracer.totals(span)
        m[metric] = own_s if own else total

    def calls(metric: str, span: str) -> None:
        m[metric] = tracer.totals(span)[0]

    seconds("nexmark.generator.topics_s", "nexmark.generator.topics")
    seconds("nexmark.cyclic.topics_s", "nexmark.cyclic.topics")
    seconds("core.mst.probe_s", "core.mst.probe")
    seconds("dataflow.simulator.init_s", "dataflow.simulator.init")
    seconds("dataflow.simulator.run_s", "dataflow.simulator.run")
    seconds("dataflow.simulator.run_self_s", "dataflow.simulator.run", own=True)
    for key in ("source_emitted", "data_msgs", "marker_msgs", "dedup_drops", "dup_sink"):
        m[f"dataflow.simulator.{key}"] = c[key]
    for op in ("snapshot", "restore", "process"):
        calls(f"dataflow.operators.{op}_n", f"dataflow.operators.{op}")
        seconds(f"dataflow.operators.{op}_s", f"dataflow.operators.{op}")
    m["dataflow.operators.snapshot_bytes"] = tracer.sums["dataflow.operators.snapshot_bytes"]
    calls("dataflow.state.put_n", "dataflow.state.put")
    m["dataflow.state.ckpts_stored"] = sim.store.total_count()
    calls("dataflow.state.log_append_n", "dataflow.state.log_append")
    seconds("dataflow.state.log_append_s", "dataflow.state.log_append")
    m["dataflow.state.logged"] = sim.msg_log.total_logged()
    calls("dataflow.state.replay_range_n", "dataflow.state.replay_range")
    seconds("dataflow.state.replay_range_s", "dataflow.state.replay_range")
    for hook in ("on_send", "before_process"):
        calls(f"protocols.{hook}_n", f"protocols.{hook}")
        seconds(f"protocols.{hook}_s", f"protocols.{hook}")
    calls("protocols.on_marker_n", "protocols.on_marker")
    seconds("protocols.on_marker_self_s", "protocols.on_marker", own=True)
    seconds("protocols.plan_recovery_s", "protocols.plan_recovery")
    seconds("core.harness.metrics_row_s", "core.harness.metrics_row")
    # ratios of useful to attempted work, each with its base
    m["dataflow.state.ckpt_total"] = c["ckpt_total"]
    m["dataflow.state.valid_ckpt_ratio"] = (c["ckpt_total"] - c["invalid"]) / c["ckpt_total"]
    arrivals = c["sinked"] + c["dup_sink"]
    m["dataflow.simulator.sink_arrivals"] = arrivals
    m["dataflow.simulator.first_delivery_ratio"] = c["sinked"] / arrivals
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced cell's spans here")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        from layertrace import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    out = run_cell(args.workload, args.seed, reference=args.reference)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

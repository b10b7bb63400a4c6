"""Layer tracing from outside the program.

``instrument`` wraps the public functions of each layer of ``repro`` with
timers, in the current process only; nothing under ``src/`` changes.

- Coarse calls (MST probe, topic generation, ``Simulation.__init__`` and
  ``run``, ``plan_recovery``, operator ``snapshot``/``restore``,
  ``MessageLog.replay_range``, ``metrics_row``) become spans: name, start,
  end, parent span, self time.
- Per-message hooks (operator ``process``, protocol ``on_send``,
  ``before_process`` and ``on_marker``, ``MessageLog.append``,
  ``CheckpointStore.put``) only add to a count, a total and a self time.

A call's self time is its duration minus the time of the traced calls
nested in it. Spans stay in memory until :meth:`Tracer.dump`.
Per-instance hooks are installed on the cell's own simulation only, not
on the simulation the MST probe builds, so hook counts describe the cell.
"""
from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

PROBE = "core.mst.probe"


class Tracer:
    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, self seconds)
        self.spans: List[Optional[Tuple[str, float, float, int, float]]] = []
        #: hook name -> [calls, total seconds, self seconds]
        self.hooks: Dict[str, List[float]] = {}
        #: name -> running sum of a returned value
        self.sums: Dict[str, float] = {}
        #: open calls: [child seconds, index of the enclosing span, name]
        self._stack: List[list] = [[0.0, -1, ""]]
        #: the simulation built outside the probe (the cell's own)
        self.sim: Any = None

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved, so nested spans see their parent
            frame = [0.0, idx, name]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                spans[idx] = (name, t0, t1, parent, t1 - t0 - frame[0])

        return traced

    def hook(self, name: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        agg = self.hooks.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1], name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]

        return traced

    def summed(self, name: str, fn: Callable) -> Callable:
        """Add up ``fn``'s return values, untimed."""
        self.sums.setdefault(name, 0)
        sums = self.sums

        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            sums[name] += out
            return out

        return traced

    def in_probe(self) -> bool:
        return any(frame[2] == PROBE for frame in self._stack)

    # ---------------------------------------------------------------- report
    def _cell_spans(self) -> List[Tuple[str, float, float, int, float]]:
        """Closed spans that do not descend from the MST probe."""
        probe = set()
        out = []
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            if s[0] == PROBE or s[3] in probe:
                probe.add(i)
            else:
                out.append(s)
        return out

    def totals(self, name: str) -> Tuple[int, float, float]:
        """(calls, seconds, self seconds) of a span or hook, cell phase."""
        if name in self.hooks:
            n, total, own = self.hooks[name]
            return int(n), total, own
        if name == PROBE:
            picked = [s for s in self.spans if s and s[0] == PROBE]
        else:
            picked = [s for s in self._cell_spans() if s[0] == name]
        return len(picked), sum(s[2] - s[1] for s in picked), sum(s[4] for s in picked)

    def dump(self, path: str) -> None:
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                         "parent": s[3], "self": s[4]}
                        for s in self.spans if s
                    ],
                    "hooks": {k: {"n": v[0], "s": v[1], "self_s": v[2]}
                              for k, v in self.hooks.items()},
                    "sums": self.sums,
                },
                f,
            )


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points of ``repro`` in this process."""
    from repro.core import config, harness, mst
    from repro.dataflow.simulator import Simulation

    mst.measure_mst = tracer.span(PROBE, mst.measure_mst)
    config.topics_for_query = tracer.span("nexmark.generator.topics", config.topics_for_query)
    config.cyclic_topics = tracer.span("nexmark.cyclic.topics", config.cyclic_topics)
    harness.metrics_row = tracer.span("core.harness.metrics_row", harness.metrics_row)
    Simulation.run = tracer.span("dataflow.simulator.run", Simulation.run)

    init = Simulation.__init__

    def init_and_hook(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        if not tracer.in_probe():
            tracer.sim = sim
            _hook_instances(tracer, sim)

    Simulation.__init__ = tracer.span("dataflow.simulator.init", init_and_hook)


def _hook_instances(tracer: Tracer, sim) -> None:
    """Per-instance wrappers: the simulator calls these through instance
    attributes, so calls the layers make to themselves stay unwrapped."""
    for op in sim.instances.values():
        op.process = tracer.hook("dataflow.operators.process", op.process)
        op.snapshot = tracer.span("dataflow.operators.snapshot", op.snapshot)
        op.restore = tracer.span("dataflow.operators.restore", op.restore)
        op.state_bytes = tracer.summed("dataflow.operators.snapshot_bytes", op.state_bytes)
    proto = sim.protocol
    proto.on_send = tracer.hook("protocols.on_send", proto.on_send)
    proto.before_process = tracer.hook("protocols.before_process", proto.before_process)
    proto.on_marker = tracer.hook("protocols.on_marker", proto.on_marker)
    proto.plan_recovery = tracer.span("protocols.plan_recovery", proto.plan_recovery)
    sim.msg_log.append = tracer.hook("dataflow.state.log_append", sim.msg_log.append)
    sim.msg_log.replay_range = tracer.span("dataflow.state.replay_range", sim.msg_log.replay_range)
    sim.store.put = tracer.hook("dataflow.state.put", sim.store.put)

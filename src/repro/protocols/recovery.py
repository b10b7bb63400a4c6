"""Recovery-line computation for uncoordinated checkpoints (paper §III-B).

Implements the *checkpoint graph* [47] and the *rollback propagation
algorithm* (paper Algorithm 1):

- Nodes are checkpoints ``(instance, index)``; index 0 is the implicit
  initial checkpoint every instance has at t=0.
- Orphan edge ``c_{i,x} -> c_{j,y}``: there is at least one message on a
  channel i->j sent after ``c_{i,x}`` (seq > last_sent at x) and processed
  before ``c_{j,y}`` (seq <= last_recv at y). Since last_sent/last_recv are
  monotone in the checkpoint index, one edge to the *earliest* such y plus
  the consecutive edges ``c_{j,y} -> c_{j,y+1}`` represents them all.
- Rollback propagation starts from the freshest checkpoint of every
  instance (the root set), marks root checkpoints strictly reachable from
  other root checkpoints, replaces marked ones with the next-older
  checkpoint of the same instance, and repeats until no root checkpoint is
  marked. The result is the most recent consistent recovery line.

The channels come from the checkpoints themselves: every checkpoint, the
initial one included, records each of its instance's out channels as a
``last_sent`` key, so the store alone defines the graph.
"""
from __future__ import annotations

import bisect
from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

from repro.dataflow.messages import InstanceId
from repro.dataflow.state import CheckpointStore

Node = Tuple[InstanceId, int]


def build_checkpoint_graph(
    store: CheckpointStore, instances: List[InstanceId]
) -> Dict[Node, List[Node]]:
    """Adjacency list of the checkpoint graph over all stored checkpoints."""
    adj: Dict[Node, List[Node]] = {}
    metas = {inst: [cp.meta for cp in store.checkpoints(inst)] for inst in instances}
    inst_set = set(instances)
    for inst in instances:
        ms = metas[inst]
        for x in range(len(ms)):
            adj[(inst, x)] = []
        for x in range(len(ms) - 1):  # consecutive edges
            adj[(inst, x)].append((inst, x + 1))
    for inst in instances:
        ms = metas[inst]
        for ch in ms[0].last_sent:  # the initial checkpoint lists them all
            dst: InstanceId = (ch[2], ch[3])
            if dst not in inst_set:
                continue  # sinks are external, never checkpoint
            recv = [m.last_recv.get(ch, 0) for m in metas[dst]]
            if not recv or recv[-1] == 0:
                continue  # no message ever processed on this channel
            for x, m in enumerate(ms):
                sent = m.last_sent.get(ch, 0)
                # earliest y with last_recv > sent
                y = bisect.bisect_right(recv, sent)
                if y < len(recv):
                    adj[(inst, x)].append((dst, y))
    return adj


def _reachable(adj: Dict[Node, List[Node]], start: Node, targets: Set[Node]) -> Set[Node]:
    """Targets strictly reachable from ``start`` (start itself excluded
    unless reached through a cycle)."""
    hit: Set[Node] = set()
    seen = {start}
    dq = deque(adj.get(start, ()))
    while dq:
        n = dq.popleft()
        if n in seen:
            continue
        seen.add(n)
        if n in targets:
            hit.add(n)
        dq.extend(adj.get(n, ()))
    return hit


def rollback_propagation(
    adj: Dict[Node, List[Node]],
    latest: Dict[InstanceId, int],
) -> Dict[InstanceId, int]:
    """Paper Algorithm 1: return the consistent recovery line as a mapping
    instance -> checkpoint index."""
    root: Dict[InstanceId, int] = dict(latest)
    for _ in range(sum(latest.values()) + len(latest) + 1):
        root_nodes = {(i, x) for i, x in root.items()}
        marked: Set[Node] = set()
        for node in root_nodes:
            marked |= _reachable(adj, node, root_nodes - {node})
        if not marked:
            return root
        for inst, x in list(root.items()):
            if (inst, x) in marked:
                if x == 0:
                    # initial checkpoints are always mutually consistent;
                    # being "marked" at index 0 cannot force further rollback
                    continue
                root[inst] = x - 1
    return root  # pragma: no cover — loop bound generous enough to converge


def find_recovery_line(
    store: CheckpointStore,
    instances: List[InstanceId],
    counted: Iterable[InstanceId],
) -> Tuple[Dict[InstanceId, int], int, int]:
    """Compute the recovery line.

    Returns ``(line, invalid_nodes, ckpts_scanned)`` where ``invalid_nodes``
    is the number of checkpoints newer than the line (the checkpoints that
    can no longer be part of any consistent recovery line — paper Table III
    counts these) over the ``counted`` instances.
    """
    adj = build_checkpoint_graph(store, instances)
    latest = {inst: len(store.checkpoints(inst)) - 1 for inst in instances}
    line = rollback_propagation(adj, latest)
    invalid = sum(latest[i] - line[i] for i in counted)
    scanned = sum(latest[i] + 1 for i in instances)
    return line, invalid, scanned

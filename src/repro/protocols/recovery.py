"""Recovery-line computation for uncoordinated checkpoints (paper §III-B).

The recovery line maps every instance to a checkpoint index; index 0 is
the implicit initial checkpoint every instance has at t=0. A line is
consistent when no worker-to-worker channel has an *orphan*: a message
the receiver's checkpoint processed (``last_recv``) but the sender's
checkpoint had not sent (``last_sent``). Consistent lines are closed
under the component-wise maximum, so a greatest one exists; it is the
line paper Algorithm 1 (rollback propagation, [47]) finds, computed here
as a fixpoint over the channel counters:

- start every instance at its freshest checkpoint;
- while some channel has an orphan, move its receiver back to its latest
  live checkpoint without that orphan (index 0 has processed nothing, so
  the walk stops there at the latest).

A receiver only moves when every consistent line below the current one
has it at or below its new index, so the fixpoint is the greatest
consistent line. That holds while ``last_sent``/``last_recv`` rise with
the checkpoint index, so the walk runs over each instance's *live chain*
(``CheckpointStore.live``) and moves a receiver to its previous live
record. A recovery retires the records above the line it restored, and
the counters the resumed run records rise again from that line, so they
rise along the live chain after any number of recoveries.

A consistent line stays consistent as checkpoints are added, so the
greatest line only moves up: every later recovery line is at or above
the one found now. UNC/CIC use this to drop the payloads below it.

The channels come from the checkpoints themselves: every checkpoint, the
initial one included, records each of its instance's out channels as a
``last_sent`` key, so the store alone defines them.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.dataflow.messages import Channel, InstanceId
from repro.dataflow.state import CheckpointStore


def channel_counters(
    store: CheckpointStore, line: Dict[InstanceId, int]
) -> Iterator[Tuple[Channel, int, int]]:
    """``(channel, recv@line, sent@line)`` of every worker-to-worker channel.
    Sinks are external: they never checkpoint, and the messages in flight
    to them still arrive."""
    for src, x in line.items():
        for ch, sent in store.get(src, x).last_sent.items():
            dst = (ch[2], ch[3])
            if dst in line:
                yield ch, store.get(dst, line[dst]).last_recv.get(ch, 0), sent


def find_recovery_line(
    store: CheckpointStore,
    instances: Iterable[InstanceId],
    counted: Iterable[InstanceId],
) -> Tuple[Dict[InstanceId, int], int]:
    """Compute the recovery line.

    Returns ``(line, invalid_nodes)`` where ``invalid_nodes`` is the
    number of live checkpoints newer than the line (the checkpoints that
    can no longer be part of any consistent recovery line — paper Table
    III counts these) over the ``counted`` instances.
    """
    chains = {inst: store.live(inst) for inst in instances}
    pos = {inst: len(chain) - 1 for inst, chain in chains.items()}
    line = {inst: chain[-1].index for inst, chain in chains.items()}
    while orphans := [(ch, sent) for ch, recv, sent in channel_counters(store, line) if recv > sent]:
        for ch, sent in orphans:
            dst = (ch[2], ch[3])
            chain = chains[dst]
            while chain[pos[dst]].last_recv.get(ch, 0) > sent:
                pos[dst] -= 1
            line[dst] = chain[pos[dst]].index
    return line, sum(len(chains[i]) - 1 - pos[i] for i in counted)

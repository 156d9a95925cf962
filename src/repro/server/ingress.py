"""Bounded FIFO query intake: the M/M/1/K station of one peer.

The paper's server model is a single service slot fed by a bounded
request queue; queries arriving while the slot is busy and the queue is
full are dropped.  :class:`IngressQueue` owns exactly that state -- the
FIFO, the capacity, the message in service, and the drop count -- and nothing
else, so the queueing discipline can be audited (and swapped) without
touching routing or replication code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.message import QueryMessage


class IngressQueue:
    """Bounded FIFO request queue with drop accounting.

    Attributes:
        queue: the waiting messages (excludes the one in service).
        capacity: maximum queued messages; arrivals beyond it drop.
        in_service: the message occupying the single service slot, or
            None while the slot is free.
        n_drops: queries dropped because the queue was full.
    """

    __slots__ = ("queue", "capacity", "in_service", "n_drops")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.queue: Deque[QueryMessage] = deque()
        self.capacity = capacity
        self.in_service: Optional[QueryMessage] = None
        self.n_drops = 0

    def offer(self, msg: QueryMessage) -> bool:
        """Append ``msg`` unless the queue is full.

        Returns:
            True when the message was queued; False when it was
            dropped (and counted).
        """
        if len(self.queue) >= self.capacity:
            self.n_drops += 1
            return False
        self.queue.append(msg)
        return True

    def pop(self) -> QueryMessage:
        """Dequeue the oldest waiting message (FIFO order)."""
        return self.queue.popleft()

    def clear(self) -> int:
        """Empty the station -- the waiting messages and the one in
        service -- without counting queue drops; returns how many
        messages it held.

        Used by fail-stop: the requests die with the server, and the
        caller accounts each as a failure loss.
        """
        n = len(self.queue) + (self.in_service is not None)
        self.queue.clear()
        self.in_service = None
        return n

    def __len__(self) -> int:
        return len(self.queue)

    def __bool__(self) -> bool:
        return len(self.queue) > 0

    def __repr__(self) -> str:
        return (
            f"IngressQueue(depth={len(self.queue)}/{self.capacity}, "
            f"in_service={self.in_service is not None}, drops={self.n_drops})"
        )

"""Box speed: a fixed reference task, timed between a run's timed calls.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more within minutes as other tenants come and go, so wall times
of the same code, taken a few minutes apart, disagree by as much.  A run
therefore also times a fixed reference task after every instance run: a
small gossip simulation written here, which never changes with the
program and does the same kind of work (objects, tuples and set unions of
node ids).  The end-to-end times are reported at the speed of the box the
bounds were set on: each is scaled by ``REFERENCE_S`` over the run's
median time of the task.  A slower program still reads slower; a slower
box does not.

The task runs in a child process of its own, one request at a time, while
the benchmark process waits: the program's heap and sockets cannot change
it, and nothing runs alongside a timed call.  Run as a script, this file
is that child: it answers each line on stdin with the seconds one task
took.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import List, Optional, Tuple

#: Median seconds of one :func:`task` on the box the bounds were set on
#: (2 vCPUs of a shared Xeon host, Python 3.11).
REFERENCE_S = 0.07

#: Peers in the reference task (about 18 rounds, 70 ms on that box) and
#: the seed of its random draws.
TASK_PEERS = 320
TASK_SEED = 5


class _Message:
    __slots__ = ("sender", "pointers")

    def __init__(self, sender: int, pointers: Tuple[int, ...]) -> None:
        self.sender = sender
        self.pointers = pointers


class _Peer:
    def __init__(self, ident: int, contacts: List[int]) -> None:
        self.ident = ident
        self.known = {ident, *contacts}
        self.inbox: List[_Message] = []

    def send(self, rng: random.Random) -> Tuple[int, _Message]:
        peers = sorted(self.known)
        return peers[rng.randrange(len(peers))], _Message(self.ident, tuple(self.known))

    def absorb(self) -> None:
        for message in self.inbox:
            self.known.update(message.pointers)
            self.known.add(message.sender)
        self.inbox.clear()


def task() -> int:
    """Name-dropper gossip among ``TASK_PEERS`` peers until all know all; returns rounds."""
    n = TASK_PEERS
    rng = random.Random(TASK_SEED)
    peers = [_Peer(i, [rng.randrange(n) for _ in range(3)]) for i in range(n)]
    rounds = 0
    while any(len(peer.known) < n for peer in peers):
        for peer in peers:
            target, message = peer.send(rng)
            peers[target].inbox.append(message)
        for peer in peers:
            peer.absorb()
        rounds += 1
    return rounds


class Calibrator:
    """Times :func:`task` in a child process on request; close it when done."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._child: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self) -> None:
        """Time one task; the caller waits for it."""
        child = self._child
        if child is None or child.stdin is None or child.stdout is None:
            raise RuntimeError("calibrator is closed")
        child.stdin.write("\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {child.wait()}")
        self.samples.append(float(line))

    def speed(self) -> float:
        """Factor that turns this run's times into reference-box times."""
        return REFERENCE_S / median(self.samples)

    def close(self) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        try:
            if child.stdin is not None:
                child.stdin.close()
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        finally:
            if child.stdout is not None:
                child.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def serve() -> None:
    task()  # warm-up: the first task pays for allocation
    for _ in sys.stdin:
        gc.collect()
        start = perf_counter()
        task()
        print(repr(perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve()

"""Simulated multi-device fabric: isolated workers, FIFO messaging, collectives.

Workers model devices with disjoint memory spaces. They interact only through
send/recv on directed (src, dst, tag) channels; every transfer is counted in
a byte-exact ledger (element count x wire element size, default 4 bytes, the
stored/transmitted scalar width being modelled) while the payload itself
moves at full float64 precision.

Two scheduling modes must produce bit-identical results and ledgers:

  * "lockstep": workers execute one at a time; a worker runs until it blocks
    on an empty channel or finishes, then the turn passes round-robin. Gives
    exact deadlock detection (no runnable worker + unfinished workers).
  * "threads": workers run as free preemptive threads with blocking recv;
    deadlock is diagnosed by bounded idle (all unfinished workers blocked
    with no delivery progress for idle_timeout seconds).

Determinism holds because worker programs are deterministic, channels are
FIFO per (src, dst, tag), and no arithmetic here depends on arrival timing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DeadlockError, ValidationError

_IDLE_SLICE = 0.02


@dataclass
class DeviceSpec:
    """Per-device capacity and the accounted bytes per scalar."""

    memory_capacity: int = 6 * 1024**3
    wire_element_size: int = 4

    def __post_init__(self):
        if self.memory_capacity <= 0 or self.wire_element_size <= 0:
            raise ValidationError("device capacity and wire element size must be positive")


class CommLedger:
    """Per ordered link (src, dst): bytes sent and message count."""

    def __init__(self):
        self._links: dict[tuple[int, int], list[int]] = {}
        self._lock = threading.Lock()

    def record(self, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            entry = self._links.setdefault((src, dst), [0, 0])
            entry[0] += nbytes
            entry[1] += 1

    def link(self, src: int, dst: int) -> tuple[int, int]:
        entry = self._links.get((src, dst), (0, 0))
        return entry[0], entry[1]

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(e[0] for e in self._links.values())

    @property
    def total_messages(self) -> int:
        with self._lock:
            return sum(e[1] for e in self._links.values())

    def snapshot(self) -> dict[tuple[int, int], tuple[int, int]]:
        with self._lock:
            return {k: (v[0], v[1]) for k, v in sorted(self._links.items())}


class MemoryMeter:
    """Accounted resident tensor bytes per worker, with running peak."""

    def __init__(self, n: int):
        self.current = [0] * n
        self.peak = [0] * n

    def alloc(self, wid: int, nbytes: int) -> None:
        self.current[wid] += nbytes
        if self.current[wid] > self.peak[wid]:
            self.peak[wid] = self.current[wid]

    def free(self, wid: int, nbytes: int) -> None:
        self.current[wid] -= nbytes
        if self.current[wid] < 0:
            raise ValidationError(f"worker {wid}: freed more bytes than allocated")


class _Abort(Exception):
    """Internal: unwind a worker thread after another worker failed."""


class Worker:
    """Handle passed to a worker program: identity, messaging, metering."""

    def __init__(self, fabric: "Fabric", wid: int):
        self.fabric = fabric
        self.wid = wid
        self.n = fabric.n

    # -- local state (persists across fabric.run calls; one dict per worker) --
    @property
    def local(self) -> dict:
        return self.fabric._local[self.wid]

    # -- messaging ----------------------------------------------------------
    def send(self, dst: int, tag, value: np.ndarray) -> None:
        fab = self.fabric
        if not 0 <= dst < fab.n or dst == self.wid:
            raise ValidationError(f"worker {self.wid}: invalid destination {dst}")
        payload = np.array(value, dtype=np.float64, copy=True)
        with fab._cond:
            if fab._error is not None:
                raise _Abort()
            fab._channels.setdefault((self.wid, dst, tag), deque()).append(payload)
            fab._progress += 1
            fab._last_progress = time.monotonic()
            fab._cond.notify_all()
        fab.ledger.record(self.wid, dst, payload.size * fab.device.wire_element_size)

    def recv(self, src: int, tag) -> np.ndarray:
        fab = self.fabric
        key = (src, self.wid, tag)
        with fab._cond:
            while True:
                if fab._error is not None:
                    raise _Abort()
                queue = fab._channels.get(key)
                if queue:
                    return queue.popleft()
                if fab.scheduling == "lockstep":
                    fab._block_lockstep(self.wid, key)
                else:
                    fab._block_threads(self.wid, key)

    # -- collectives (built on send/recv) ------------------------------------
    def reduce_to_root(self, group, root: int, value: np.ndarray, tag="reduce") -> np.ndarray | None:
        """Root returns the elementwise sum, accumulated in ascending worker order."""
        members = sorted(group)
        if self.wid != root:
            self.send(root, tag, value)
            return None
        acc: np.ndarray | None = None
        for w in members:
            t = value if w == self.wid else self.recv(w, tag)
            acc = np.array(t, dtype=np.float64, copy=True) if acc is None else acc + t
        return acc

    def broadcast_from_root(self, group, root: int, value: np.ndarray | None, tag="bcast") -> np.ndarray:
        if self.wid == root:
            assert value is not None
            for w in sorted(group):
                if w != root:
                    self.send(w, tag, value)
            return value
        return self.recv(root, tag)

    # -- memory accounting ----------------------------------------------------
    def alloc(self, elements: int) -> int:
        nbytes = int(elements) * self.fabric.device.wire_element_size
        self.fabric.meter.alloc(self.wid, nbytes)
        return nbytes

    def free_bytes(self, nbytes: int) -> None:
        self.fabric.meter.free(self.wid, nbytes)

    def assert_capacity(self) -> None:
        self.fabric.meter_assert(self.wid)


class Fabric:
    def __init__(self, n: int, device: DeviceSpec | None = None,
                 scheduling: str = "lockstep", idle_timeout: float = 5.0):
        if n < 1:
            raise ValidationError(f"fabric needs at least one worker, got {n}")
        if scheduling not in ("lockstep", "threads"):
            raise ValidationError(f"unknown scheduling mode {scheduling!r}")
        self.n = n
        self.device = device or DeviceSpec()
        self.scheduling = scheduling
        self.idle_timeout = idle_timeout
        self.ledger = CommLedger()
        self.meter = MemoryMeter(n)
        self._local = [dict() for _ in range(n)]
        self._channels: dict[tuple[int, int, object], deque] = {}
        self._cond = threading.Condition()
        self._error: BaseException | None = None
        # scheduler state (reset per run)
        self._turn = 0
        self._blocked: dict[int, tuple] = {}
        self._finished: set[int] = set()
        self._progress = 0
        self._last_progress = time.monotonic()

    @property
    def num_links(self) -> int:
        return self.n * (self.n - 1)

    def meter_assert(self, wid: int) -> None:
        resident = self.meter.current[wid]
        if resident > self.device.memory_capacity:
            raise CapacityError(wid, resident, self.device.memory_capacity)

    # -- scheduling internals (called with self._cond held) -------------------
    def _runnable(self, wid: int) -> bool:
        if wid in self._finished:
            return False
        blocked_on = self._blocked.get(wid)
        if blocked_on is None:
            return True
        queue = self._channels.get(blocked_on)
        return bool(queue)

    def _advance_turn(self, from_wid: int) -> None:
        for k in range(1, self.n + 1):
            cand = (from_wid + k) % self.n
            if self._runnable(cand):
                self._turn = cand
                self._cond.notify_all()
                return
        if len(self._finished) == self.n:
            return
        if self._error is None:
            self._error = self._deadlock_error()
        self._cond.notify_all()

    def _deadlock_error(self) -> DeadlockError:
        waiting = {
            wid: {"src": key[0], "tag": key[2]}
            for wid, key in sorted(self._blocked.items())
            if wid not in self._finished
        }
        desc = "; ".join(
            f"worker {wid} waits on recv(src={info['src']}, tag={info['tag']!r})"
            for wid, info in waiting.items()
        )
        return DeadlockError(f"fabric deadlock: no worker can make progress ({desc})", waiting)

    def _block_lockstep(self, wid: int, key) -> None:
        self._blocked[wid] = key
        self._advance_turn(wid)
        while True:
            if self._error is not None:
                raise _Abort()
            if self._turn == wid and self._runnable(wid):
                del self._blocked[wid]
                return
            self._cond.wait()

    def _block_threads(self, wid: int, key) -> None:
        self._blocked[wid] = key
        try:
            while True:
                if self._error is not None:
                    raise _Abort()
                queue = self._channels.get(key)
                if queue:
                    return
                unfinished = self.n - len(self._finished)
                idle = time.monotonic() - self._last_progress
                if len(self._blocked) >= unfinished and idle > self.idle_timeout:
                    self._error = self._deadlock_error()
                    self._cond.notify_all()
                    raise _Abort()
                self._cond.wait(_IDLE_SLICE)
        finally:
            if self._error is None:
                del self._blocked[wid]

    # -- running programs ------------------------------------------------------
    def run(self, program, args: list[tuple] | None = None) -> list:
        """Execute program(ctx, *args[wid]) on every worker; returns per-worker results.

        Raises the first failing worker's exception (lowest worker index wins)
        after all threads have unwound.
        """
        if args is None:
            args = [() for _ in range(self.n)]
        if len(args) != self.n:
            raise ValidationError(f"need args for {self.n} workers, got {len(args)}")

        results: list = [None] * self.n
        failures: dict[int, BaseException] = {}
        with self._cond:
            self._error = None
            self._blocked = {}
            self._finished = set()
            self._turn = 0
            self._last_progress = time.monotonic()

        def runner(wid: int):
            ctx = Worker(self, wid)
            try:
                if self.scheduling == "lockstep":
                    with self._cond:
                        while self._turn != wid:
                            if self._error is not None:
                                raise _Abort()
                            self._cond.wait()
                results[wid] = program(ctx, *args[wid])
            except _Abort:
                pass
            except BaseException as err:  # noqa: BLE001 - surfaced via run()
                failures[wid] = err
                with self._cond:
                    if self._error is None:
                        self._error = err
                    self._cond.notify_all()
                return
            finally:
                with self._cond:
                    self._finished.add(wid)
                    self._blocked.pop(wid, None)
                    self._progress += 1
                    self._last_progress = time.monotonic()
                    if self.scheduling == "lockstep" and self._turn == wid:
                        self._advance_turn(wid)
                    self._cond.notify_all()

        threads = [threading.Thread(target=runner, args=(w,), daemon=True) for w in range(self.n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if failures or self._error is not None:
            self._channels.clear()  # undelivered messages of a failed run must not reach the next
            raise failures[min(failures)] if failures else self._error
        return results


def spawn(n: int, device: DeviceSpec | None = None, scheduling: str = "lockstep",
          idle_timeout: float = 5.0) -> Fabric:
    """Create a fabric of n isolated workers."""
    return Fabric(n, device=device, scheduling=scheduling, idle_timeout=idle_timeout)

"""Simulated multi-device fabric: isolated workers, FIFO messaging, collectives.

Workers model devices with disjoint memory spaces. They interact only through
send/recv on directed (src, dst, tag) channels; every transfer is counted in
a byte-exact ledger (element count x netdef.WIRE_ELEMENT_SIZE, the
stored/transmitted scalar width being modelled) while the payload itself
moves at full float64 precision.

Two scheduling modes must produce bit-identical results and ledgers:

  * "lockstep": workers execute one at a time; a worker runs until it blocks
    on an empty channel or finishes, then the turn passes round-robin.
  * "threads": workers run as free preemptive threads with blocking recv.

Every send, recv and finish happens under one condition variable, so in both
modes deadlock is detected exactly, the moment a worker blocks or finishes
and leaves no unfinished worker able to run. A message still undelivered when
a successful run ends is a protocol bug and fails the run. Sends are tallied
under the same condition variable and reach the ledger only when the run
succeeds, so a failed run ledgers nothing.

Determinism holds because worker programs are deterministic, channels are
FIFO per (src, dst, tag), and no arithmetic here depends on arrival timing.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DeadlockError, ParconvError, ValidationError
from .netdef import DEFAULT_MEMORY, WIRE_ELEMENT_SIZE


@dataclass
class DeviceSpec:
    """Per-device capacity and the accounted bytes per scalar. Its check is
    the one capacity rule; cost parameters and training configs build a
    DeviceSpec to apply it."""

    memory_capacity: int = DEFAULT_MEMORY
    wire_element_size = WIRE_ELEMENT_SIZE  # a class constant, not a field

    def __post_init__(self):
        if self.memory_capacity < 1:
            raise ValidationError(f"memory capacity must be >= 1 byte, got {self.memory_capacity}")


class CommLedger:
    """Per ordered link (src, dst): bytes sent and message count over the
    fabric's successful runs.

    A run's sends are tallied under the fabric's condition variable and added
    here only when the run succeeds, so a failed run ledgers nothing. Writes
    and reads both happen between runs, so the ledger needs no lock.
    """

    def __init__(self):
        self._links: dict[tuple[int, int], list[int]] = {}

    def record(self, src: int, dst: int, nbytes: int) -> None:
        entry = self._links.setdefault((src, dst), [0, 0])
        entry[0] += nbytes
        entry[1] += 1

    @property
    def total_bytes(self) -> int:
        return sum(e[0] for e in self._links.values())

    @property
    def total_messages(self) -> int:
        return sum(e[1] for e in self._links.values())

    def snapshot(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {k: (v[0], v[1]) for k, v in sorted(self._links.items())}


class MemoryMeter:
    """Accounted resident tensor bytes per worker, with running peak. Only
    `Worker.alloc` and `Worker.free_bytes` write them."""

    def __init__(self, n: int):
        self.current = [0] * n
        self.peak = [0] * n


class _Abort(Exception):
    """Internal: unwind a worker thread after another worker failed."""


class Worker:
    """Handle passed to a worker program: identity, messaging, metering."""

    def __init__(self, fabric: "Fabric", wid: int):
        self.fabric = fabric
        self.wid = wid

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
            fab._tally.append((self.wid, dst, payload.size * fab.device.wire_element_size))
            fab._cond.notify_all()

    def recv(self, src: int, tag) -> np.ndarray:
        fab = self.fabric
        if not 0 <= src < fab.n or src == self.wid:
            raise ValidationError(f"worker {self.wid}: invalid source {src}")
        key = (src, self.wid, tag)
        with fab._cond:
            fab._block(self.wid, key)
            return fab._channels[key].popleft()

    # -- collectives (built on send/recv) ------------------------------------
    def reduce_to_root(self, group, root: int, value: np.ndarray) -> np.ndarray | None:
        """Root returns the elementwise sum, accumulated in ascending worker order."""
        members = sorted(group)
        if self.wid != root:
            self.send(root, "reduce", value)
            return None
        acc: np.ndarray | None = None
        for w in members:
            t = value if w == self.wid else self.recv(w, "reduce")
            acc = np.array(t, dtype=np.float64, copy=True) if acc is None else acc + t
        return acc

    def broadcast_from_root(self, group, root: int, value: np.ndarray | None) -> np.ndarray:
        if self.wid == root:
            assert value is not None
            for w in sorted(group):
                if w != root:
                    self.send(w, "bcast", value)
            return value
        return self.recv(root, "bcast")

    # -- memory accounting ----------------------------------------------------
    def alloc(self, elements: int) -> int:
        """Account `elements` resident scalars; returns their bytes. Raises
        CapacityError, accounting nothing, when they do not fit the device."""
        fab, wid = self.fabric, self.wid
        nbytes = int(elements) * fab.device.wire_element_size
        resident = fab.meter.current[wid] + nbytes
        if resident > fab.device.memory_capacity:
            raise CapacityError(wid, resident, fab.device.memory_capacity)
        fab.meter.current[wid] = resident
        if resident > fab.meter.peak[wid]:
            fab.meter.peak[wid] = resident
        return nbytes

    def free_bytes(self, nbytes: int) -> None:
        meter, wid = self.fabric.meter, self.wid
        if nbytes > meter.current[wid]:
            raise ValidationError(f"worker {wid}: freed more bytes than allocated")
        meter.current[wid] -= nbytes


class Fabric:
    def __init__(self, n: int, device: DeviceSpec | None = None,
                 scheduling: str = "lockstep"):
        if n < 1:
            raise ValidationError(f"fabric needs at least one worker, got {n}")
        if scheduling not in ("lockstep", "threads"):
            raise ValidationError(f"unknown scheduling mode {scheduling!r}")
        self.n = n
        self.device = device or DeviceSpec()
        self.scheduling = scheduling
        self.ledger = CommLedger()
        self.meter = MemoryMeter(n)
        self._local = [dict() for _ in range(n)]
        self._channels: dict[tuple[int, int, object], deque] = {}
        self._cond = threading.Condition()
        self._error: BaseException | None = None
        # scheduler state (reset per run)
        self._turn = 0
        self._blocked: dict[int, tuple | None] = {}
        self._finished: set[int] = set()
        self._tally: list[tuple[int, int, int]] = []  # (src, dst, bytes) per send

    # -- scheduling internals (called with self._cond held) -------------------
    def _runnable(self, wid: int) -> bool:
        if wid in self._finished:
            return False
        key = self._blocked.get(wid)
        return key is None or bool(self._channels.get(key))

    def _deadlock_error(self) -> DeadlockError:
        waiting = {
            wid: {"src": key[0], "tag": key[2]}
            for wid, key in sorted(self._blocked.items())
        }
        desc = "; ".join(
            f"worker {wid} waits on recv(src={info['src']}, tag={info['tag']!r})"
            for wid, info in waiting.items()
        )
        return DeadlockError(f"fabric deadlock: no worker can make progress ({desc})", waiting)

    def _block(self, wid: int, key: tuple | None = None) -> None:
        """Wait until worker `wid` may run: channel `key` holds a message (key
        None: at once) and, under lockstep, the turn is `wid`'s."""
        self._blocked[wid] = key
        if not self._runnable(wid):
            self._yield(wid)
        while True:
            if self._error is not None:
                raise _Abort()
            if self._runnable(wid) and (self._turn == wid or self.scheduling == "threads"):
                del self._blocked[wid]
                return
            self._cond.wait()

    def _yield(self, wid: int) -> None:
        """Worker `wid` blocked or finished: pass the turn round-robin to the next
        runnable worker, or fail the run if no unfinished worker can run."""
        for k in range(1, self.n + 1):
            cand = (wid + k) % self.n
            if self._runnable(cand):
                self._turn = cand
                break
        else:
            if len(self._finished) < self.n and self._error is None:
                self._error = self._deadlock_error()
        self._cond.notify_all()

    # -- running programs ------------------------------------------------------
    def run(self, program, args: list[tuple] | None = None) -> list:
        """Execute program(ctx, *args[wid]) on every worker; returns per-worker results.

        Raises the first failing worker's exception (lowest worker index wins)
        after all threads have unwound. The run's sends reach the ledger only
        if it succeeds: a failed run ledgers nothing and leaves no message.
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
            self._tally = []

        def runner(wid: int):
            try:
                with self._cond:
                    self._block(wid)
                results[wid] = program(Worker(self, wid), *args[wid])
            except _Abort:
                pass
            except BaseException as err:  # noqa: BLE001 - surfaced via run()
                failures[wid] = err
                with self._cond:
                    if self._error is None:
                        self._error = err
            finally:
                with self._cond:
                    self._finished.add(wid)
                    self._blocked.pop(wid, None)
                    self._yield(wid)

        threads = [threading.Thread(target=runner, args=(w,), daemon=True) for w in range(self.n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # no message outlives its run, so a stale payload cannot reach the next one
        leftover = [f"({src}, {dst}, {tag!r}) x{len(q)}"
                    for (src, dst, tag), q in self._channels.items() if q]
        self._channels.clear()
        if failures or self._error is not None:
            raise failures[min(failures)] if failures else self._error
        if leftover:
            raise ParconvError("fabric run ended with undelivered messages (src, dst, tag): "
                               + ", ".join(sorted(leftover)))
        for src, dst, nbytes in self._tally:
            self.ledger.record(src, dst, nbytes)
        return results


def spawn(n: int, device: DeviceSpec | None = None, scheduling: str = "lockstep") -> Fabric:
    """Create a fabric of n isolated workers."""
    return Fabric(n, device=device, scheduling=scheduling)

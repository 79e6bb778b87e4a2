"""Far-edge runtime model: admission control and the probe data channel.

Tasks request a fraction of CPU time or GPU area as (budget, period)
pairs; admission keeps the utilization sums within the reserved
capacities (the implicit-deadline utilization bound, which is also the
schedulability test used here).  Utilizations are tracked as exact
rationals so boundary admissions (sum == capacity) are not lost to
rounding.

Channel is a bounded single-producer single-consumer FIFO ring.
Payloads are handed over by reference (no in-process copy).  Capacity is
a power of two so indices can be masked.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction


class AdmissionRejected(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason  # CpuOver | GpuOver | DuplicateId


class UnknownTask(KeyError):
    pass


class PayloadTooLarge(ValueError):
    pass


class ChannelContractError(RuntimeError):
    """Raised when a second producer or consumer attaches."""


@dataclass(frozen=True)
class RtTask:
    id: str
    budget_us: int
    period_us: int
    kind: str = "Cpu"  # Cpu | Gpu

    def __post_init__(self):
        if self.budget_us <= 0 or self.period_us <= 0:
            raise ValueError(f"task {self.id}: budget and period must be > 0")
        if self.budget_us > self.period_us:
            raise ValueError(f"task {self.id}: budget exceeds period")
        if self.kind not in ("Cpu", "Gpu"):
            raise ValueError(f"task {self.id}: unknown kind {self.kind!r}")

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.budget_us, self.period_us)


@dataclass(frozen=True)
class RuntimeState:
    cpu_capacity: float
    gpu_area_capacity: float = 100.0
    admitted: dict[str, RtTask] = field(default_factory=dict)
    # Exact utilization sums of the admitted Cpu and Gpu tasks.  admit and
    # release carry them; they are summed from `admitted` when not given.
    cpu_load: Fraction | None = None
    gpu_load_pct: Fraction | None = None

    def __post_init__(self):
        tasks = self.admitted.values()
        if self.cpu_load is None:
            object.__setattr__(self, "cpu_load", sum(
                (t.utilization for t in tasks if t.kind == "Cpu"), Fraction(0)))
        if self.gpu_load_pct is None:
            object.__setattr__(self, "gpu_load_pct", sum(
                (t.utilization * 100 for t in tasks if t.kind == "Gpu"), Fraction(0)))

    def _loads_with(self, task: RtTask, sign: int) -> tuple[Fraction, Fraction]:
        """(cpu_load, gpu_load_pct) once task is added (sign 1) or taken away (-1)."""
        if task.kind == "Cpu":
            return self.cpu_load + sign * task.utilization, self.gpu_load_pct
        return self.cpu_load, self.gpu_load_pct + sign * task.utilization * 100


def admit(state: RuntimeState, task: RtTask) -> RuntimeState:
    """Admit task if capacity still holds afterwards; raises AdmissionRejected.

    The input state is never mutated, so the caller keeps it on rejection.
    """
    if task.id in state.admitted:
        raise AdmissionRejected("DuplicateId")
    cpu_load, gpu_load = state._loads_with(task, 1)
    if task.kind == "Cpu":
        if cpu_load > Fraction(state.cpu_capacity):
            raise AdmissionRejected("CpuOver")
    else:
        if gpu_load > Fraction(state.gpu_area_capacity):
            raise AdmissionRejected("GpuOver")
    new_admitted = dict(state.admitted)
    new_admitted[task.id] = task
    return replace(state, admitted=new_admitted, cpu_load=cpu_load, gpu_load_pct=gpu_load)


def release(state: RuntimeState, task_id: str) -> RuntimeState:
    """Remove an admitted task, returning its capacity to the pool."""
    if task_id not in state.admitted:
        raise UnknownTask(task_id)
    new_admitted = dict(state.admitted)
    cpu_load, gpu_load = state._loads_with(new_admitted.pop(task_id), -1)
    return replace(state, admitted=new_admitted, cpu_load=cpu_load, gpu_load_pct=gpu_load)


# -- probe -> application data channel ----------------------------------------

@dataclass(frozen=True)
class Sent:
    pass


@dataclass(frozen=True)
class Full:
    pass


@dataclass(frozen=True)
class Dropped:
    payload: bytes


SENT = Sent()
FULL = Full()


class Channel:
    """Bounded SPSC FIFO with Reject or DropOldest overflow policy.

    Exactly one producer and one consumer may attach.  Under the Reject
    policy send/recv are lock-free (monotonic head/tail indices, masked
    into the ring); DropOldest serializes head movement with a small lock
    because both sides may advance the head.
    """

    def __init__(self, capacity: int, policy: str = "Reject", max_payload_bytes: int = 1 << 16):
        if capacity <= 0 or capacity & (capacity - 1) != 0:
            raise ValueError("capacity must be a power of two > 0")
        if policy not in ("Reject", "DropOldest"):
            raise ValueError(f"unknown policy {policy!r}")
        if max_payload_bytes <= 0:
            raise ValueError("max_payload_bytes must be > 0")
        self.capacity = capacity
        self.policy = policy
        self.max_payload_bytes = max_payload_bytes
        self._mask = capacity - 1
        self._buf: list = [None] * capacity
        self._head = 0  # next slot to read (monotonic)
        self._tail = 0  # next slot to write (monotonic)
        self._head_lock = threading.Lock()
        self._producer_attached = False
        self._consumer_attached = False
        self._attach_lock = threading.Lock()

    def attach_producer(self) -> None:
        with self._attach_lock:
            if self._producer_attached:
                raise ChannelContractError("a producer is already attached")
            self._producer_attached = True

    def attach_consumer(self) -> None:
        with self._attach_lock:
            if self._consumer_attached:
                raise ChannelContractError("a consumer is already attached")
            self._consumer_attached = True

    def __len__(self) -> int:
        return self._tail - self._head

    def send(self, payload: bytes):
        """Enqueue payload by reference; returns SENT, FULL or Dropped(old)."""
        if len(payload) > self.max_payload_bytes:
            raise PayloadTooLarge(f"{len(payload)} > {self.max_payload_bytes}")
        if self._tail - self._head >= self.capacity:
            if self.policy == "Reject":
                return FULL
            with self._head_lock:
                if self._tail - self._head >= self.capacity:
                    old = self._buf[self._head & self._mask]
                    self._head += 1
                    self._buf[self._tail & self._mask] = payload
                    self._tail += 1
                    return Dropped(old)
        self._buf[self._tail & self._mask] = payload
        self._tail += 1
        return SENT

    def recv(self):
        """Dequeue the oldest payload, or None when the channel is empty."""
        if self.policy == "DropOldest":
            with self._head_lock:
                return self._recv_unlocked()
        return self._recv_unlocked()

    def _recv_unlocked(self):
        if self._head == self._tail:
            return None
        payload = self._buf[self._head & self._mask]
        self._buf[self._head & self._mask] = None
        self._head += 1
        return payload


def bench_channel(capacity: int, payload_bytes: int, messages: int,
                  policy: str = "Reject") -> dict:
    """One-producer/one-consumer throughput and latency micro-benchmark.

    Each message carries its sequence number; the producer spins on FULL
    so every message is eventually delivered under the Reject policy.
    Returns msgs_sent, msgs_recv, drops, p50/p99 latency (us) and
    throughput (msgs/s).
    """
    if payload_bytes < 8:
        raise ValueError("payload_bytes must be >= 8 to carry a sequence number")
    chan = Channel(capacity, policy=policy, max_payload_bytes=max(payload_bytes, 8))
    chan.attach_producer()
    chan.attach_consumer()

    send_ts = [0] * messages
    recv_lat_ns: list[int] = []
    drops = 0
    received = 0
    filler = b"\x00" * (payload_bytes - 8)

    def producer():
        nonlocal drops
        for seq in range(messages):
            payload = seq.to_bytes(8, "little") + filler
            send_ts[seq] = time.perf_counter_ns()
            while True:
                res = chan.send(payload)
                if res is SENT:
                    break
                if isinstance(res, Dropped):
                    drops += 1
                    break
                # FULL: spin until the consumer catches up

    def consumer():
        nonlocal received
        last = -1
        while received < messages - drops:
            payload = chan.recv()
            if payload is None:
                if done.is_set() and len(chan) == 0 and received >= messages - drops:
                    break
                if done.is_set() and len(chan) == 0:
                    break
                continue
            now = time.perf_counter_ns()
            seq = int.from_bytes(payload[:8], "little")
            assert seq > last, "FIFO order violated"
            last = seq
            recv_lat_ns.append(now - send_ts[seq])
            received += 1

    done = threading.Event()
    t0 = time.perf_counter_ns()
    cons = threading.Thread(target=consumer)
    cons.start()
    producer()
    done.set()
    cons.join()
    elapsed_s = max((time.perf_counter_ns() - t0) / 1e9, 1e-9)

    lats = sorted(recv_lat_ns)

    def pct(p: float) -> float:
        if not lats:
            return 0.0
        idx = min(len(lats) - 1, int(round(p * (len(lats) - 1))))
        return lats[idx] / 1000.0

    return {
        "msgs_sent": messages,
        "msgs_recv": received,
        "drops": drops,
        "p50_latency_us": pct(0.50),
        "p99_latency_us": pct(0.99),
        "throughput_msgs_s": received / elapsed_s,
    }

import random
import threading
from fractions import Fraction

import pytest

from edgeorch.runtime import (FULL, SENT, AdmissionRejected, Channel, ChannelContractError,
                              Dropped, PayloadTooLarge, RtTask, RuntimeState, UnknownTask,
                              admit, bench_channel, release)


# -- admission control ----------------------------------------------------------

def test_admit_half_utilization():
    s = RuntimeState(cpu_capacity=1.0)
    s = admit(s, RtTask("t", budget_us=5000, period_us=10000))
    assert s.cpu_load == Fraction(1, 2)


def test_admit_rejects_cpu_overflow():
    s = RuntimeState(cpu_capacity=1.0)
    s = admit(s, RtTask("a", 8000, 10000))  # u = 0.8
    with pytest.raises(AdmissionRejected) as exc:
        admit(s, RtTask("b", 3000, 10000))  # would reach 1.1
    assert exc.value.reason == "CpuOver"
    assert s.cpu_load == Fraction(4, 5)  # unchanged


def test_admit_exact_boundary_accepted():
    s = RuntimeState(cpu_capacity=1.0)
    for tid, (b, p) in {"a": (1, 4), "b": (1, 4), "c": (1, 2)}.items():
        s = admit(s, RtTask(tid, b, p))
    assert s.cpu_load == Fraction(1)


def test_admit_duplicate_id():
    s = admit(RuntimeState(cpu_capacity=1.0), RtTask("t", 1, 10))
    with pytest.raises(AdmissionRejected) as exc:
        admit(s, RtTask("t", 1, 10))
    assert exc.value.reason == "DuplicateId"


def test_gpu_admission():
    s = RuntimeState(cpu_capacity=1.0, gpu_area_capacity=50.0)
    s = admit(s, RtTask("g", 4, 10, kind="Gpu"))  # 40% of area
    with pytest.raises(AdmissionRejected) as exc:
        admit(s, RtTask("g2", 2, 10, kind="Gpu"))  # +20% > 50%
    assert exc.value.reason == "GpuOver"


def test_release_returns_capacity():
    s0 = RuntimeState(cpu_capacity=1.0)
    s1 = admit(s0, RtTask("a", 5, 10))
    assert release(s1, "a") == s0
    s2 = admit(s1, RtTask("b", 25, 100))
    s3 = release(s2, "a")
    # task with a's utilization fits again: conservation
    s4 = admit(s3, RtTask("c", 5, 10))
    assert s4.cpu_load == s2.cpu_load


def test_release_unknown_task():
    with pytest.raises(UnknownTask):
        release(RuntimeState(cpu_capacity=1.0), "ghost")


def test_task_validation():
    with pytest.raises(ValueError):
        RtTask("t", 0, 10)
    with pytest.raises(ValueError):
        RtTask("t", 11, 10)


def test_admission_invariant_random_sequences():
    rng = random.Random(99)
    for _ in range(300):
        cap = rng.choice([0.5, 1.0, 2.0])
        s = RuntimeState(cpu_capacity=cap)
        for step in range(rng.randint(1, 20)):
            if s.admitted and rng.random() < 0.3:
                s = release(s, rng.choice(sorted(s.admitted)))
            else:
                t = RtTask(f"t{step}", rng.randint(1, 1000), rng.randint(1000, 2000))
                try:
                    s = admit(s, t)
                except AdmissionRejected:
                    pass
            assert s.cpu_load <= Fraction(cap)


def test_carried_loads_equal_a_fresh_sum():
    """admit and release carry the load sums instead of re-summing every
    admitted task; after a long mixed sequence, with CPU and GPU asks both
    refused at times, they still equal the sums recomputed from the
    admitted set, exactly."""
    rng = random.Random(7)
    s = RuntimeState(cpu_capacity=2.0, gpu_area_capacity=100.0)
    for step in range(2000):
        if s.admitted and rng.random() < 0.45:
            s = release(s, rng.choice(sorted(s.admitted)))
        else:
            kind = "Gpu" if rng.random() < 0.25 else "Cpu"
            period = rng.choice((1000, 2000, 2500, 5000, 7000))
            try:
                s = admit(s, RtTask(f"t{step}", rng.randint(1, period // 20), period, kind))
            except AdmissionRejected:
                pass
    fresh = RuntimeState(cpu_capacity=2.0, gpu_area_capacity=100.0, admitted=s.admitted)
    assert any(t.kind == "Cpu" for t in s.admitted.values())
    assert any(t.kind == "Gpu" for t in s.admitted.values())
    assert s.cpu_load == fresh.cpu_load
    assert s.gpu_load_pct == fresh.gpu_load_pct


# -- channel --------------------------------------------------------------------

def test_channel_capacity_must_be_power_of_two():
    with pytest.raises(ValueError):
        Channel(3)
    with pytest.raises(ValueError):
        Channel(0)
    Channel(1)
    Channel(8)


def test_send_recv_roundtrip():
    c = Channel(4)
    assert c.recv() is None
    assert c.send(b"x") is SENT
    assert len(c) == 1
    assert c.recv() == b"x"
    assert c.recv() is None


def test_reject_policy_returns_full():
    c = Channel(2, policy="Reject")
    assert c.send(b"1") is SENT
    assert c.send(b"2") is SENT
    assert c.send(b"3") is FULL
    assert c.recv() == b"1"


def test_drop_oldest_policy():
    c = Channel(2, policy="DropOldest")
    c.send(b"1")
    c.send(b"2")
    res = c.send(b"3")
    assert isinstance(res, Dropped) and res.payload == b"1"
    assert c.recv() == b"2"
    assert c.recv() == b"3"
    assert c.recv() is None


def test_payload_too_large():
    c = Channel(4, max_payload_bytes=4)
    with pytest.raises(PayloadTooLarge):
        c.send(b"12345")


def test_zero_copy_same_object():
    c = Channel(4)
    payload = b"some payload"
    c.send(payload)
    assert c.recv() is payload


def test_attach_contract():
    c = Channel(4)
    c.attach_producer()
    c.attach_consumer()
    with pytest.raises(ChannelContractError):
        c.attach_producer()
    with pytest.raises(ChannelContractError):
        c.attach_consumer()


def test_fifo_order_single_thread():
    c = Channel(16)
    sent, received = [], []
    rng = random.Random(1)
    seq = 0
    for _ in range(100_000):
        if rng.random() < 0.55:
            payload = seq.to_bytes(4, "little")
            if c.send(payload) is SENT:
                sent.append(seq)
            seq += 1
        else:
            p = c.recv()
            if p is not None:
                received.append(int.from_bytes(p, "little"))
    while (p := c.recv()) is not None:
        received.append(int.from_bytes(p, "little"))
    assert received == sent  # Reject policy: nothing lost without a Full


def test_spsc_threaded_fifo():
    c = Channel(64, policy="Reject")
    c.attach_producer()
    c.attach_consumer()
    n = 100_000
    lost = []
    received = []
    done = threading.Event()

    def producer():
        for i in range(n):
            payload = i.to_bytes(4, "little")
            if c.send(payload) is FULL:
                lost.append(i)
        done.set()

    def consumer():
        while True:
            p = c.recv()
            if p is None:
                if done.is_set() and len(c) == 0:
                    break
                continue
            received.append(int.from_bytes(p, "little"))

    ct = threading.Thread(target=consumer)
    ct.start()
    producer()
    ct.join()

    assert received == sorted(received)  # FIFO order preserved
    assert sorted(received + lost) == list(range(n))  # lost == returned Full


def test_bench_channel_smoke():
    stats = bench_channel(capacity=256, payload_bytes=64, messages=20_000)
    assert stats["msgs_recv"] == 20_000
    assert stats["drops"] == 0
    assert stats["throughput_msgs_s"] > 0
    assert stats["p99_latency_us"] >= stats["p50_latency_us"] >= 0

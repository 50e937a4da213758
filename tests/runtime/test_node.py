"""A runtime node: ``execute`` charges the cost model's price to the last
bit, warm-up counted per node, idle CPU or queued alike; a failed node drops
its compute and its messages, and a recovered one works again."""

import pytest

from repro.net.address import Address
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime


@pytest.fixture
def runtime():
    return SimRuntime(seed=1)


def test_execute_charges_cost_and_serializes(runtime):
    node = runtime.add_node("n")
    node.cost_model = CostModel({"work": OpCost(base_s=0.5)})
    done = []
    for i in range(2):
        node.execute("work", lambda i=i: done.append((i, runtime.now)))
    runtime.run_until_idle()
    assert done == [(0, 0.5), (1, 1.0)]


def test_execute_warmup_counts_per_node(runtime):
    node = runtime.add_node("n")
    node.cost_model = CostModel(
        {"op": OpCost(base_s=0.1, warmup_extra_s=1.0, warmup_ops=1)}
    )
    done = []
    node.execute("op", lambda: done.append(runtime.now))
    node.execute("op", lambda: done.append(runtime.now))
    runtime.run_until_idle()
    assert done[0] == pytest.approx(1.1)
    assert done[1] == pytest.approx(1.2)
    assert node.op_count("op") == 2


class _ServiceLog:
    """A profiler stand-in that records each job's service time as the
    completion is charged: it hands out no cells, so every completion
    comes back to the hook."""

    def __init__(self):
        self.service = []

    def on_cpu_start(self, cpu, label, service):
        pass

    def on_cpu_end(self, cpu, label, service):
        self.service.append(service)
        return {}


def test_execute_charges_exactly_the_cost_model_price(runtime):
    """Across the warm-up boundary, on an idle CPU and from the waiting
    queue, the service time is ``CostModel.cost(op, nbytes, index)`` to the
    last bit."""
    op = OpCost(base_s=1.1e-3, per_byte_s=3.3e-7, warmup_extra_s=0.7e-3, warmup_ops=3)
    model = CostModel({"op": op}, scale=1.7)
    node = runtime.add_node("n", cost_model=model)
    runtime.prof = log = _ServiceLog()
    sizes = [0, 1, 33, 517, 1500, 7, 64]
    for nbytes in sizes:  # the first finds the CPU idle, the rest wait
        node.execute("op", lambda: None, nbytes=nbytes)
    runtime.run_until_idle()
    runtime.prof = None
    assert log.service == [model.cost("op", n, i) for i, n in enumerate(sizes)]
    assert log.service == [
        (op.base_s + op.per_byte_s * n + (op.warmup_extra_s if i < 3 else 0.0)) * 1.7
        for i, n in enumerate(sizes)
    ]


def test_failed_node_drops_compute_and_messages(runtime):
    a = runtime.add_node("a")
    b = runtime.add_node("b")
    got = []
    b.bind("svc", lambda src, data: got.append(data))
    a.fail()
    a.execute("op", got.append, "never")
    a.send("cli", Address("b", "svc"), b"never")
    runtime.run_until_idle()
    assert got == []


def test_failed_node_drops_inbound(runtime):
    a = runtime.add_node("a")
    b = runtime.add_node("b")
    got = []
    b.bind("svc", lambda src, data: got.append(data))
    b.fail()
    a.send("cli", Address("b", "svc"), b"x")
    runtime.run_until_idle()
    assert got == []


def test_recover_restores_operation(runtime):
    a = runtime.add_node("a")
    b = runtime.add_node("b")
    got = []
    b.bind("svc", lambda src, data: got.append(data))
    b.fail()
    b.recover()
    a.send("cli", Address("b", "svc"), b"x")
    runtime.run_until_idle()
    assert got == [b"x"]


def test_in_flight_work_dropped_on_failure(runtime):
    """Work queued before a crash must not complete after it."""
    node = runtime.add_node("n")
    node.cost_model = CostModel({"op": OpCost(base_s=1.0)})
    done = []
    node.execute("op", done.append, 1)
    runtime.call_later(0.5, node.fail)
    runtime.run_until_idle()
    assert done == []


def test_address_helper(runtime):
    node = runtime.add_node("n")
    assert node.address("svc") == Address("n", "svc")
    assert node.address() == Address("n", "default")


def test_duplicate_node_rejected(runtime):
    runtime.add_node("dup")
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        runtime.add_node("dup")

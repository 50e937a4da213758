"""FaultPlan: validation, ordering, and the trace form of an event."""

import pytest

from repro.chaos.plan import (
    BrokerRestart,
    FaultPlan,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    NodeRestart,
    Partition,
    SensorFlap,
)
from repro.errors import ConfigurationError
from repro.net.wlan import GilbertElliottConfig


def full_plan() -> FaultPlan:
    return FaultPlan(
        "everything",
        (
            NodeCrash(at=1.0, node="a"),
            NodeRecover(at=2.0, node="a"),
            NodeRestart(at=3.0, node="b"),
            BrokerRestart(at=4.0),
            Partition(at=5.0, group_a=("a",), group_b=("hub",)),
            Heal(at=6.0, group_a=("a",), group_b=("hub",)),
            LinkDegrade(
                at=7.0,
                duration_s=5.0,
                stations=("a", "b"),
                bitrate_factor=0.5,
                burst=GilbertElliottConfig(p_enter=0.1, p_exit=0.5),
            ),
            SensorFlap(at=8.0, module="a", device="accel", down_s=2.0),
        ),
    )


class TestValidation:
    def test_full_plan_validates(self):
        full_plan().validate()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("p", (NodeCrash(at=-1.0, node="a"),)).validate()

    def test_nameless_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("", (BrokerRestart(at=1.0),)).validate()

    @pytest.mark.parametrize(
        "event",
        [
            NodeCrash(at=0.0),
            NodeRecover(at=0.0),
            NodeRestart(at=0.0),
            Partition(at=0.0, group_a=("a",), group_b=()),
            Partition(at=0.0, group_a=("a", "b"), group_b=("b",)),
            Heal(at=0.0, group_a=("a",)),
            Heal(at=0.0, group_b=("b",)),
            Heal(at=0.0, group_a=(), group_b=("b",)),
            LinkDegrade(at=0.0, duration_s=0.0),
            LinkDegrade(at=0.0, duration_s=1.0, bitrate_factor=0.0),
            LinkDegrade(at=0.0, duration_s=1.0, bitrate_factor=1.5),
            SensorFlap(at=0.0, module="a", device="", down_s=1.0),
            SensorFlap(at=0.0, module="a", device="d", down_s=0.0),
        ],
    )
    def test_bad_events_rejected(self, event):
        with pytest.raises(ConfigurationError):
            event.validate()

    def test_bad_burst_rejected(self):
        event = LinkDegrade(
            at=0.0,
            duration_s=1.0,
            burst=GilbertElliottConfig(p_enter=2.0, p_exit=0.5),
        )
        with pytest.raises(ConfigurationError):
            event.validate()


class TestOrdering:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            "p",
            (BrokerRestart(at=9.0), NodeCrash(at=1.0, node="a")),
        )
        assert [e.at for e in plan] == [1.0, 9.0]

    def test_same_time_keeps_authored_order(self):
        partition = Partition(at=5.0, group_a=("a",), group_b=("b",))
        heal = Heal(at=5.0, group_a=("a",), group_b=("b",))
        plan = FaultPlan("p", (partition, heal))
        assert plan.events == (partition, heal)

    def test_len_and_iter(self):
        plan = full_plan()
        assert len(plan) == 8
        assert [e.kind for e in plan][:2] == ["node_crash", "node_recover"]


class TestSerialization:
    def test_describe_drops_nones_and_sorts_sets(self):
        fields = Heal(at=1.0).describe()
        assert fields == {}
        fields = LinkDegrade(at=1.0, duration_s=2.0, stations=("b", "a")).describe()
        assert fields["stations"] == ["b", "a"] or fields["stations"] == ("b", "a")

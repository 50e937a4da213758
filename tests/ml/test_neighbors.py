import random

import pytest

from repro.errors import ModelError
from repro.ml.features import Datum
from repro.ml.neighbors import NearestNeighbors


def d(**values):
    return Datum.from_mapping(values)


class TestNearestNeighbors:
    def test_neighbors_sorted_by_distance(self):
        nn = NearestNeighbors(window=16)
        nn.set_row("far", d(x=10.0))
        nn.set_row("near", d(x=1.0))
        nn.set_row("mid", d(x=5.0))
        hits = nn.neighbors(d(x=0.0), k=3)
        assert [h.row_id for h in hits] == ["near", "mid", "far"]
        assert hits[0].distance == pytest.approx(1.0)

    def test_k_limits_results(self):
        nn = NearestNeighbors(window=16)
        for i in range(10):
            nn.set_row(f"r{i}", d(x=float(i)))
        assert len(nn.neighbors(d(x=0.0), k=3)) == 3

    def test_update_replaces_row(self):
        nn = NearestNeighbors(window=16)
        nn.set_row("r", d(x=100.0))
        nn.set_row("r", d(x=1.0))
        assert len(nn) == 1
        assert nn.neighbors(d(x=0.0), k=1)[0].distance == pytest.approx(1.0)

    def test_window_evicts_oldest(self):
        nn = NearestNeighbors(window=2)
        nn.set_row("a", d(x=1.0))
        nn.set_row("b", d(x=2.0))
        nn.set_row("c", d(x=3.0))
        ids = {h.row_id for h in nn.neighbors(d(x=0.0), k=5)}
        assert ids == {"b", "c"}

    def test_missing_keys_read_as_zero(self):
        nn = NearestNeighbors()
        nn.set_row("a", d(x=3.0, y=4.0))
        hit = nn.neighbors(d(x=0.0), k=1)[0]
        assert hit.distance == pytest.approx(5.0)

    def test_cosine_metric(self):
        nn = NearestNeighbors(metric="cosine")
        nn.set_row("same-direction", d(x=10.0, y=0.0))
        nn.set_row("orthogonal", d(x=0.0, y=1.0))
        hits = nn.neighbors(d(x=1.0, y=0.0), k=2)
        assert hits[0].row_id == "same-direction"
        assert hits[0].distance == pytest.approx(0.0, abs=1e-9)
        assert hits[1].distance == pytest.approx(1.0)

    def test_unknown_metric(self):
        with pytest.raises(ModelError):
            NearestNeighbors(metric="manhattan")

    def test_classify_majority(self):
        nn = NearestNeighbors()
        rng = random.Random(0)
        for i in range(50):
            x = rng.gauss(0, 1)
            nn.set_row(f"r{i}", d(x=x), label="p" if x > 0 else "n")
        label, votes = nn.classify(d(x=1.5), k=7)
        assert label == "p"
        assert sum(votes.values()) == 7

    def test_classify_without_labels_raises(self):
        nn = NearestNeighbors()
        nn.set_row("r", d(x=1.0))
        with pytest.raises(ModelError):
            nn.classify(d(x=1.0))

    def test_state_round_trip(self):
        nn = NearestNeighbors(window=8)
        for i in range(5):
            nn.set_row(f"r{i}", d(x=float(i)), label="even" if i % 2 == 0 else "odd")
        clone = NearestNeighbors(window=8)
        clone.load_state(nn.to_state())
        assert len(clone) == 5
        assert clone.classify(d(x=2.1), k=1)[0] == "even"

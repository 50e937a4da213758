"""Online machine learning substrate (Jubatus substitute).

The paper's flow-analysis mechanism is "developed based on Jubatus that has
a powerful distributed on-line machine learning capability" (§V-A). This
package reimplements, from scratch, the Jubatus capabilities the middleware
uses:

* :mod:`repro.ml.features` — Jubatus-style ``Datum`` (string and numeric
  key/value pairs) and feature extraction into sparse vectors;
* :mod:`repro.ml.linear` — online multiclass linear learners: Perceptron,
  PA, PA-I, PA-II, Confidence-Weighted and AROW;
* :mod:`repro.ml.regression` — passive-aggressive epsilon-insensitive
  online regression;
* :mod:`repro.ml.anomaly` — streaming anomaly detection (robust z-score and
  a ring-buffer k-NN LOF-lite, like Jubatus ``anomaly``);
* :mod:`repro.ml.clustering` — sequential online k-means;
* :mod:`repro.ml.stat` — windowed stream statistics (like Jubatus ``stat``);
* :mod:`repro.ml.mix` — the MIX model-averaging protocol that lets several
  neuron modules learn jointly, Jubatus's signature distributed feature.

All models are strictly incremental: one datum in, O(features) work, no
dataset ever stored — matching the middleware requirement to process
streams "without accumulating / storing" (§IV-B-3).
"""

from repro.ml.anomaly import LofLite, RobustZScore
from repro.ml.classifier import OnlineClassifier
from repro.ml.evaluation import PrequentialAccuracy
from repro.ml.clustering import OnlineKMeans
from repro.ml.features import Datum, FeatureExtractor, FeatureVector
from repro.ml.linear import (
    AROW,
    ConfidenceWeighted,
    PassiveAggressive,
    Perceptron,
    make_learner,
)
from repro.ml.mix import MixCoordinator, MixParticipantState, average_diffs
from repro.ml.neighbors import NearestNeighbors, Neighbor
from repro.ml.regression import PARegression
from repro.ml.stat import WindowStat
from repro.ml.storage import SparseVector
from repro.ml.tree import HoeffdingTreeClassifier

__all__ = [
    "AROW",
    "ConfidenceWeighted",
    "Datum",
    "FeatureExtractor",
    "FeatureVector",
    "HoeffdingTreeClassifier",
    "LofLite",
    "MixCoordinator",
    "NearestNeighbors",
    "Neighbor",
    "MixParticipantState",
    "OnlineClassifier",
    "OnlineKMeans",
    "PARegression",
    "PassiveAggressive",
    "Perceptron",
    "PrequentialAccuracy",
    "RobustZScore",
    "SparseVector",
    "WindowStat",
    "average_diffs",
    "make_learner",
]

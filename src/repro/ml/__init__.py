"""Online machine learning substrate (Jubatus substitute).

The paper's flow-analysis mechanism is "developed based on Jubatus that has
a powerful distributed on-line machine learning capability" (§V-A). This
package reimplements, from scratch, the Jubatus capabilities the middleware
uses:

* :mod:`repro.ml.features` — Jubatus-style ``Datum`` (string and numeric
  key/value pairs) and feature extraction into sparse vectors;
* :mod:`repro.ml.linear` — the online multiclass PA-I linear learner,
  behind :mod:`repro.ml.classifier` (recipe ``model: classifier``);
* :mod:`repro.ml.anomaly` — streaming anomaly detection: the robust
  z-score (recipe ``model: anomaly``), and a bounded-window LOF-lite;
* :mod:`repro.ml.stat` — windowed stream statistics (like Jubatus ``stat``);
* :mod:`repro.ml.mix` — the MIX model-averaging protocol that lets several
  neuron modules learn jointly, Jubatus's signature distributed feature.

:mod:`repro.ml.regression`, :mod:`repro.ml.clustering`,
:mod:`repro.ml.neighbors`, :mod:`repro.ml.tree` and ``LofLite`` are
reached by no recipe; the perf ledger's span table still names them.

All models are strictly incremental: one datum in, O(features) work, no
dataset ever stored — matching the middleware requirement to process
streams "without accumulating / storing" (§IV-B-3).
"""

from repro.ml.anomaly import LofLite, RobustZScore
from repro.ml.classifier import OnlineClassifier
from repro.ml.evaluation import PrequentialAccuracy
from repro.ml.clustering import OnlineKMeans
from repro.ml.features import Datum, FeatureExtractor, FeatureVector
from repro.ml.linear import PassiveAggressive
from repro.ml.mix import MixCoordinator, MixParticipantState, average_diffs
from repro.ml.neighbors import NearestNeighbors, Neighbor
from repro.ml.regression import PARegression
from repro.ml.stat import WindowStat
from repro.ml.storage import SparseVector
from repro.ml.tree import HoeffdingTreeClassifier

__all__ = [
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
    "PrequentialAccuracy",
    "RobustZScore",
    "SparseVector",
    "WindowStat",
    "average_diffs",
]

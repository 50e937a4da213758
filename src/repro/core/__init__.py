"""The IFoT middleware core — the paper's contribution.

The four mechanisms of Fig. 4, plus the surrounding machinery:

* **Task allocation** — :mod:`repro.core.recipe` (the Recipe task graph and
  its JSON DSL), :mod:`repro.core.splitter` (RecipeSplit) and
  :mod:`repro.core.assignment` (TaskAssignment strategies).
* **Flow distribution** — :mod:`repro.core.distribution` (Publish /
  Broker / Subscribe classes over the MQTT substrate).
* **Flow analysis** — :mod:`repro.core.analysis` (Learning / Judging /
  Managing classes over the online-ML substrate).
* **Sensor/actuator integration** — :mod:`repro.core.integration`
  (Sensor / Actuator classes over the device models).

:mod:`repro.core.node` hosts operator instances on neuron modules,
:mod:`repro.core.operators` is the operator registry recipes refer to,
:mod:`repro.core.management` is the management node (Fig. 7/8), and
:mod:`repro.core.middleware` is the top-level facade
(:class:`~repro.core.middleware.IFoTCluster`) that examples and benchmarks
use. :mod:`repro.core.discovery` implements the paper's future-work stream
search / dynamic membership, and :mod:`repro.core.healing` the
self-healing control plane (failure detection, degradation policy)
management composes on top of it. Nothing here reads fault-injection
traces: the recovery report over them is :mod:`repro.chaos`'s.
"""

from repro.core.analysis import JudgingClass, LearningClass, ManagingClass
from repro.core.assignment import (
    Assignment,
    CapabilityAwareStrategy,
    LoadAwareStrategy,
    ModuleInfo,
    RoundRobinStrategy,
    TaskAssignment,
)
from repro.core.discovery import StreamDirectory, StreamRecord
from repro.core.dsl import format_recipe, parse_recipe
from repro.core.distribution import PublishClass, SubscribeClass
from repro.core.flow import FlowRecord
from repro.core.healing import FailureDetector, plan_degradation
from repro.core.integration import ActuatorClass, SensorClass
from repro.core.management import ManagementNode
from repro.core.middleware import Application, IFoTCluster
from repro.core.node import NeuronModule
from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import RecipeSplit, SubTask

__all__ = [
    "ActuatorClass",
    "Application",
    "Assignment",
    "CapabilityAwareStrategy",
    "FailureDetector",
    "FlowRecord",
    "format_recipe",
    "IFoTCluster",
    "JudgingClass",
    "LearningClass",
    "LoadAwareStrategy",
    "ManagementNode",
    "ManagingClass",
    "ModuleInfo",
    "NeuronModule",
    "parse_recipe",
    "plan_degradation",
    "PublishClass",
    "Recipe",
    "RecipeSplit",
    "RoundRobinStrategy",
    "SensorClass",
    "StreamDirectory",
    "StreamRecord",
    "SubTask",
    "SubscribeClass",
    "TaskAssignment",
    "TaskSpec",
]

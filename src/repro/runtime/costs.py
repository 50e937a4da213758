"""Operation cost models for simulated CPUs.

In simulation every piece of middleware work charges virtual CPU time
through a :class:`CostModel` before its effect becomes visible. Costs have
three parts:

* ``base_s`` — fixed per-operation service time;
* ``per_byte_s`` — size-dependent term (serialization, feature hashing);
* ``warmup_extra_s`` over the first ``warmup_ops`` invocations — models
  cold-start effects (model allocation, lazy imports). This is what makes
  the *max* latency at low rates several times the average in the paper's
  tables: the very first samples hit an unwarmed analysis process.

The Pi-class constants fitted against the paper live in
``repro.bench.calibration``; this module only defines the mechanism.
Unknown operations cost zero, so components can charge named ops freely and
only the calibrated ones consume time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validate import require_non_negative

__all__ = ["OpCost", "CostModel", "NULL_COST_MODEL"]


@dataclass(frozen=True)
class OpCost:
    """Cost description for one named operation."""

    base_s: float = 0.0
    per_byte_s: float = 0.0
    warmup_extra_s: float = 0.0
    warmup_ops: int = 0

    def __post_init__(self) -> None:
        require_non_negative(self.base_s, "base_s")
        require_non_negative(self.per_byte_s, "per_byte_s")
        require_non_negative(self.warmup_extra_s, "warmup_extra_s")
        require_non_negative(self.warmup_ops, "warmup_ops")

    def cost(self, nbytes: int, invocation_index: int) -> float:
        """Service time for invocation number ``invocation_index`` (0-based)."""
        total = self.base_s + self.per_byte_s * nbytes
        if invocation_index < self.warmup_ops:
            total += self.warmup_extra_s
        return total


@dataclass
class CostModel:
    """Mapping from operation names to :class:`OpCost`, with a global scale.

    ``scale`` multiplies every cost — handy for modelling heterogeneous
    hardware ("this node is a Pi Zero, 3x slower") without redefining every
    operation.
    """

    ops: dict[str, OpCost] = field(default_factory=dict)
    scale: float = 1.0

    def define(self, op: str, cost: OpCost) -> None:
        self.ops[op] = cost

    def cost(self, op: str, nbytes: int = 0, invocation_index: int = 0) -> float:
        entry = self.ops.get(op)
        if entry is None:
            return 0.0
        return entry.cost(nbytes, invocation_index) * self.scale

    def steady_cost(self, op: str, nbytes: int) -> float | None:
        """Per-invocation cost past the warm-up window; ``None`` when
        ``op`` is undefined (callers decide what an unknown op means)."""
        entry = self.ops.get(op)
        if entry is None:
            return None
        return entry.cost(nbytes, invocation_index=entry.warmup_ops) * self.scale

    def mean_cost(self, op: str, nbytes: int, count: int) -> float | None:
        """Mean cost over the first ``count`` invocations: the steady cost
        plus the warm-up surcharge amortized over them; ``None`` when
        ``op`` is undefined."""
        entry = self.ops.get(op)
        if entry is None:
            return None
        steady = entry.cost(nbytes, invocation_index=entry.warmup_ops)
        warmup = entry.warmup_extra_s * min(entry.warmup_ops, count) / count
        return (steady + warmup) * self.scale

    def scaled(self, factor: float) -> "CostModel":
        """A view of this model with costs multiplied by ``factor``."""
        return CostModel(ops=dict(self.ops), scale=self.scale * factor)


#: Cost model that charges nothing — used by the real (asyncio) runtime,
#: where actual computation takes actual time.
NULL_COST_MODEL = CostModel()

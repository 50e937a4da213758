"""An operator's static model is declared once, on its class.

Placement, the lint engines, the SLO policy and the sanitizer used to
keep name-keyed tables mirroring the operator classes by hand. The tables
below are frozen copies of what those held when they were deleted; the
first test pins every class declaration to them, the second shows an
operator outside the old tables is now priced by its own ``cost_op``, and
the third keeps name comparisons from growing back.
"""

import ast
from pathlib import Path

import pytest

from repro.bench.calibration import pi_cost_model
from repro.core import operators
from repro.core.assignment import estimate_cost
from repro.core.operators import (
    StreamOperator,
    operator_class,
    registered_operators,
)
from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import RecipeSplit
from repro.lint.latency import LatencyContext, analyze_latency
from repro.lint.rates import placement_demand, propagate_rates, subtask_demand

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CLASS_MODULES = {"core/operators.py", "core/analysis.py", "core/integration.py"}

# --- what the deleted tables held -----------------------------------------

COST_OP_BY_OPERATOR = {
    "sensor": "sensor.sample",
    "actuator": "actuator.apply",
    "train": "ml.train",
    "predict": "ml.predict",
    "mix": "ml.mix",
}
OPERATOR_COSTS = {
    "sensor": 1.0, "actuator": 0.5, "window": 1.5, "merge": 1.5, "map": 1.0,
    "filter": 0.5, "stat": 1.0, "train": 8.0, "predict": 4.0, "mix": 2.0,
}
SOURCE_OPERATORS = {"sensor", "mix"}
STATEFUL_OPERATORS = {"merge", "stat", "ewma", "delta", "throttle", "dedup", "train"}
SAN_TRACKED_OPERATORS = STATEFUL_OPERATORS | {"window"}
NON_IDEMPOTENT = {"train", "stat", "ewma", "window"}
FORWARDING_OPERATORS = {
    "sensor", "map", "merge", "delta", "ewma", "train", "actuator", "dedup",
}


def old_rates(task: TaskSpec, in_rates: list[float]) -> tuple[float, float]:
    """``(ingest, emit)`` as the deleted ``propagate_rates`` branches and
    ``_emit_rate`` computed them."""
    operator, params, ingest = task.operator, task.params, sum(in_rates)
    if operator == "window" and str(params.get("mode", "align")) == "align":
        emit = min((rate for rate in in_rates if rate > 0), default=0.0)
    elif operator == "sensor":
        emit = float(params.get("rate_hz", 1.0))
    elif operator == "window" and str(params.get("mode")) == "count":
        emit = ingest / max(1, int(params.get("count", 1)))
    elif operator in ("window", "throttle"):
        interval = float(params.get("interval_s", 0.0))
        emit = min(ingest, 1.0 / interval) if interval > 0 else ingest
    elif operator == "train":
        emit = ingest if task.outputs else 0.0
    else:
        emit = ingest
    if operator == "sensor":
        ingest = float(params.get("rate_hz", 1.0))
    return ingest, emit


def old_hold_time(task: TaskSpec, ingest_hz: float, emit_hz: float) -> float:
    params = task.params
    if task.operator == "window":
        mode = str(params.get("mode", "align"))
        if mode == "align":
            return 1.0 / emit_hz if emit_hz > 0 else 0.0
        if mode == "count":
            count = max(1, int(params.get("count", 1)))
            return count / ingest_hz if ingest_hz > 0 else 0.0
        return float(params.get("interval_s", 0.0))
    if task.operator == "throttle":
        return float(params.get("interval_s", 0.0))
    return 0.0


PARAM_CASES = [
    {},
    {"mode": "count", "count": 4},
    {"mode": "time", "interval_s": 0.5},
    {"mode": "time"},
    {"interval_s": 0.25},
    {"rate_hz": 7.0},
]
RATE_CASES = [[], [10.0], [10.0, 4.0, 0.0]]


def shipped_operators() -> list[str]:
    return [
        name
        for name in registered_operators()
        if operator_class(name).__module__.startswith("repro.core.")
    ]


def test_shipped_vocabulary():
    assert len(shipped_operators()) == 15
    assert set(OPERATOR_COSTS) | NON_IDEMPOTENT | FORWARDING_OPERATORS <= set(
        shipped_operators()
    )


@pytest.mark.parametrize("name", shipped_operators())
def test_class_declares_what_the_tables_held(name):
    cls = operator_class(name)
    assert cls.cost_op == COST_OP_BY_OPERATOR.get(name, "flow.process")
    assert cls.load_points == OPERATOR_COSTS.get(name, 2.0)
    assert cls.source == (name in SOURCE_OPERATORS)
    assert cls.samples_device == (name == "sensor")
    assert cls.stateful == (name in STATEFUL_OPERATORS)
    assert (cls.stateful or cls.buffers_records) == (name in SAN_TRACKED_OPERATORS)
    assert cls.forwards_every_record == (name in FORWARDING_OPERATORS)
    for params in PARAM_CASES:
        exempt = name == "window" and params.get("mode", "align") == "align"
        assert cls.redelivery_safe(params) == (name not in NON_IDEMPOTENT or exempt)
        for in_rates in RATE_CASES:
            for outputs in ([], ["out"]):
                task = TaskSpec(
                    "t",
                    name,
                    inputs=[f"in{i}" for i in range(len(in_rates))],
                    outputs=outputs,
                    params=params,
                )
                ingest, emit = old_rates(task, in_rates)
                assert cls.emit_rate(task, in_rates) == emit, (params, in_rates)
                assert cls.hold_time(task, ingest, emit) == old_hold_time(
                    task, ingest, emit
                ), (params, in_rates)


def test_unregistered_name_gets_the_defaults():
    assert operator_class("exotic") is StreamOperator
    assert StreamOperator.cost_op == "flow.process"
    assert StreamOperator.load_points == 2.0


# --- an operator outside the old tables is priced by its own cost_op -------


class HeavyOperator(StreamOperator):
    cost_op = "ml.train"
    load_points = 6.0

    def on_record(self, stream, record):
        pass


def pipeline(operator: str) -> Recipe:
    return Recipe(
        "priced",
        [
            TaskSpec("s", "sensor", outputs=["raw"], params={"device": "d", "rate_hz": 10.0}),
            TaskSpec("heavy", operator, inputs=["raw"]),
        ],
    )


def test_registered_operator_is_priced_by_its_own_cost_op(monkeypatch):
    monkeypatch.setitem(operators._REGISTRY, "heavy-op", HeavyOperator)
    model = pi_cost_model()
    demand, bound, points = {}, {}, {}
    for operator in ("heavy-op", "train", "map"):
        recipe = pipeline(operator)
        subtasks = RecipeSplit().split(recipe)
        demand[operator] = placement_demand(recipe, subtasks, model)["heavy"]
        analysis = analyze_latency(recipe, LatencyContext(cost_model=model))
        bound[operator] = analysis.flows["heavy"].bound_s
        points[operator] = estimate_cost(subtasks[-1])
    recipe = pipeline("heavy-op")
    terms = subtask_demand(recipe.tasks["heavy"], propagate_rates(recipe)["heavy"], model)
    assert terms[0] == ("ml.train", pytest.approx(10.0 * model.steady_cost("ml.train", 256)))
    # Admission, placement and the latency bound see the ml.train it is
    # charged in simulation — at the parent commit all three saw flow.process.
    assert demand["heavy-op"] == demand["train"] > 2 * demand["map"]
    assert bound["heavy-op"] == bound["train"] > bound["map"]
    assert points == {"heavy-op": 6.0, "train": 8.0, "map": 1.0}


# --- no name-keyed sites outside the class modules --------------------------


def _strings(node: ast.AST) -> bool:
    """A literal set/list/tuple/dict of strings, ``frozenset``/``set`` of
    one, or a ``|`` union of such."""
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys
        )
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return bool(node.elts) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
        )
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("frozenset", "set"):
        return len(node.args) == 1 and _strings(node.args[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _strings(node.left) or _strings(node.right)
    return False


def _assigned(tree: ast.AST, wanted) -> set[str]:
    """Names bound by ``name = <value>`` where ``wanted(value)`` holds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if wanted(node.value):
                found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def literal_tables(source: str) -> set[str]:
    """Names a module binds to a literal collection of strings."""
    return _assigned(ast.parse(source), _strings)


def name_keyed_sites(source: str, imported_tables=frozenset()) -> list[int]:
    """Lines that compare a ``.operator`` (or a local alias of one) with a
    string literal, or look it up in a literal collection of strings —
    written in place, bound to a name here, or one of ``imported_tables``."""
    tree = ast.parse(source)
    tables = literal_tables(source) | imported_tables
    aliases = _assigned(
        tree, lambda v: isinstance(v, ast.Attribute) and v.attr == "operator"
    )

    def names_operator(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "operator") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    def is_table(node: ast.AST) -> bool:
        return _strings(node) or (isinstance(node, ast.Name) and node.id in tables)

    def is_string(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    hit = (names_operator(left) and is_string(right)) or (
                        is_string(left) and names_operator(right)
                    )
                elif isinstance(op, (ast.In, ast.NotIn)):
                    hit = names_operator(left) and is_table(right)
                else:
                    hit = False
                if hit:
                    sites.append(node.lineno)
                left = right
        elif isinstance(node, ast.Subscript):
            if is_table(node.value) and names_operator(node.slice):
                sites.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr == "get"
                and is_table(node.func.value)
                and node.args
                and names_operator(node.args[0])
            ):
                sites.append(node.lineno)
    return sorted(sites)


def test_the_checker_sees_each_deleted_idiom():
    assert name_keyed_sites(
        'T = {"a": 1}\n'
        'S = frozenset({"a"}) | {"b"}\n'
        'def f(task):\n'
        '    operator = task.operator\n'
        '    if operator == "sensor": pass\n'
        '    if task.operator in S: pass\n'
        '    if task.operator not in ("a", "b"): pass\n'
        '    x = T.get(task.operator, 2.0)\n'
        '    y = T[task.operator]\n'
        '    z = TaskSpec("t", "sensor")\n'
        '    known = registered()\n'
        '    if task.operator in known: pass\n'
        '    if task.operator in ELSEWHERE: pass\n',
        imported_tables=frozenset({"ELSEWHERE"}),
    ) == [5, 6, 7, 8, 9, 13]


def test_no_module_outside_the_class_modules_keys_on_operator_names():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    tables = frozenset().union(*map(literal_tables, sources.values()))
    offenders = {
        relative: sites
        for relative, source in sources.items()
        if relative not in CLASS_MODULES
        and (sites := name_keyed_sites(source, tables))
    }
    assert not offenders, (
        "declare it on the operator class and read it through "
        f"operator_class(): {offenders}"
    )

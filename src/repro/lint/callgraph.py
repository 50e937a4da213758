"""Cross-file call graph for the state-soundness pass (SAN020/SAN021).

The dynamic schedule sanitizer (:mod:`repro.san`) only sees races on
*declared* ``tracked_state`` cells. To make that opt-in contract sound,
the static pass here answers two questions about every method in the
analyzed file set:

* **Is it schedule-reachable?** Roots are callables handed to the
  scheduling primitives (kernel ``schedule``/``schedule_at``/
  ``schedule_epilogue``, ``runtime.call_later``/``call_at``,
  ``Component.after``/``every``, the ``InflightTable`` callbacks,
  ``node.execute``, MQTT ``subscribe``/``subscribe_many``,
  handler-dispatch dict literals) plus the operator lifecycle methods the
  middleware machinery invokes directly (``on_record``, ``pause``, the
  migration API). Reachability propagates caller → callee.
* **Is it covered by a cell?** A method that touches a declared cell
  (``.note_write()`` / ``.note_read()`` / ``.value``) is *covered*: the
  sanitizer observes an access on the same event, so every mutation on
  that event is attributed to the cell. Coverage propagates along call
  edges in both directions (callers and callees share the event).

Both propagations are name-based and intentionally over-approximate
(``self.m(...)`` resolves across the class family, other receivers
resolve globally when the name is rare): over-approximating *coverage*
under-reports, which keeps precision over recall — a reported mutation
really is invisible to the sanitizer under every resolution we tried.

``__init__``/``__post_init__``/``configure`` are construction-time:
mutations there are exempt and reachability never propagates through
them (callbacks they *register* still become roots).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.lint.rules import ImportMap

__all__ = [
    "CallGraph",
    "ClassInfo",
    "MethodInfo",
    "Mutation",
    "build_callgraph",
]

#: Call-site names whose callable arguments run later on the schedule.
SCHEDULING_CALLS = {
    "schedule",
    "schedule_at",
    "schedule_epilogue",
    "call_later",
    "call_at",
    "after",
    "every",
    "execute",
    "subscribe",
    "subscribe_many",
    "PeriodicTimer",
    "InflightTable",
}

#: Methods the middleware machinery invokes on live components without a
#: visible registration call site (operator lifecycle + migration API).
LIFECYCLE_ROOTS = {
    "on_record",
    "pause",
    "resume",
    "export_state",
    "import_state",
    "take_handoff_buffer",
    "begin_handoff_tracking",
    "absorb_handoff",
    "on_stop",
}

#: Method calls that mutate the receiver container in place.
MUTATOR_CALLS = {
    "append",
    "appendleft",
    "add",
    "extend",
    "update",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "discard",
    "clear",
    "setdefault",
    "sort",
    "reverse",
    "push",
}

#: Constructors whose assignment declares a sanitizer state cell.
_CELL_FACTORIES = {"tracked_state", "StateCell"}

#: Cell attribute accesses the dynamic sanitizer observes.
_CELL_ACCESSORS = {"note_read", "note_write", "value"}

#: Construction/configuration-time methods (see module docstring).
INIT_METHODS = {"__init__", "__post_init__", "configure"}

#: A global (receiver-unknown) call edge only resolves when the method
#: name is defined at most this many times in the file set — edges to
#: ubiquitous names (``get``, ``stop``, ...) would smear coverage and
#: reachability into noise.
_GLOBAL_EDGE_FANOUT_CAP = 4


@dataclass(frozen=True)
class Mutation:
    """One instance-attribute mutation site (``self.<attr> ...``)."""

    attr: str
    line: int
    col: int
    desc: str


@dataclass
class MethodInfo:
    """One method or module-level function, with its scan results."""

    name: str
    qualname: str
    file: str
    line: int
    cls: "ClassInfo | None" = None
    mutations: list[Mutation] = field(default_factory=list)
    #: ``self.m(...)`` call names (family-resolved).
    self_calls: set[str] = field(default_factory=set)
    #: bare ``f(...)`` / ``obj.m(...)`` call names (globally resolved).
    other_calls: set[str] = field(default_factory=set)
    #: ``self.X`` attribute loads (method refs resolve to call edges).
    self_refs: set[str] = field(default_factory=set)
    #: ``self.X`` refs handed to a scheduling call or a dispatch dict —
    #: these become schedule roots wherever the registration happens.
    sched_refs: set[str] = field(default_factory=set)
    #: bare names handed to a scheduling call (module-level callbacks).
    sched_names: set[str] = field(default_factory=set)
    #: ``(X, Y)`` for every ``self.X.Y`` access (cell-coverage evidence).
    attr_pairs: set[tuple[str, str]] = field(default_factory=set)
    #: ``self.X = tracked_state(...)`` declarations in this method.
    cell_decls: set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        return f"{self.file}::{self.qualname}"


@dataclass
class ClassInfo:
    """One class definition with its methods and cell declarations."""

    name: str
    qualname: str
    file: str
    line: int
    bases: tuple[str, ...]
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    own_cells: set[str] = field(default_factory=set)


def _last_component(expr: ast.expr, imports: ImportMap) -> str | None:
    dotted = imports.resolve(expr)
    if dotted is None:
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None
    return dotted.rsplit(".", 1)[-1]


class _MethodScanner(ast.NodeVisitor):
    """Single walk of one method body filling its :class:`MethodInfo`."""

    def __init__(self, info: MethodInfo, imports: ImportMap) -> None:
        self.info = info
        self.imports = imports

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    @classmethod
    def _root_self_attr(cls, node: ast.AST) -> str | None:
        """The ``X`` in any ``self.X[...].y...`` access chain."""
        current = node
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            attr = cls._self_attr(current)
            if attr is not None:
                return attr
            current = current.value
        return None

    def _mutate(self, node: ast.AST, attr: str, desc: str) -> None:
        self.info.mutations.append(
            Mutation(
                attr=attr,
                line=getattr(node, "lineno", self.info.line),
                col=getattr(node, "col_offset", 0),
                desc=desc,
            )
        )

    def _record_target(self, target: ast.expr, op: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, op)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, op)
            return
        direct = self._self_attr(target)
        if direct is not None:
            self._mutate(target, direct, f"self.{direct} {op} ...")
            return
        root = self._root_self_attr(target)
        if root is not None:
            kind = "item write" if isinstance(target, ast.Subscript) else "field write"
            self._mutate(target, root, f"{kind} through self.{root}")

    def _collect_callback_refs(self, nodes: Iterable[ast.expr]) -> None:
        for arg in nodes:
            for sub in ast.walk(arg):
                attr = self._self_attr(sub)
                if attr is not None:
                    self.info.sched_refs.add(attr)
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    self.info.sched_names.add(sub.id)

    # -- visitors --------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # nested classes are out of scope

    def visit_Assign(self, node: ast.Assign) -> None:
        factory = None
        if isinstance(node.value, ast.Call):
            factory = _last_component(node.value.func, self.imports)
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None and factory in _CELL_FACTORIES:
                self.info.cell_decls.add(attr)
            else:
                self._record_target(target, "=")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            factory = None
            if isinstance(node.value, ast.Call):
                factory = _last_component(node.value.func, self.imports)
            attr = self._self_attr(node.target)
            if attr is not None and factory in _CELL_FACTORIES:
                self.info.cell_decls.add(attr)
            else:
                self._record_target(node.target, "=")
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, "+=")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            root = self._root_self_attr(target)
            if root is not None:
                self._mutate(target, root, f"del through self.{root}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            is_super_call = (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            )
            if (
                isinstance(func.value, ast.Name) and func.value.id == "self"
            ) or is_super_call:
                self.info.self_calls.add(func.attr)
            else:
                self.info.other_calls.add(func.attr)
                if func.attr in MUTATOR_CALLS:
                    root = self._root_self_attr(func.value)
                    if root is not None:
                        self._mutate(
                            node, root, f"self.{root}.{func.attr}(...)"
                        )
            if func.attr in SCHEDULING_CALLS:
                self._collect_callback_refs(
                    list(node.args) + [kw.value for kw in node.keywords]
                )
        elif isinstance(func, ast.Name):
            self.info.other_calls.add(func.id)
            if func.id in SCHEDULING_CALLS:
                self._collect_callback_refs(
                    list(node.args) + [kw.value for kw in node.keywords]
                )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        # Handler-dispatch dicts: {PacketType.X: self._handle_x, ...}
        self._collect_callback_refs(v for v in node.values if v is not None)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self.info.self_refs.add(attr)
        parent = self._self_attr(node.value)
        if parent is not None:
            self.info.attr_pairs.add((parent, node.attr))
        self.generic_visit(node)


class CallGraph:
    """The indexed file set plus reachability/coverage computations."""

    def __init__(self) -> None:
        #: class name -> definitions carrying it (collisions merge family).
        self.classes: dict[str, list[ClassInfo]] = {}
        #: bare method/function name -> every definition.
        self.by_name: dict[str, list[MethodInfo]] = {}
        self.methods: list[MethodInfo] = []
        self.sources: dict[str, str] = {}
        self._ancestors: dict[str, set[str]] = {}
        self._descendants: dict[str, set[str]] = {}

    # -- indexing --------------------------------------------------------

    def index_source(self, source: str, filename: str) -> None:
        tree = ast.parse(source, filename=filename)
        imports = ImportMap(tree)
        self.sources[filename] = source
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_callable(node, filename, imports, cls=None)
            elif isinstance(node, ast.ClassDef):
                bases = tuple(
                    base
                    for base in (
                        _last_component(b, imports) for b in node.bases
                    )
                    if base is not None
                )
                info = ClassInfo(
                    name=node.name,
                    qualname=node.name,
                    file=filename,
                    line=node.lineno,
                    bases=bases,
                )
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = self._index_callable(
                            child, filename, imports, cls=info
                        )
                        info.methods[method.name] = method
                        info.own_cells |= method.cell_decls
                self.classes.setdefault(node.name, []).append(info)

    def _index_callable(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        filename: str,
        imports: ImportMap,
        cls: ClassInfo | None,
    ) -> MethodInfo:
        qualname = f"{cls.name}.{node.name}" if cls is not None else node.name
        info = MethodInfo(
            name=node.name,
            qualname=qualname,
            file=filename,
            line=node.lineno,
            cls=cls,
        )
        scanner = _MethodScanner(info, imports)
        for statement in node.body:
            scanner.visit(statement)
        self.methods.append(info)
        self.by_name.setdefault(node.name, []).append(info)
        return info

    def finish(self) -> None:
        """Compute the class hierarchy closures (call after indexing)."""
        parents: dict[str, set[str]] = {
            name: {base for info in infos for base in info.bases}
            for name, infos in self.classes.items()
        }
        for name in parents:
            seen: set[str] = set()
            stack = list(parents[name])
            while stack:
                base = stack.pop()
                if base in seen:
                    continue
                seen.add(base)
                stack.extend(parents.get(base, ()))
            self._ancestors[name] = seen
        self._descendants = {name: set() for name in parents}
        for name, ancestors in self._ancestors.items():
            for base in ancestors:
                if base in self._descendants:
                    self._descendants[base].add(name)
        # Property setters: `self.x = ...` where `x` is a family method
        # name runs that method (the setter), it does not rebind an
        # attribute — reroute the mutation into a call edge so coverage
        # flows through the setter's body.
        for method in self.methods:
            if method.cls is None or not method.mutations:
                continue
            kept = []
            for mutation in method.mutations:
                if self._family_methods(method.cls, mutation.attr):
                    method.self_calls.add(mutation.attr)
                else:
                    kept.append(mutation)
            method.mutations = kept

    # -- hierarchy queries -----------------------------------------------

    def ancestors(self, class_name: str) -> set[str]:
        return self._ancestors.get(class_name, set())

    def family_cells(self, cls: ClassInfo) -> set[str]:
        """Cell attributes declared by ``cls`` or any ancestor."""
        cells = set(cls.own_cells)
        for base in self.ancestors(cls.name):
            for info in self.classes.get(base, ()):
                cells |= info.own_cells
        return cells

    def _family_methods(self, cls: ClassInfo, name: str) -> list[MethodInfo]:
        related = {cls.name} | self.ancestors(cls.name) | self._descendants.get(
            cls.name, set()
        )
        return [
            method
            for class_name in sorted(related)
            for info in self.classes.get(class_name, ())
            for method in (info.methods.get(name),)
            if method is not None
        ]

    def _global_methods(self, name: str) -> list[MethodInfo]:
        candidates = self.by_name.get(name, [])
        if (
            len(candidates) > _GLOBAL_EDGE_FANOUT_CAP
            or name in MUTATOR_CALLS
            or (name.startswith("__") and name.endswith("__"))
        ):
            return []
        return candidates

    def edges_of(self, method: MethodInfo) -> list[MethodInfo]:
        """Call targets of ``method`` (family + capped global resolution)."""
        targets: dict[str, MethodInfo] = {}
        if method.cls is not None:
            for name in method.self_calls | method.self_refs:
                for target in self._family_methods(method.cls, name):
                    targets[target.key] = target
        for name in method.other_calls:
            for target in self._global_methods(name):
                targets[target.key] = target
        for name in method.sched_names:
            for target in self.by_name.get(name, []):
                if target.cls is None and target.file == method.file:
                    targets[target.key] = target
        return list(targets.values())

    # -- analyses --------------------------------------------------------

    def roots(self) -> list[MethodInfo]:
        """Schedule roots: registered callbacks + lifecycle methods."""
        found: dict[str, MethodInfo] = {}
        for method in self.methods:
            if method.cls is not None:
                for name in method.sched_refs:
                    for target in self._family_methods(method.cls, name):
                        found[target.key] = target
            for name in method.sched_names:
                for target in self.by_name.get(name, []):
                    if target.cls is None and target.file == method.file:
                        found[target.key] = target
        for infos in self.classes.values():
            for info in infos:
                lineage = {info.name} | self.ancestors(info.name)
                if "Component" not in lineage:
                    continue
                for name, method in info.methods.items():
                    if name in LIFECYCLE_ROOTS:
                        found[method.key] = method
        return list(found.values())

    def _propagate(self, seeds: Iterable[MethodInfo]) -> set[str]:
        reached: set[str] = set()
        stack = list(seeds)
        while stack:
            method = stack.pop()
            if method.key in reached:
                continue
            reached.add(method.key)
            if method.name in INIT_METHODS:
                continue  # construction-time: no propagation through it
            stack.extend(self.edges_of(method))
        return reached

    def reachable(self) -> set[str]:
        """Keys of every method reachable from a schedule root."""
        return self._propagate(self.roots())

    def covered(self) -> set[str]:
        """Keys of every method whose mutations a cell access covers.

        Coverage is *instance-scoped*: it propagates in both directions
        along family edges only (``self.m()`` / ``super().m()`` within
        the class hierarchy). When a method of the same instance whose
        call tree this method shares touches a declared cell, the events
        running them are observable to the dynamic sanitizer through that
        cell; a cell access on some *other* object does not vouch for
        this one's state. Construction-time methods never relay coverage.
        """
        seeds = []
        for method in self.methods:
            if method.cls is None:
                continue
            cells = self.family_cells(method.cls)
            if any(
                attr in cells and accessor in _CELL_ACCESSORS
                for attr, accessor in method.attr_pairs
            ):
                seeds.append(method)
        forward: dict[str, list[MethodInfo]] = {}
        backward: dict[str, list[MethodInfo]] = {}
        for method in self.methods:
            if method.cls is None:
                continue
            for name in method.self_calls | method.self_refs:
                for target in self._family_methods(method.cls, name):
                    forward.setdefault(method.key, []).append(target)
                    backward.setdefault(target.key, []).append(method)
        reached: set[str] = set()
        stack = list(seeds)
        while stack:
            method = stack.pop()
            if method.key in reached:
                continue
            reached.add(method.key)
            if method.name in INIT_METHODS:
                continue
            stack.extend(forward.get(method.key, ()))
            stack.extend(backward.get(method.key, ()))
        return reached


def build_callgraph(paths: Iterable[str | Path]) -> CallGraph:
    """Index every ``*.py`` under ``paths`` into one :class:`CallGraph`.

    Unparseable files are skipped (the per-file lint engine reports them
    as LINT000); everything else is indexed in sorted path order.
    """
    graph = CallGraph()
    files: set[Path] = set()
    for path in (Path(p) for p in paths):
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    for file in sorted(files):
        try:
            graph.index_source(file.read_text(encoding="utf-8"), str(file))
        except SyntaxError:
            continue
    graph.finish()
    return graph

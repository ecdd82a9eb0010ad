"""Whole-program dataflow analysis (rules R007-R011).

The per-file rules in :mod:`repro.lint.rules` see one AST at a time, so
a helper that calls ``time.time()`` two frames away from the simulator,
or a hand-written byte count passed through a function boundary into a
:class:`~repro.net.message.Message`, sails straight through them.  This
module closes that gap: it parses every file of the lint run once,
builds a module import graph and an *approximate* call graph, and runs
five interprocedural analyses on top:

* **R007** — entropy sources (``random``, unseeded ``np.random``,
  ``os.urandom``, ``uuid``, ``secrets``) reachable from protocol-path
  code through any chain of project calls (upgrades R001 from a
  call-site check to a reachability check);
* **R008** — wall-clock sources (``time.*``, ``datetime``, ``sleep``)
  reachable from protocol-path code (upgrades R003 likewise);
* **R009** — byte provenance: every value flowing into
  ``Message(size_bytes=...)`` must derive from
  :mod:`repro.storage.serialization` helpers or named constants, traced
  *across* function boundaries (parameters to caller arguments, calls to
  returned expressions) — the interprocedural completion of R002;
* **R010** — static BSP protocol extraction: the message kinds a
  trainer's round executors emit must be declared as ``CommPhase``
  kinds of its ``RoundSpec`` (what the runtime
  :class:`~repro.net.protocol.ProtocolChecker` expects), so
  code/declaration drift fails ``python -m repro.lint`` instead of a
  runtime repro;
* **R011** — import layering: ``models``/``linalg``/``optim`` must
  never import (directly or transitively) ``sim``/``net``/``core``.

The call graph is deliberately approximate: bare names resolve within
the defining module and its imports, ``self.method()`` resolves through
a statically-derived MRO, and other attribute calls fall back to a
global match on the method name (capped, to bound over-linking).  The
analyses are designed so that over-approximation can only *propagate*
facts established at precise sites (an external entropy call, a
``Message`` construction), never invent them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.engine import FileContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.rules import (
    ALLOWED_NP_RANDOM,
    DATETIME_NOW_FUNCS,
    WALLCLOCK_TIME_FUNCS,
)

#: Modules whose job *is* entropy handling: never treated as taint
#: sources or carriers (they are the sanctioned boundary R001 points to).
SANCTIONED_MODULES = ("repro.utils.rng",)

#: The local execution backend *measures* wall-clock time by contract —
#: that is its whole job (``runtime.measure``/``run_all`` time real
#: worker processes).  Protocol-path trainers may call into it without
#: tripping R008; what stays forbidden is importing ``time`` themselves
#: or reaching it through any other module.
WALLCLOCK_SANCTIONED_MODULES = SANCTIONED_MODULES + ("repro.runtime.local",)

#: The byte-model ground truth: R009 trusts this module, never recurses
#: into it, and never flags literals inside it.
SERIALIZATION_MODULE = "repro.storage.serialization"

#: Import-layering contract (R011): modules in a pure layer must never
#: reach a simulator layer through the import graph, and execution
#: backends (the ``runtime`` layer) must never reach the trainers they
#: serve — the runtime moves opaque bytes and measures time; knowing
#: *whose* bytes would invert the plug-in relationship.
PURE_LAYERS = ("models", "linalg", "optim")
SIMULATOR_LAYERS = ("sim", "net", "core", "engine", "runtime")
TRAINER_LAYERS = ("core", "baselines", "extensions")

#: Attribute-call fallback resolution gives up beyond this many
#: same-named candidates — over-linking ubiquitous names would make the
#: taint fixpoint meaninglessly broad.
MAX_NAME_CANDIDATES = 8

#: Recursion budget for the interprocedural provenance trace (R009).
PROVENANCE_DEPTH = 4

#: Kinds the runtime checker ignores (mirrors
#: ``repro.net.protocol.UNCHECKED_KINDS``); the static extractor (R010)
#: excludes them from the comparison for the same reason — scheduling
#: chatter (CONTROL), failure detection (HEARTBEAT), and recovery
#: traffic (CHECKPOINT) are accounted by the RecoveryPolicy, not the
#: trainer's Table-I declarations.  ``tests/test_lint_program.py`` pins
#: the two tuples equal so they cannot drift apart.
UNCHECKED_KINDS = ("CONTROL", "HEARTBEAT", "CHECKPOINT")


def _shallow_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _module_name_for(path: str) -> str:
    """Dotted module name: real for ``repro`` files, stem otherwise."""
    parts = Path(path).parts
    if "repro" in parts:
        tail = [p[:-3] if p.endswith(".py") else p for p in parts[parts.index("repro") + 1:]]
        if tail and tail[-1] == "__init__":
            tail = tail[:-1]
        return ".".join(["repro"] + tail)
    stem = Path(path).stem
    return stem


class FunctionInfo:
    """One function or method: its AST, parameters, calls, and returns."""

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        class_name: Optional[str] = None,
    ):
        self.module = module
        self.node = node
        self.name = node.name
        self.class_name = class_name
        self.qualname = "{}.{}".format(
            module.name, node.name if class_name is None else "{}.{}".format(class_name, node.name)
        )
        self.is_method = class_name is not None
        args = node.args
        self.params: List[str] = [a.arg for a in args.posonlyargs + args.args]
        self.kwonly: List[str] = [a.arg for a in args.kwonlyargs]
        #: every Call in the body (including nested defs), with its chain
        self.calls: List[Tuple[ast.Call, Tuple[str, ...]]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                chain = dotted_name(sub.func)
                if chain:
                    self.calls.append((sub, chain))
        #: return-value expressions of *this* function (not nested defs)
        self.returns: List[ast.AST] = [
            sub.value
            for sub in _shallow_walk(node)
            if isinstance(sub, ast.Return) and sub.value is not None
        ]
        self._env: Optional[Dict[str, List[ast.AST]]] = None

    # ------------------------------------------------------------------
    def env(self) -> Dict[str, List[ast.AST]]:
        """Local name -> assigned value expressions (incl. loop targets)."""
        if self._env is None:
            env: Dict[str, List[ast.AST]] = {}
            for sub in ast.walk(self.node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        _bind_target(env, target, sub.value)
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    _bind_target(env, sub.target, sub.value)
                elif isinstance(sub, ast.AugAssign):
                    _bind_target(env, sub.target, sub.value)
                elif isinstance(sub, (ast.For, ast.AsyncFor)):
                    _bind_target(env, sub.target, sub.iter)
            self._env = env
        return self._env

    def arg_for_param(self, call: ast.Call, param: str) -> Optional[ast.AST]:
        """The expression a call site passes for ``param`` of this function."""
        for keyword in call.keywords:
            if keyword.arg == param:
                return keyword.value
        if param in self.params:
            index = self.params.index(param)
            if self.is_method:
                index -= 1  # bound call: 'self' is implicit at the site
            if 0 <= index < len(call.args):
                return call.args[index]
        return None


def _bind_target(env: Dict[str, List[ast.AST]], target: ast.AST, value: ast.AST) -> None:
    if isinstance(target, ast.Name):
        env.setdefault(target.id, []).append(value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        elts = getattr(value, "elts", None)
        if elts is not None and len(elts) == len(target.elts):
            for t, v in zip(target.elts, elts):
                _bind_target(env, t, v)
        else:
            for t in target.elts:
                _bind_target(env, t, value)
    elif isinstance(target, (ast.Subscript, ast.Starred)):
        _bind_target(env, target.value, value)


class ClassInfo:
    """One class: its methods and base-class names (for the static MRO)."""

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = "{}.{}".format(module.name, node.name)
        self.bases: List[str] = []
        for base in node.bases:
            chain = dotted_name(base)
            if chain:
                self.bases.append(chain[-1])
        self.methods: Dict[str, FunctionInfo] = {}


class ModuleInfo:
    """Everything the program analyses need to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = str(path)
        self.source = source
        self.tree = tree
        self.ctx = FileContext(self.path, source)
        self.name = _module_name_for(self.path)
        #: local alias -> fully dotted imported name
        self.imports: Dict[str, str] = {}
        #: (target module, import statement node) for every repro import
        self.import_edges: List[Tuple[str, ast.AST]] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module-level name -> assigned value expressions
        self.module_assigns: Dict[str, List[ast.AST]] = {}
        self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
                    if alias.name.split(".")[0] == "repro":
                        self.import_edges.append((alias.name, node))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = "{}.{}".format(node.module, alias.name)
                if node.module.split(".")[0] == "repro":
                    self.import_edges.append((node.module, node))
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(self, stmt)
                self.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(self, stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[sub.name] = FunctionInfo(self, sub, class_name=stmt.name)
                self.classes[stmt.name] = cls
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module_assigns.setdefault(target.id, []).append(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self.module_assigns.setdefault(stmt.target.id, []).append(stmt.value)

    def all_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()


class ProgramIndex:
    """The whole-program view: modules, call resolution, reverse edges."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        self.functions: List[FunctionInfo] = []
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for module in self.modules:
            for func in module.all_functions():
                self.functions.append(func)
                self.functions_by_name.setdefault(func.name, []).append(func)
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
        self._callers: Optional[Dict[FunctionInfo, List[Tuple[FunctionInfo, ast.Call]]]] = None

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def external_name(self, chain: Tuple[str, ...], module: ModuleInfo) -> Optional[str]:
        """Fully-dotted name of a call chain, resolved through imports."""
        root = chain[0]
        if root in module.imports:
            return ".".join([module.imports[root]] + list(chain[1:]))
        if len(chain) > 1:
            return ".".join(chain)
        return None

    def resolve_internal(self, dotted: str) -> List[FunctionInfo]:
        """Resolve ``repro.pkg.mod.func`` by longest module-name prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.by_name.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1 and rest[0] in module.functions:
                return [module.functions[rest[0]]]
            if len(rest) == 2 and rest[0] in module.classes:
                method = module.classes[rest[0]].methods.get(rest[1])
                return [method] if method else []
            return []
        return []

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Static linearisation: the class, then bases by declared order."""
        order: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            order.append(current)
            for base_name in current.bases:
                for candidate in self.classes_by_name.get(base_name, ()):
                    queue.append(candidate)
        return order

    def resolve_self_method(self, name: str, mro: Sequence[ClassInfo]) -> Optional[FunctionInfo]:
        for cls in mro:
            if name in cls.methods:
                return cls.methods[name]
        return None

    def resolve_call(
        self,
        chain: Tuple[str, ...],
        func: Optional[FunctionInfo],
        module: ModuleInfo,
        view_class: Optional[ClassInfo] = None,
    ) -> List[FunctionInfo]:
        """Candidate targets of one call, in the context of ``func``.

        ``view_class`` selects the MRO used for ``self.method()`` calls
        (the analysed subclass for R010's per-class walks; the defining
        class otherwise).
        """
        if chain[0] == "self" and len(chain) == 2:
            klass = view_class
            if klass is None and func is not None and func.class_name:
                klass = module.classes.get(func.class_name)
                if klass is None:
                    for candidate in self.classes_by_name.get(func.class_name, ()):
                        klass = candidate
                        break
            if klass is not None:
                target = self.resolve_self_method(chain[1], self.mro(klass))
                if target is not None:
                    return [target]
            return []
        if len(chain) == 1:
            name = chain[0]
            if name in module.imports:
                dotted = module.imports[name]
                if dotted.split(".")[0] == "repro":
                    return self.resolve_internal(dotted)
                return []
            local = module.functions.get(name)
            return [local] if local is not None else []
        # attribute call: imported-module chains are external ...
        if chain[0] in module.imports:
            dotted = self.external_name(chain, module)
            if dotted and dotted.split(".")[0] == "repro":
                return self.resolve_internal(dotted)
            return []
        # ... everything else falls back to a capped global name match.
        candidates = self.functions_by_name.get(chain[-1], [])
        methods = [c for c in candidates if c.is_method]
        pool = methods if methods else candidates
        if 0 < len(pool) <= MAX_NAME_CANDIDATES:
            return list(pool)
        return []

    # ------------------------------------------------------------------
    def callers_of(self, target: FunctionInfo) -> List[Tuple[FunctionInfo, ast.Call]]:
        """Reverse call edges, computed once for the whole program."""
        if self._callers is None:
            callers: Dict[FunctionInfo, List[Tuple[FunctionInfo, ast.Call]]] = {}
            for func in self.functions:
                for call, chain in func.calls:
                    for callee in self.resolve_call(chain, func, func.module):
                        callers.setdefault(callee, []).append((func, call))
            self._callers = callers
        return self._callers.get(target, [])


# ----------------------------------------------------------------------
# taint: entropy / wall-clock sources through the call graph
# ----------------------------------------------------------------------
def _is_entropy_source(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "random":
        return True
    if parts[0] in ("numpy", "np") and len(parts) >= 3 and parts[1] == "random":
        return parts[2] not in ALLOWED_NP_RANDOM
    if dotted == "os.urandom":
        return True
    if parts[0] == "uuid" and parts[-1] in ("uuid1", "uuid4"):
        return True
    if parts[0] == "secrets":
        return True
    return False


def _is_wallclock_source(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "time" and len(parts) >= 2 and parts[-1] in WALLCLOCK_TIME_FUNCS:
        return True
    if parts[0] == "datetime" and parts[-1] in DATETIME_NOW_FUNCS:
        return True
    return False


class TaintAnalysis:
    """Fixpoint: which functions can reach a source call transitively.

    ``witness[func]`` records how: either ``("source", dotted, node)``
    for a direct source call, or ``("call", node, callee)`` for a call
    into an already-tainted function — enough to render the full path.
    """

    def __init__(
        self,
        index: ProgramIndex,
        matcher,
        sanctioned: Sequence[str] = SANCTIONED_MODULES,
    ) -> None:
        self.index = index
        self.sanctioned = tuple(sanctioned)
        self.witness: Dict[FunctionInfo, tuple] = {}
        for func in index.functions:
            if func.module.name in self.sanctioned:
                continue
            for call, chain in func.calls:
                dotted = index.external_name(chain, func.module)
                if dotted and not dotted.startswith("repro.") and matcher(dotted):
                    self.witness.setdefault(func, ("source", dotted, call))
        changed = True
        while changed:
            changed = False
            for func in index.functions:
                if func in self.witness or func.module.name in self.sanctioned:
                    continue
                for call, chain in func.calls:
                    for callee in index.resolve_call(chain, func, func.module):
                        if callee in self.witness:
                            self.witness[func] = ("call", call, callee)
                            changed = True
                            break
                    if func in self.witness:
                        break

    def path_from(self, func: FunctionInfo) -> str:
        """Human-readable chain ``helper -> inner -> time.time``."""
        parts: List[str] = []
        current: Optional[FunctionInfo] = func
        for _ in range(10):
            if current is None or current not in self.witness:
                break
            record = self.witness[current]
            if record[0] == "source":
                parts.append(current.name)
                parts.append(record[1])
                break
            parts.append(current.name)
            current = record[2]
        return " -> ".join(parts)


# ----------------------------------------------------------------------
# program rule base + registry
# ----------------------------------------------------------------------
class ProgramRule:
    """Base class for one whole-program rule."""

    rule_id = "P000"
    title = "untitled program rule"
    severity = "error"
    fix_hint = ""

    def __init__(self, index: ProgramIndex):
        self.index = index
        self.findings: List[Finding] = []

    def run(self) -> None:
        raise NotImplementedError

    def report(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if module.ctx.suppressed(self.rule_id, line):
            return
        self.findings.append(
            Finding(
                path=module.path,
                line=line,
                col=col,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
                fix_hint=self.fix_hint if fix_hint is None else fix_hint,
            )
        )


_PROGRAM_REGISTRY: Dict[str, Type[ProgramRule]] = {}


def register_program(cls: Type[ProgramRule]) -> Type[ProgramRule]:
    """Class decorator adding a whole-program rule to the registry."""
    from repro.lint.engine import registered_rules

    if cls.rule_id in _PROGRAM_REGISTRY or cls.rule_id in registered_rules():
        raise ValueError("duplicate rule id {}".format(cls.rule_id))
    _PROGRAM_REGISTRY[cls.rule_id] = cls
    return cls


def registered_program_rules() -> Dict[str, Type[ProgramRule]]:
    """Copy of the program-rule registry, keyed by rule id."""
    return dict(_PROGRAM_REGISTRY)


# ----------------------------------------------------------------------
# R007 / R008: interprocedural taint reachability
# ----------------------------------------------------------------------
class _ReachabilityRule(ProgramRule):
    """Shared body of the two taint rules: flag every call, inside a
    protocol-path function, whose (approximate) callee can transitively
    reach a source.  Direct source calls stay R001/R003's business —
    these rules only fire on calls into *project* functions, which is
    exactly the case the per-file rules cannot see."""

    source_matcher = staticmethod(lambda dotted: False)
    source_word = "source"
    sanctioned_modules: Tuple[str, ...] = SANCTIONED_MODULES

    def run(self) -> None:
        taint = TaintAnalysis(
            self.index, self.source_matcher, sanctioned=self.sanctioned_modules
        )
        for func in self.index.functions:
            ctx = func.module.ctx
            if not ctx.in_protocol_path() or ctx.is_test_code():
                continue
            if func.module.name in self.sanctioned_modules:
                continue
            for call, chain in func.calls:
                for callee in self.index.resolve_call(chain, func, func.module):
                    if callee in taint.witness:
                        self.report(
                            func.module,
                            call,
                            "call to {}() reaches {} {} ({})".format(
                                callee.name,
                                self.source_word,
                                _witness_source(taint, callee),
                                taint.path_from(callee),
                            ),
                        )
                        break


def _witness_source(taint: TaintAnalysis, func: FunctionInfo) -> str:
    current: Optional[FunctionInfo] = func
    for _ in range(10):
        record = taint.witness.get(current)
        if record is None:
            break
        if record[0] == "source":
            return record[1]
        current = record[2]
    return "an external source"


@register_program
class EntropyReachabilityRule(_ReachabilityRule):
    """R007: no protocol-path function may reach an entropy source."""

    rule_id = "R007"
    title = "entropy source reachable from protocol path"
    severity = "error"
    fix_hint = "thread a seeded generator from repro.utils.rng through the call chain"
    source_matcher = staticmethod(_is_entropy_source)
    source_word = "entropy source"


@register_program
class WallclockReachabilityRule(_ReachabilityRule):
    """R008: no protocol-path function may reach wall-clock time."""

    rule_id = "R008"
    title = "wall-clock source reachable from protocol path"
    severity = "error"
    fix_hint = (
        "advance repro.sim.clock.SimClock with cost-model durations, or "
        "measure through repro.runtime.local (the sanctioned wall-clock "
        "boundary)"
    )
    source_matcher = staticmethod(_is_wallclock_source)
    source_word = "wall-clock source"
    sanctioned_modules = WALLCLOCK_SANCTIONED_MODULES


# ----------------------------------------------------------------------
# R009: interprocedural byte provenance for Message sizes
# ----------------------------------------------------------------------
#: Builtins through which a byte value passes unchanged (or combined):
#: their arguments stay part of the traced value.  Any other unresolved
#: call is opaque — its arguments are *inputs* to some computation, not
#: byte quantities themselves.
PASSTHROUGH_BUILTINS = ("int", "float", "round", "abs", "min", "max", "sum")


def _is_bad_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value != 0
    )


@register_program
class ByteProvenanceRule(ProgramRule):
    """R009: Message sizes must derive from serialization helpers or
    named constants across function boundaries.

    The trace starts at every ``Message(size_bytes=...)`` expression and
    follows local assignments, function parameters (to every caller's
    argument expression), and calls to protocol-path project functions
    (into their return expressions).  A bare numeric literal found after
    at least one function-boundary crossing is reported at the literal —
    same-function literals are R002's (already-enforced) business.
    """

    rule_id = "R009"
    title = "unproven Message byte size across function boundary"
    severity = "error"
    fix_hint = "compute the size with repro.storage.serialization helpers or a named constant"

    def run(self) -> None:
        self._reported: Set[Tuple[str, int, int]] = set()
        for func in self.index.functions:
            ctx = func.module.ctx
            if ctx.is_test_code() or func.module.name == SERIALIZATION_MODULE:
                continue
            for call, chain in func.calls:
                if chain[-1] != "Message":
                    continue
                size = self._size_argument(call)
                if size is not None:
                    self._trace(size, func, PROVENANCE_DEPTH, False, set(), call)

    # ------------------------------------------------------------------
    @staticmethod
    def _size_argument(call: ast.Call) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == "size_bytes":
                return keyword.value
        if len(call.args) >= 4:
            return call.args[3]
        return None

    def _trace(
        self,
        expr: ast.AST,
        func: FunctionInfo,
        depth: int,
        crossed: bool,
        visited: Set[tuple],
        sink: ast.Call,
    ) -> None:
        """Structural trace: follow only constructs through which a byte
        *value* flows.  Subscript indices, comparison tests, and the
        arguments of opaque calls are inputs to other computations and
        are deliberately not part of the traced value."""
        if _is_bad_literal(expr):
            if crossed:
                self._flag(expr, func, sink)
        elif isinstance(expr, ast.Name):
            self._trace_name(expr.id, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.BinOp):
            self._trace(expr.left, func, depth, crossed, visited, sink)
            self._trace(expr.right, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.UnaryOp):
            self._trace(expr.operand, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.IfExp):
            self._trace(expr.body, func, depth, crossed, visited, sink)
            self._trace(expr.orelse, func, depth, crossed, visited, sink)
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._trace(elt, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.Starred):
            self._trace(expr.value, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.Subscript):
            self._trace(expr.value, func, depth, crossed, visited, sink)
        elif isinstance(expr, ast.Call):
            chain = dotted_name(expr.func)
            if (
                chain is not None
                and len(chain) == 1
                and chain[0] in PASSTHROUGH_BUILTINS
                and chain[0] not in func.module.imports
            ):
                for arg in expr.args:
                    self._trace(arg, func, depth, crossed, visited, sink)
            else:
                self._trace_call(expr, func, depth, visited, sink)

    def _trace_name(
        self,
        name: str,
        func: FunctionInfo,
        depth: int,
        crossed: bool,
        visited: Set[tuple],
        sink: ast.Call,
    ) -> None:
        if name.isupper() or name == "self":
            return  # named constants are exactly what the rule asks for
        key = (func.qualname, name, crossed)
        if key in visited:
            return
        visited.add(key)
        module = func.module
        if name in func.params or name in func.kwonly:
            if depth <= 0:
                return
            for caller, call in self.index.callers_of(func):
                arg = func.arg_for_param(call, name)
                if arg is not None:
                    self._trace(arg, caller, depth - 1, True, visited, sink)
            return
        for value in func.env().get(name, ()):
            self._trace(value, func, depth, crossed, visited, sink)
        if name in func.env():
            return
        if name in module.imports:
            return  # imported helper/constant reference, not a value leaf
        for value in module.module_assigns.get(name, ()):
            self._trace(value, func, depth, crossed, visited, sink)

    def _trace_call(
        self,
        call: ast.Call,
        func: FunctionInfo,
        depth: int,
        visited: Set[tuple],
        sink: ast.Call,
    ) -> None:
        chain = dotted_name(call.func)
        if not chain or depth <= 0:
            return
        dotted = self.index.external_name(chain, func.module)
        if dotted and dotted.startswith(SERIALIZATION_MODULE + "."):
            return  # the byte model itself: trusted ground truth
        for callee in self.index.resolve_call(chain, func, func.module):
            if callee.module.name == SERIALIZATION_MODULE:
                continue
            if not callee.module.ctx.in_protocol_path():
                continue  # model/data layers return counts, not byte sizes
            key = (callee.qualname, "<return>")
            if key in visited:
                continue
            visited.add(key)
            for ret in callee.returns:
                self._trace(ret, callee, depth - 1, True, visited, sink)

    def _flag(self, literal: ast.Constant, func: FunctionInfo, sink: ast.Call) -> None:
        key = (func.module.path, literal.lineno, literal.col_offset)
        if key in self._reported:
            return
        self._reported.add(key)
        self.report(
            func.module,
            literal,
            "numeric literal {!r} flows into Message size_bytes at {}:{} "
            "through a function boundary".format(
                literal.value, Path(self._sink_path(sink)).name, sink.lineno
            ),
        )

    def _sink_path(self, sink: ast.Call) -> str:
        for func in self.index.functions:
            for call, _ in func.calls:
                if call is sink:
                    return func.module.path
        return "<unknown>"


# ----------------------------------------------------------------------
# R010: static BSP protocol extraction vs. declared expected traffic
# ----------------------------------------------------------------------
def _kind_of(expr: ast.AST) -> Optional[str]:
    chain = dotted_name(expr)
    if chain and "MessageKind" in chain and chain[-1] != "MessageKind":
        return chain[-1]
    return None


def _message_kind_argument(call: ast.Call) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    return call.args[0] if call.args else None


class EmissionSummary:
    """What one function sends per call: concrete kinds plus the names
    of parameters whose value becomes a message kind downstream."""

    def __init__(self) -> None:
        self.kinds: Set[str] = set()
        self.kind_params: Set[str] = set()

    def copy_into(self, other: "EmissionSummary") -> bool:
        before = len(other.kinds)
        other.kinds |= self.kinds
        return len(other.kinds) != before


def compute_emission_summaries(index: ProgramIndex) -> Dict[FunctionInfo, EmissionSummary]:
    """Bottom-up fixpoint over the call graph.

    A function emits kind K when it constructs ``Message(MessageKind.K,
    ...)``, or calls a function that does; when the kind slot is filled
    from a parameter (``StarTopology.gather(kind, ...)``), the summary
    records the parameter and call sites instantiate it.
    """
    summaries: Dict[FunctionInfo, EmissionSummary] = {}
    for func in index.functions:
        summary = EmissionSummary()
        for call, chain in func.calls:
            if chain[-1] == "Message":
                kind_expr = _message_kind_argument(call)
                if kind_expr is None:
                    continue
                kind = _kind_of(kind_expr)
                if kind is not None:
                    summary.kinds.add(kind)
                elif isinstance(kind_expr, ast.Name) and (
                    kind_expr.id in func.params or kind_expr.id in func.kwonly
                ):
                    summary.kind_params.add(kind_expr.id)
        summaries[func] = summary

    changed = True
    while changed:
        changed = False
        for func in index.functions:
            summary = summaries[func]
            for call, chain in func.calls:
                for callee in index.resolve_call(chain, func, func.module):
                    callee_summary = summaries[callee]
                    if callee_summary.copy_into(summary):
                        changed = True
                    for param in callee_summary.kind_params:
                        arg = callee.arg_for_param(call, param)
                        if arg is None:
                            continue
                        kind = _kind_of(arg)
                        if kind is not None and kind not in summary.kinds:
                            summary.kinds.add(kind)
                            changed = True
                        elif (
                            isinstance(arg, ast.Name)
                            and (arg.id in func.params or arg.id in func.kwonly)
                            and arg.id not in summary.kind_params
                        ):
                            summary.kind_params.add(arg.id)
                            changed = True
    return summaries


#: Per phase-constructor: keyword arguments whose string values name
#: trainer methods the engine will call (the statically-known executor
#: entry points of a RoundSpec).
_EXECUTOR_ARGS = {
    "ComputePhase": ("run",),
    "MasterPhase": ("run",),
    "CommPhase": ("sizes", "servers"),
}


def _call_kwarg(call: ast.Call, name: str) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _string_value(expr: Optional[ast.AST]) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _spec_declarations(
    method: FunctionInfo,
) -> Tuple[Set[str], Set[str], Set[str], Optional[ast.AST]]:
    """Spec-style declarations in one method body.

    Returns ``(declared kinds, executor method names, envelope-provider
    names, first CommPhase node)`` from the ``CommPhase``/
    ``ComputePhase``/``MasterPhase``/``RoundSpec`` constructor calls.
    """
    declared: Set[str] = set()
    executors: Set[str] = set()
    envelopes: Set[str] = set()
    node: Optional[ast.AST] = None
    for call, chain in method.calls:
        ctor = chain[-1]
        if ctor == "CommPhase":
            kind_expr = _call_kwarg(call, "kind")
            if kind_expr is None and len(call.args) > 1:
                kind_expr = call.args[1]
            kind = _kind_of(kind_expr) if kind_expr is not None else None
            if kind is not None:
                declared.add(kind)
                if node is None:
                    node = call
        if ctor in _EXECUTOR_ARGS:
            for arg_name in _EXECUTOR_ARGS[ctor]:
                name = _string_value(_call_kwarg(call, arg_name))
                if name is None and arg_name == "run" and len(call.args) > 1:
                    name = _string_value(call.args[1])
                if name is not None:
                    executors.add(name)
        if ctor == "RoundSpec":
            name = _string_value(_call_kwarg(call, "envelopes"))
            if name is not None:
                envelopes.add(name)
    return declared, executors, envelopes, node


def _envelope_kinds(method: FunctionInfo) -> Set[str]:
    """MessageKind keys of dict literals in an envelope provider."""
    kinds: Set[str] = set()
    for sub in ast.walk(method.node):
        if isinstance(sub, ast.Dict):
            for keynode in sub.keys:
                if keynode is None:
                    continue
                kind = _kind_of(keynode)
                if kind is not None:
                    kinds.add(kind)
    return kinds


def _walk_round_emissions(
    index: ProgramIndex,
    summaries: Dict[FunctionInfo, "EmissionSummary"],
    cls: ClassInfo,
    mro: Sequence[ClassInfo],
    roots: List[FunctionInfo],
) -> Set[str]:
    """Transitive ``Message`` kinds reachable from ``roots`` under
    ``cls``'s MRO."""
    emitted: Set[str] = set()
    visited: Set[str] = set()
    stack: List[FunctionInfo] = list(roots)
    while stack:
        method = stack.pop()
        if method.qualname in visited:
            continue
        visited.add(method.qualname)
        for call, chain in method.calls:
            if chain[0] == "self" and len(chain) == 2:
                target = index.resolve_self_method(chain[1], mro)
                if target is not None:
                    stack.append(target)
                continue
            if chain[-1] == "Message":
                kind = _kind_of(_message_kind_argument(call) or ast.Name(id="?"))
                if kind is not None:
                    emitted.add(kind)
                continue
            for callee in index.resolve_call(
                chain, method, method.module, view_class=cls
            ):
                callee_summary = summaries[callee]
                emitted |= callee_summary.kinds
                for param in callee_summary.kind_params:
                    arg = callee.arg_for_param(call, param)
                    kind = _kind_of(arg) if arg is not None else None
                    if kind is not None:
                        emitted.add(kind)
    return emitted


def _extract_spec_protocol(
    index: ProgramIndex,
    summaries: Dict[FunctionInfo, "EmissionSummary"],
    module: ModuleInfo,
    cls: ClassInfo,
) -> Optional[dict]:
    """Spec-style record: declared = CommPhase kinds (+ envelope keys)
    across the class's resolved MRO methods; emitted = Message kinds
    reachable from the spec's executor methods.

    The engine emits each CommPhase's declared kind by construction, so
    the residual drift class is an executor sending on the wire behind
    the spec's back — that is what the emitted set captures.
    """
    mro = index.mro(cls)
    if index.resolve_self_method("round_spec", mro) is None:
        return None
    names: Set[str] = set()
    for klass in mro:
        names.update(klass.methods)
    declared: Set[str] = set()
    executors: Set[str] = set()
    envelope_names: Set[str] = set()
    decl_node: Optional[ast.AST] = None
    decl_module: Optional[ModuleInfo] = None
    for name in sorted(names):
        method = index.resolve_self_method(name, mro)
        if method is None:
            continue
        kinds, runs, envelopes, node = _spec_declarations(method)
        declared |= kinds
        executors |= runs
        envelope_names |= envelopes
        if node is not None and decl_node is None:
            decl_node, decl_module = node, method.module
    if not declared:
        return None
    roots: List[FunctionInfo] = []
    for name in sorted(executors | envelope_names):
        method = index.resolve_self_method(name, mro)
        if method is not None:
            roots.append(method)
    for name in sorted(envelope_names):
        method = index.resolve_self_method(name, mro)
        if method is not None:
            declared |= _envelope_kinds(method)
    emitted = _walk_round_emissions(index, summaries, cls, mro, roots)
    return {
        "style": "spec",
        "emitted": emitted - set(UNCHECKED_KINDS),
        "declared": declared - set(UNCHECKED_KINDS),
        "module": decl_module or module,
        "node": decl_node or cls.node,
    }


def extract_round_protocol(index: ProgramIndex) -> Dict[str, dict]:
    """Static per-trainer round protocol: emitted vs. declared kinds.

    A trainer is a class that (or whose base) defines ``round_spec``
    and whose resolved MRO methods construct ``CommPhase``
    declarations; the declared kinds are read straight from the spec
    (plus any ``TrafficEnvelope`` dict keys of the spec's ``envelopes``
    provider) and the emitted kinds are whatever ``Message`` sends are
    reachable from the spec's executor methods.

    Returns ``{class qualname: {"style", "emitted", "declared",
    "module", "node"}}`` with :data:`UNCHECKED_KINDS` removed.
    """
    summaries = compute_emission_summaries(index)
    results: Dict[str, dict] = {}
    for module in index.modules:
        for cls in module.classes.values():
            record = _extract_spec_protocol(index, summaries, module, cls)
            if record is not None:
                results[cls.qualname] = record
    return results


@register_program
class ProtocolDriftRule(ProgramRule):
    """R010: every message kind a trainer's round executors emit must be
    declared in its RoundSpec, so the runtime ProtocolChecker
    declarations cannot silently drift away from the code they
    describe."""

    rule_id = "R010"
    title = "round-loop traffic disagrees with declared expected traffic"
    severity = "error"
    fix_hint = (
        "declare the kind as a CommPhase/envelope in the RoundSpec (or drop "
        "the rogue emission)"
    )

    def run(self) -> None:
        for qualname, record in sorted(extract_round_protocol(self.index).items()):
            module = record["module"]
            if module.ctx.is_test_code():
                continue
            # The engine emits every declared CommPhase itself, so only
            # rogue emissions can drift.
            undeclared = sorted(record["emitted"] - record["declared"])
            if undeclared:
                self.report(
                    module,
                    record["node"],
                    "trainer {} emits undeclared kind(s) {}".format(
                        qualname.split(".")[-1], undeclared
                    ),
                )


# ----------------------------------------------------------------------
# R011: import layering
# ----------------------------------------------------------------------
@register_program
class ImportLayeringRule(ProgramRule):
    """R011: the import graph must respect the layer contracts.

    Two contracts, both checked transitively over the import graph of
    the analysed file set:

    * **pure -> simulator**: ``models``/``linalg``/``optim`` hold the
      paper's *math*; ``sim``/``net``/``core``/``engine``/``runtime``
      hold the executing *system*.  The exactness tests compare the
      two, which is only meaningful while the math cannot observe the
      machinery it is compared against.
    * **runtime -> trainer**: execution backends (``runtime``) move
      opaque bytes and measure time for *any* trainer; importing
      ``core``/``baselines``/``extensions`` would weld a backend to one
      algorithm and break the plug-in boundary in the other direction.
    """

    rule_id = "R011"
    title = "module import crosses a layer boundary"
    severity = "error"
    fix_hint = "invert the dependency: sim/net/core may import models/linalg/optim, never the reverse"

    @staticmethod
    def _layer_of(module_name: str) -> Optional[str]:
        parts = module_name.split(".")
        return parts[1] if parts[0] == "repro" and len(parts) > 1 else None

    def run(self) -> None:
        self._check(
            PURE_LAYERS,
            SIMULATOR_LAYERS,
            self.fix_hint,
        )
        self._check(
            ("runtime",),
            TRAINER_LAYERS,
            "keep the backend algorithm-agnostic: trainers import "
            "repro.runtime, never the reverse",
        )

    def _check(
        self,
        from_layers: Sequence[str],
        to_layers: Sequence[str],
        fix_hint: str,
    ) -> None:
        for module in self.index.modules:
            if self._layer_of(module.name) not in from_layers:
                continue
            for target, node in module.import_edges:
                chain = self._path_to_layer(target, to_layers)
                if chain is not None:
                    via = " -> ".join([module.name] + chain)
                    self.report(
                        module,
                        node,
                        "{} layer module reaches {} layer: {}".format(
                            self._layer_of(module.name), self._layer_of(chain[-1]), via
                        ),
                        fix_hint=fix_hint,
                    )

    def _path_to_layer(
        self, target: str, layers: Sequence[str]
    ) -> Optional[List[str]]:
        """Shortest import chain from ``target`` into one of ``layers``."""
        queue: List[Tuple[str, List[str]]] = [(target, [target])]
        seen: Set[str] = set()
        while queue:
            name, chain = queue.pop(0)
            if name in seen or len(chain) > 10:
                continue
            seen.add(name)
            if self._layer_of(name) in layers:
                return chain
            module = self.index.by_name.get(name)
            if module is None:
                # imported names resolve to their defining module when
                # the exact target is not a module in the file set
                module = self.index.by_name.get(name.rsplit(".", 1)[0])
            if module is None:
                continue
            for nxt, _ in module.import_edges:
                if nxt not in seen:
                    queue.append((nxt, chain + [nxt]))
        return None


# ----------------------------------------------------------------------
# the analyzer facade
# ----------------------------------------------------------------------
class ProgramAnalyzer:
    """Parse a file set once and run whole-program rules over it.

    Test modules are excluded from the index: they are exempt from the
    invariants and their free use of entropy would otherwise bleed into
    the approximate call graph.  Files with syntax errors are skipped —
    the per-file pass already reports them as E001.
    """

    def __init__(self, sources: Sequence[Tuple[str, str]]):
        modules: List[ModuleInfo] = []
        for path, source in sources:
            ctx = FileContext(str(path), source)
            if ctx.is_test_code():
                continue
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            modules.append(ModuleInfo(str(path), source, tree))
        self.index = ProgramIndex(modules)

    def run(self, rule_classes: Sequence[Type[ProgramRule]]) -> List[Finding]:
        findings: List[Finding] = []
        for cls in rule_classes:
            rule = cls(self.index)
            rule.run()
            findings.extend(rule.findings)
        return sorted(findings)

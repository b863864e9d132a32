"""The flow-aware RPL01x rule family.

Where the syntactic RPL00x checkers judge one expression in one module,
these rules consume the whole-program call graph
(:mod:`repro.analysis.callgraph`) and the forward dataflow engine
(:mod:`repro.analysis.dataflow`) to follow a value *through* calls:

* **RPL010** — transitive process-map taint: a closure, lambda, or
  bound method that reaches ``executor.map`` / an ``initializer`` through
  any call chain (subsumes RPL001's literal-only check; literal sites
  stay RPL001's so each incident has exactly one rule).
* **RPL012** — lock-order cycles: the global lock-acquisition graph
  built from ``with <lock>:`` nesting across functions *and* their
  callees must be acyclic.

Every finding carries the witnessing chain (``Finding.chain``): the
``path:line`` steps the offending value or lock context travelled
through, rendered by the reporters and shipped in ``lint.json``.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    FunctionId,
    FunctionInfo,
    Project,
    _walk_function_body,
    module_name_for_path,
)
from repro.analysis.checkers import Checker, ProcessMapSafetyChecker
from repro.analysis.dataflow import DataflowEngine
from repro.analysis.findings import Finding
from repro.analysis.visitor import call_keyword, terminal_name


class FlowChecker(Checker):
    """A rule that runs over the whole project, not module by module."""

    def check(self, module) -> list[Finding]:  # pragma: no cover - flow only
        return []

    def check_project(
        self, project: Project, engine: DataflowEngine
    ) -> list[Finding]:
        raise NotImplementedError

    def flow_finding(
        self,
        path: str,
        node: ast.AST,
        message: str,
        chain=(),
    ) -> Finding:
        return Finding(
            rule=self.rule,
            message=message,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            chain=tuple(chain),
        )


def _functions_in_order(project: Project) -> list[FunctionInfo]:
    return [
        project.functions[fid]
        for fid in sorted(
            project.functions, key=lambda f: (f.module, f.qualname)
        )
    ]


# ----------------------------------------------------------------------
# RPL010 — transitive process-map taint


class TransitiveProcessMapTaintChecker(FlowChecker):
    """RPL010: unpicklable state reaching a process pool through calls.

    RPL001 flags the literal shapes (a lambda *at* the map site); this
    rule evaluates the callable expression in the dataflow engine, so a
    closure returned by a helper two modules away is caught at the map
    site with the full witness chain.  Sites RPL001 already flags are
    skipped — one incident, one rule.
    """

    rule = "RPL010"
    name = "transitive-process-map-taint"
    description = "unpicklable values must not reach process pools via any call chain"

    def check_project(self, project, engine) -> list[Finding]:
        findings: list[Finding] = []
        syntactic = ProcessMapSafetyChecker()
        for fn in _functions_in_order(project):
            for node in _walk_function_body(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                for expr, context in _pool_callable_sites(node):
                    if self._syntactic_owns(syntactic, fn, node, expr, context):
                        continue
                    value = engine.eval_in_function(fn, expr)
                    if not value.has("UNPICKLABLE"):
                        continue
                    chain = value.chain("UNPICKLABLE") + (
                        (fn.module.path, node.lineno,
                         f"shipped to {context} here"),
                    )
                    findings.append(
                        self.flow_finding(
                            fn.module.path,
                            expr,
                            f"value reaching {context} carries unpicklable "
                            "state through the call chain below; process "
                            "pools pickle work units by reference — hoist "
                            "the callable to module level and pass state "
                            "explicitly",
                            chain=chain,
                        )
                    )
        return findings

    @staticmethod
    def _syntactic_owns(syntactic, fn, call, expr, context) -> bool:
        """True when RPL001 already reports this exact site."""
        return any(
            syntactic._judge_callable(fn.module, call, expr, context)
        )


def _pool_callable_sites(call: ast.Call):
    """Yield (callable expr, context label) for pool-bound callables."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "map"
        and _is_executor_receiver(func.value)
        and call.args
    ):
        yield call.args[0], "executor.map"
    callee = terminal_name(func)
    if callee is not None and callee != "ThreadPoolExecutor":
        looks_like_pool = (
            "executor" in callee.lower() or "pool" in callee.lower()
        )
        if looks_like_pool:
            kw = call_keyword(call, "initializer")
            if kw is not None and kw.value is not None:
                yield kw.value, f"initializer of {callee}"


def _is_executor_receiver(expr: ast.AST) -> bool:
    name = terminal_name(expr)
    return name is not None and "executor" in name.lower()


# ----------------------------------------------------------------------
# RPL012 — lock-order cycle detection


class LockOrderChecker(FlowChecker):
    """RPL012: the global lock-acquisition graph must be acyclic.

    ``with A:`` containing — directly or through any call chain — a
    ``with B:`` adds edge A->B.  A cycle means two call paths can
    interleave into a deadlock (the class PR 4 hit when nested pools
    acquired the registry and stream locks in opposite orders).  Lock
    identity: ``self.X`` inside class ``C`` is ``C.X``; a bare name is
    qualified by its module.
    """

    rule = "RPL012"
    name = "lock-order-cycles"
    description = "lock acquisition order must be globally acyclic"

    def check_project(self, project, engine) -> list[Finding]:
        edges: dict[tuple[str, str], tuple] = {}
        acquired_cache: dict[FunctionId, dict[str, tuple]] = {}

        for fn in _functions_in_order(project):
            self._collect_edges(
                project, fn, edges, acquired_cache
            )

        graph: dict[str, set[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())

        findings = []
        for cycle in self._cycles(graph):
            witness_edges = []
            for index, node in enumerate(cycle):
                succ = cycle[(index + 1) % len(cycle)]
                witness_edges.append((node, succ, edges[(node, succ)]))
            path, line, chain = self._witness(witness_edges)
            pretty = " -> ".join([*cycle, cycle[0]])
            findings.append(
                Finding(
                    rule=self.rule,
                    message=(
                        f"lock-order cycle {pretty}: two call paths can "
                        "acquire these locks in opposite orders and "
                        "deadlock; pick one global order and stick to it"
                    ),
                    path=path,
                    line=line,
                    chain=tuple(chain),
                )
            )
        return findings

    # -- edge collection ------------------------------------------------

    def _collect_edges(self, project, fn, edges, acquired_cache) -> None:
        module_path = fn.module.path

        def visit(stmts, held: tuple[tuple[str, int], ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    now_held = held
                    for item in stmt.items:
                        lock = self._lock_identity(project, fn, item.context_expr)
                        if lock is None:
                            continue
                        for outer, outer_line in now_held:
                            key = (outer, lock)
                            if key not in edges and outer != lock:
                                edges[key] = (
                                    module_path,
                                    stmt.lineno,
                                    ((module_path, outer_line,
                                      f"'{outer}' acquired here in "
                                      f"{fn.name}()"),
                                     (module_path, stmt.lineno,
                                      f"'{lock}' acquired while holding "
                                      f"'{outer}'")),
                                )
                        now_held = now_held + ((lock, stmt.lineno),)
                    visit(stmt.body, now_held)
                    continue
                # Calls made while holding locks: edges into everything
                # the callee (transitively) acquires.
                if held:
                    for node in ast.walk(stmt):
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                            continue
                        if not isinstance(node, ast.Call):
                            continue
                        for target in project.resolve_call(
                            fn.module, node, fn.class_name
                        ):
                            for lock, where in self._acquires(
                                project, target, acquired_cache, ()
                            ).items():
                                for outer, outer_line in held:
                                    key = (outer, lock)
                                    if outer != lock and key not in edges:
                                        edges[key] = (
                                            module_path,
                                            node.lineno,
                                            ((module_path, outer_line,
                                              f"'{outer}' acquired here in "
                                              f"{fn.name}()"),
                                             (module_path, node.lineno,
                                              f"call into "
                                              f"{target.qualname}() while "
                                              f"holding '{outer}'"),
                                             *where),
                                        )
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if inner:
                        visit(inner, held)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, held)

        visit(fn.node.body, ())

    def _acquires(
        self, project, fid: FunctionId, cache, stack
    ) -> dict[str, tuple]:
        """lock identity -> witness steps for every lock *fid* acquires,
        directly or through callees (cycle-guarded fixed traversal)."""
        if fid in cache:
            return cache[fid]
        if fid in stack:
            return {}
        fn = project.function(fid)
        if fn is None:
            return {}
        cache[fid] = {}  # cycle guard: callees see partial (empty) result
        acquired: dict[str, tuple] = {}
        for node in _walk_function_body(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self._lock_identity(project, fn, item.context_expr)
                    if lock is not None and lock not in acquired:
                        acquired[lock] = (
                            (fn.module.path, node.lineno,
                             f"'{lock}' acquired in {fn.id.qualname}()"),
                        )
            elif isinstance(node, ast.Call):
                for target in project.resolve_call(fn.module, node, fn.class_name):
                    for lock, where in self._acquires(
                        project, target, cache, stack + (fid,)
                    ).items():
                        if lock not in acquired:
                            acquired[lock] = (
                                (fn.module.path, node.lineno,
                                 f"via call to {target.qualname}()"),
                                *where,
                            )
        cache[fid] = acquired
        return acquired

    @staticmethod
    def _lock_identity(project, fn: FunctionInfo, expr: ast.AST) -> str | None:
        """Stable cross-function name for a lock context expression."""
        # Unwrap helper-style acquisitions like `lock.acquire_timeout()`.
        name = terminal_name(expr)
        if name is None:
            return None
        if not ("lock" in name.lower() or "mutex" in name.lower()):
            return None
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                owner = fn.class_name or fn.name
                return f"{owner}.{expr.attr}"
            base_name = terminal_name(base)
            if base_name is not None:
                return f"{base_name}.{expr.attr}"
            return expr.attr
        module = module_name_for_path(fn.module.path)
        return f"{module}.{name}"

    # -- cycle enumeration ----------------------------------------------

    @staticmethod
    def _cycles(graph: dict[str, set[str]]) -> list[list[str]]:
        """Deterministic list of elementary cycles (rotated canonically)."""
        cycles: list[list[str]] = []
        seen: set[tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: list[str], visited: set[str]):
            for succ in sorted(graph.get(node, ())):
                if succ == start:
                    rotation = min(range(len(path)), key=lambda i: path[i])
                    canonical = tuple(path[rotation:] + path[:rotation])
                    if canonical not in seen:
                        seen.add(canonical)
                        cycles.append(list(canonical))
                elif succ not in visited and succ > start:
                    # Only explore nodes ordered after `start`: each
                    # cycle is found exactly once, from its least node.
                    visited.add(succ)
                    dfs(start, succ, path + [succ], visited)
                    visited.discard(succ)

        for start in sorted(graph):
            dfs(start, start, [start], {start})
        return cycles

    @staticmethod
    def _witness(witness_edges) -> tuple[str, int, list]:
        """Anchor the finding at the first edge's site, chain all edges."""
        path, line, _ = witness_edges[0][2]
        chain: list = []
        for outer, inner, (_path, _line, steps) in witness_edges:
            chain.extend(steps)
        return path, line, chain[: 12]


def flow_checkers() -> list[FlowChecker]:
    """Fresh instances of every RPL01x rule, in rule order."""
    return [
        TransitiveProcessMapTaintChecker(),
        LockOrderChecker(),
    ]


FLOW_RULES = {
    checker.rule: checker.description for checker in flow_checkers()
}

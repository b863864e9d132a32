"""Forward dataflow engine for the flow-aware (RPL01x) lint rules.

The engine runs a small abstract interpretation over each function
body, propagating a two-fact lattice:

* ``UNPICKLABLE`` — the value cannot cross a process boundary
  (lambdas, nested functions/closures, objects holding them).
* ``LOCK_HELD``   — the value is a lock currently held (used by the
  lock-order pass to seed acquisition contexts).

Values are :class:`AbstractValue`: a frozenset of facts plus, per
fact, a **witness chain** — the ``(path, line, note)`` steps the fact
travelled through.  ``join`` is set union with deterministic
shortest-chain selection, so the lattice is a finite-height join
semilattice and every fixed-point loop terminates.

Interprocedural propagation uses **parameter-polymorphic summaries**
instantiated per call site: a function is analysed once with each
parameter bound to a synthetic ``PARAM<i>`` marker; at a call site the
marker facts are substituted with the actual argument values, which
gives ``k=1`` call-site context sensitivity without re-analysing the
callee per context.  Recursive cycles are solved by iterating a
function's summary from bottom until stable (bounded by the lattice
height).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import (
    FunctionId,
    FunctionInfo,
    Project,
)
from repro.analysis.visitor import terminal_name

#: The concrete facts the RPL01x rules consume.
FACTS = ("UNPICKLABLE", "LOCK_HELD")

#: Witness chains are capped so pathological call graphs cannot grow
#: them without bound (termination + readable messages).
MAX_CHAIN_STEPS = 12

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


#: One provenance step: (path, 1-based line, human note).
ChainStep = tuple[str, int, str]


@dataclass(frozen=True)
class AbstractValue:
    """A join-semilattice element: facts plus per-fact witness chains.

    ``origins`` is a sorted tuple of ``(fact, chain)`` pairs — kept as
    a tuple (not a dict) so values hash and compare structurally, which
    the fixed-point loops rely on.
    """

    facts: frozenset[str] = frozenset()
    origins: tuple[tuple[str, tuple[ChainStep, ...]], ...] = ()

    def chain(self, fact: str) -> tuple[ChainStep, ...]:
        for name, chain in self.origins:
            if name == fact:
                return chain
        return ()

    def has(self, fact: str) -> bool:
        return fact in self.facts

    def is_bottom(self) -> bool:
        return not self.facts


BOTTOM = AbstractValue()


def value_of(fact: str, step: ChainStep) -> AbstractValue:
    """A single-fact value born at *step*."""
    return AbstractValue(facts=frozenset({fact}), origins=((fact, (step,)),))


def _best_chain(
    a: tuple[ChainStep, ...], b: tuple[ChainStep, ...]
) -> tuple[ChainStep, ...]:
    """Deterministic choice between two witness chains for one fact.

    Shortest wins; ties break lexicographically, so ``join`` is
    commutative and idempotent no matter the argument order.
    """
    if not a:
        return b
    if not b:
        return a
    return min(a, b, key=lambda chain: (len(chain), chain))


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound: union of facts, best witness chain per fact."""
    if a is BOTTOM or a.facts == frozenset():
        return b
    if b is BOTTOM or b.facts == frozenset():
        return a
    facts = a.facts | b.facts
    origins = tuple(
        sorted(
            (fact, _best_chain(a.chain(fact), b.chain(fact)))
            for fact in facts
        )
    )
    return AbstractValue(facts=facts, origins=origins)


def join_all(values) -> AbstractValue:
    result = BOTTOM
    for value in values:
        result = join(result, value)
    return result


def extend(value: AbstractValue, step: ChainStep) -> AbstractValue:
    """Append *step* to every fact's witness chain (chain-length capped)."""
    if value.is_bottom():
        return value
    origins = []
    for fact, chain in value.origins:
        if len(chain) < MAX_CHAIN_STEPS and (not chain or chain[-1] != step):
            chain = chain + (step,)
        origins.append((fact, chain))
    return AbstractValue(facts=value.facts, origins=tuple(sorted(origins)))


def strip_facts(value: AbstractValue, prefix: str) -> AbstractValue:
    """Remove every fact starting with *prefix* (PARAM marker cleanup)."""
    facts = frozenset(f for f in value.facts if not f.startswith(prefix))
    origins = tuple(
        (fact, chain) for fact, chain in value.origins if fact in facts
    )
    return AbstractValue(facts=facts, origins=origins)


# ----------------------------------------------------------------------
# function summaries


def _param_fact(index: int) -> str:
    return f"PARAM{index}"


@dataclass(frozen=True)
class Summary:
    """What a function does to the facts that flow through it.

    * ``returns`` — facts *generated inside* the function that flow to
      its return value (chains rooted at the generating line).
    * ``return_params`` — parameter indices whose value flows to the
      return (so argument facts propagate through the call).
    """

    returns: AbstractValue = BOTTOM
    return_params: frozenset[int] = frozenset()


EMPTY_SUMMARY = Summary()


@dataclass
class _FnState:
    """Mutable per-analysis state threaded through the interpreter."""

    fn: FunctionInfo
    returns: AbstractValue = BOTTOM


class DataflowEngine:
    """Summary computation + per-function abstract interpretation."""

    def __init__(self, project: Project):
        self.project = project
        self._summaries: dict[FunctionId, Summary] = {}
        self._in_progress: set[FunctionId] = set()
        #: cycle members whose cached summary was computed against a
        #: *partial* summary of another cycle member — evicted when the
        #: cycle root stabilises so they recompute against the final one.
        self._provisional: set[FunctionId] = set()

    # ------------------------------------------------------------------
    # summaries

    def summary(self, fid: FunctionId) -> Summary:
        if fid in self._in_progress:
            # Recursive cycle: the caller iterates us to a fixed point.
            # Everything currently on the stack saw a partial summary —
            # mark it provisional so the caches get re-derived once the
            # cycle root is final.  (Checked *before* the cache: the
            # iteration loop stores partials there for exactly this
            # read, and a partial must not look final.)
            self._provisional.update(self._in_progress)
            return self._summaries.get(fid, EMPTY_SUMMARY)
        cached = self._summaries.get(fid)
        if cached is not None:
            return cached
        fn = self.project.function(fid)
        if fn is None:
            return EMPTY_SUMMARY
        self._in_progress.add(fid)
        try:
            # Iterate from bottom until stable — facts are monotone and
            # chain selection deterministic, so this converges; the cap
            # is a belt over the lattice-height argument.
            current = EMPTY_SUMMARY
            for _ in range(5):
                self._summaries[fid] = current
                computed = self._compute_summary(fn)
                if computed == current:
                    break
                current = computed
            self._summaries[fid] = current
            return current
        finally:
            self._in_progress.discard(fid)
            if not self._in_progress and self._provisional:
                # Cycle root stabilised: evict every other member's
                # provisional cache so the next query recomputes it
                # against the root's final summary (re-entry cannot
                # loop — the root is cached, so no new back edge).
                for member in self._provisional - {fid}:
                    self._summaries.pop(member, None)
                self._provisional.clear()

    def _compute_summary(self, fn: FunctionInfo) -> Summary:
        params = fn.param_names()
        env: dict[str, AbstractValue] = {}
        here = fn.module.path
        for index, name in enumerate(params):
            step = (here, fn.node.lineno, f"parameter '{name}' of {fn.name}()")
            env[name] = value_of(_param_fact(index), step)
        state = _FnState(fn=fn)
        self._exec_block(fn.node.body, env, state)

        return_params = frozenset(
            index
            for index in range(len(params))
            if state.returns.has(_param_fact(index))
        )
        return Summary(
            returns=strip_facts(state.returns, "PARAM"),
            return_params=return_params,
        )

    # ------------------------------------------------------------------
    # public per-function evaluation (used by the rules)

    def eval_in_function(
        self, fn: FunctionInfo, expr: ast.AST
    ) -> AbstractValue:
        """Abstract value of *expr* at its occurrence inside *fn*.

        Runs the interpreter over *fn* with parameters fact-free and
        reads the expression off in the final environment.  Good enough
        for rule queries anchored at specific sites (map calls,
        initializer kwargs): the environment is flow-joined over the
        whole body, which over- rather than under-approximates.
        """
        return self._eval(expr, dict(self.function_env(fn)), _FnState(fn=fn))

    def function_env(self, fn: FunctionInfo) -> dict[str, AbstractValue]:
        """Cached final environment of one full-body run.

        Parameters are fact-free here (the summary path binds PARAM
        markers instead).
        """
        cache = getattr(self, "_env_cache", None)
        if cache is None:
            cache = self._env_cache = {}
        if fn.id not in cache:
            env: dict[str, AbstractValue] = {}
            self._exec_block(fn.node.body, env, _FnState(fn=fn))
            cache[fn.id] = env
        return cache[fn.id]

    # ------------------------------------------------------------------
    # the interpreter

    def _exec_block(
        self,
        stmts,
        env: dict[str, AbstractValue],
        state: _FnState,
    ) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, state)

    def _exec_stmt(self, stmt, env, state) -> None:
        here = state.fn.module.path
        if isinstance(stmt, _FUNCTION_NODES):
            env[stmt.name] = value_of(
                "UNPICKLABLE",
                (here, stmt.lineno,
                 f"nested function '{stmt.name}' defined here (a closure "
                 "cannot cross a process boundary)"),
            )
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env, state)
            for target in stmt.targets:
                self._bind(target, value, env, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(stmt.value, env, state), env, state)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env, state)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = join(
                    env.get(stmt.target.id, BOTTOM), value
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                state.returns = join(
                    state.returns, self._eval(stmt.value, env, state)
                )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env, state)
        elif isinstance(stmt, ast.If):
            before = dict(env)
            self._exec_block(stmt.body, env, state)
            other = dict(before)
            self._exec_block(stmt.orelse, other, state)
            _join_envs(env, other)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env, state)
            self._bind(stmt.target, BOTTOM, env, state)
            # Two passes reach the loop-carried fixed point for this
            # lattice (facts only accumulate).
            for _ in range(2):
                body_env = dict(env)
                self._exec_block(stmt.body, body_env, state)
                _join_envs(env, body_env)
            self._exec_block(stmt.orelse, env, state)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env, state)
            for _ in range(2):
                body_env = dict(env)
                self._exec_block(stmt.body, body_env, state)
                _join_envs(env, body_env)
            self._exec_block(stmt.orelse, env, state)
        elif isinstance(stmt, ast.Try):
            before = dict(env)
            self._exec_block(stmt.body, env, state)
            # Handlers may run from any point in the body: start them
            # from the join of entry and post-body states.
            _join_envs(env, before)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(handler.body, handler_env, state)
                _join_envs(env, handler_env)
            self._exec_block(stmt.orelse, env, state)
            self._exec_block(stmt.finalbody, env, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, env, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, env, state)
            self._exec_block(stmt.body, env, state)
        elif isinstance(stmt, (ast.Delete, ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env, state)
        # Pass/Import/Global/Nonlocal/Break/Continue: no fact effect.

    def _bind(self, target, value, env, state) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value, env, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, env, state)

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, expr, env, state) -> AbstractValue:
        here = state.fn.module.path
        if isinstance(expr, ast.Name):
            return env.get(expr.id, BOTTOM)
        if isinstance(expr, ast.Lambda):
            return value_of(
                "UNPICKLABLE",
                (here, expr.lineno, "lambda defined here (lambdas cannot "
                 "cross a process boundary)"),
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, state)
        if isinstance(expr, ast.Attribute):
            # A bound method / attribute of an unpicklable object
            # carries the taint.
            base = self._eval(expr.value, env, state)
            if not base.has("UNPICKLABLE"):
                return BOTTOM
            return _tainted_part(base)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return join_all(self._eval(e, env, state) for e in expr.elts)
        if isinstance(expr, ast.Dict):
            return join_all(
                self._eval(e, env, state)
                for e in (*expr.keys, *expr.values)
                if e is not None
            )
        if isinstance(expr, (ast.IfExp,)):
            return join(
                self._eval(expr.body, env, state),
                self._eval(expr.orelse, env, state),
            )
        if isinstance(expr, ast.BoolOp):
            return join_all(self._eval(v, env, state) for v in expr.values)
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, env, state)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env, state)
        if isinstance(expr, ast.NamedExpr):
            value = self._eval(expr.value, env, state)
            self._bind(expr.target, value, env, state)
            return value
        if isinstance(expr, ast.Subscript):
            # Indexing a container of unpicklables yields an unpicklable.
            return _tainted_part(self._eval(expr.value, env, state))
        # Constants, comparisons, arithmetic, f-strings, comprehensions:
        # no fact flow we track.
        return BOTTOM

    def _eval_call(self, call: ast.Call, env, state) -> AbstractValue:
        fn = state.fn
        here = fn.module.path
        callee_name = terminal_name(call.func)

        # --- intrinsic fact generators -------------------------------
        if callee_name in ("Lock", "RLock"):
            return value_of(
                "LOCK_HELD", (here, call.lineno, f"{callee_name}() created here")
            )
        if callee_name == "partial":
            # partial(fn, *args): unpicklable fn or args poison the result.
            inner = join_all(
                self._eval(arg, env, state)
                for arg in (*call.args, *(kw.value for kw in call.keywords))
            )
            return extend(
                inner, (here, call.lineno, "wrapped in functools.partial here")
            ) if not inner.is_bottom() else BOTTOM

        # --- project-function calls: instantiate the summary ---------
        targets = self.project.resolve_call(fn.module, call, fn.class_name)
        arg_values = [self._eval(arg, env, state) for arg in call.args]
        for kw in call.keywords:
            self._eval(kw.value, env, state)

        result = BOTTOM
        for target in targets:
            summary = self.summary(target)
            target_fn = self.project.function(target)
            label = target_fn.name if target_fn else str(target)
            if not summary.returns.is_bottom():
                result = join(
                    result,
                    extend(
                        summary.returns,
                        (here, call.lineno, f"returned by {label}() called here"),
                    ),
                )
            for index in summary.return_params:
                if index < len(arg_values) and not arg_values[index].is_bottom():
                    result = join(
                        result,
                        extend(
                            arg_values[index],
                            (here, call.lineno,
                             f"passed through {label}() and returned here"),
                        ),
                    )

        if isinstance(call.func, ast.Attribute) and not targets:
            # Opaque method call: taint still flows receiver->result.
            result = join(
                result, _tainted_part(self._eval(call.func.value, env, state))
            )
        return result


def _tainted_part(base: AbstractValue) -> AbstractValue:
    """The ``UNPICKLABLE`` and PARAM-marker facts of *base*, or bottom."""
    kept = base.facts & {"UNPICKLABLE"}
    kept |= {f for f in base.facts if f.startswith("PARAM")}
    if not kept:
        return BOTTOM
    return AbstractValue(
        facts=frozenset(kept),
        origins=tuple((f, c) for f, c in base.origins if f in kept),
    )


def _join_envs(into: dict[str, AbstractValue], other: dict[str, AbstractValue]) -> None:
    for name, value in other.items():
        into[name] = join(into.get(name, BOTTOM), value)


def render_chain(chain: tuple[ChainStep, ...]) -> str:
    """One-line rendering of a witness chain for finding messages."""
    return " -> ".join(f"{path}:{line} ({note})" for path, line, note in chain)


def chain_lines(chain: tuple[ChainStep, ...]) -> list[str]:
    """Multi-line rendering used by the text reporter."""
    return [f"  via {path}:{line}: {note}" for path, line, note in chain]

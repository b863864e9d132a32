"""The two syntactic repro-lint rules.

Each rule encodes an invariant this codebase already relies on (see
docs/lint.md for the incident history behind every one):

* RPL001 — callables shipped to process pools must be module-level.
* RPL002 — fingerprint/merge/selection paths must not iterate unordered
  containers or call seed-dependent ``hash()``.

Checkers are per-module (:meth:`Checker.check`).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.visitor import (
    COMPREHENSION_NODES,
    ModuleInfo,
    call_keyword,
    enclosing_function,
    parent,
    terminal_name,
)


class Checker:
    """Base class: one rule ID, per-module checks."""

    rule = "RPL000"
    name = "base"
    description = ""
    #: fnmatch patterns limiting which modules the rule applies to
    #: (``None`` means every module).
    scope_patterns: tuple[str, ...] | None = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.scope_patterns is None:
            return True
        return module.matches(self.scope_patterns)

    def check(self, module: ModuleInfo) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


def _is_executor_receiver(expr: ast.AST) -> bool:
    name = terminal_name(expr)
    return name is not None and "executor" in name.lower()


def _describe_callable(expr: ast.AST) -> str:
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.Attribute):
        return f"bound method '{expr.attr}'"
    if isinstance(expr, ast.Name):
        return f"'{expr.id}'"
    return "a non-module-level callable"


class ProcessMapSafetyChecker(Checker):
    """RPL001: work units shipped to executors must pickle by reference.

    Flags lambdas, nested-function names, and bound methods passed as
    the callable to ``<executor>.map(...)`` or as the ``initializer``
    keyword of executor/pool constructors.  ``functools.partial`` over a
    module-level function is accepted (that is the codebase's idiom for
    pre-binding shared arguments, e.g. ``metrics.build_selection_problem``).
    """

    rule = "RPL001"
    name = "process-map-safety"
    description = "callables sent to process pools must be module-level"
    #: constructor names that look like pools but never pickle their
    #: initializer (thread pools run it in-process).
    callee_allowlist = frozenset({"ThreadPoolExecutor"})

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            findings.extend(self._check_map_call(module, node))
            findings.extend(self._check_initializer_kwarg(module, node))
        return findings

    def _check_map_call(self, module: ModuleInfo, call: ast.Call):
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "map"
            and _is_executor_receiver(call.func.value)
        ):
            return
        if call.args:
            yield from self._judge_callable(
                module, call, call.args[0], context="executor.map"
            )

    def _check_initializer_kwarg(self, module: ModuleInfo, call: ast.Call):
        callee = terminal_name(call.func)
        if callee is None or callee in self.callee_allowlist:
            return
        looks_like_pool = (
            "executor" in callee.lower()
            or "pool" in callee.lower()
            or (isinstance(call.func, ast.Attribute) and call.func.attr == "map")
        )
        if not looks_like_pool:
            return
        kw = call_keyword(call, "initializer")
        if kw is not None and kw.value is not None:
            yield from self._judge_callable(
                module, call, kw.value, context=f"initializer of {callee}"
            )

    def _judge_callable(
        self, module: ModuleInfo, call: ast.Call, expr: ast.AST, context: str
    ):
        # functools.partial(fn, ...) is fine iff fn itself is fine.
        if isinstance(expr, ast.Call) and terminal_name(expr.func) == "partial":
            if expr.args:
                yield from self._judge_callable(module, call, expr.args[0], context)
            return
        if isinstance(expr, ast.Lambda):
            yield self.finding(
                module,
                expr,
                f"lambda passed to {context}; process pools pickle work "
                "units by reference — use a module-level function",
            )
            return
        if isinstance(expr, ast.Attribute):
            yield self.finding(
                module,
                expr,
                f"bound method {_describe_callable(expr)} passed to {context}; "
                "bound methods drag their instance through pickle — use a "
                "module-level function taking explicit arguments",
            )
            return
        if isinstance(expr, ast.Name):
            if module.is_module_level_callable(expr.id):
                return
            scope = enclosing_function(call)
            if scope is None:
                return
            if expr.id in module.local_function_defs(scope):
                yield self.finding(
                    module,
                    expr,
                    f"nested function '{expr.id}' passed to {context}; "
                    "closures cannot be pickled — hoist it to module level",
                )
                return
            for value in module.local_bindings(scope).get(expr.id, []):
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        module,
                        expr,
                        f"'{expr.id}' is a lambda passed to {context}; "
                        "use a module-level function",
                    )
                    return
        # Anything else (parameters, attributes of data we can't see)
        # is beyond static reach: stay silent rather than cry wolf.


def _sorted_wraps(node: ast.AST) -> bool:
    """True when the iteration result is immediately canonically ordered."""
    enclosing = parent(node)
    if isinstance(enclosing, ast.Call):
        callee = terminal_name(enclosing.func)
        return callee in {"sorted", "min", "max", "sum", "len", "any", "all"}
    return False


class DeterminismChecker(Checker):
    """RPL002: no unordered iteration / seed-dependent hash() in
    fingerprint, merge, grounding, and selection-planning modules.

    Set/frozenset iteration order depends on the per-process hash seed,
    and, for interned ``Constant``/``LabeledNull`` values (whose hash is
    their identity), on allocation addresses as well, so anything
    derived from it (fingerprints, tie-breaks, merged orderings)
    silently differs across workers and runs.  ``hash()`` of str/bytes
    is seed-dependent and ``hash()`` of an interned value is
    address-dependent for the same reason.  Dict iteration is
    insertion-ordered in Python 3.7+ and is deliberately *not* flagged.

    Directory listings (``iterdir``/``glob``/``os.listdir``/…) are the
    filesystem cousin of the same bug: entries arrive in
    filesystem-dependent order, which varies across hosts, mounts, and
    file creation histories — a deterministic path must iterate in a
    fixed order, never in whatever order the directory happens to
    return.  Listings are exempt when
    immediately wrapped in a canonical ordering (``sorted``) or an
    order-insensitive reduction.
    """

    rule = "RPL002"
    name = "determinism"
    description = "no unordered iteration or hash() in deterministic paths"
    scope_patterns = (
        "*repro/psl/*.py",
        "*repro/selection/*.py",
        "*repro/homomorphism/*.py",
    )
    #: methods known to return unordered containers.
    unordered_attrs = frozenset({"facts_of"})
    #: calls that yield filesystem-ordered directory entries.
    listing_calls = frozenset({"iterdir", "glob", "rglob", "scandir", "listdir"})

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                findings.extend(self._check_iter(module, node, node.iter))
            elif isinstance(node, COMPREHENSION_NODES):
                for gen in node.generators:
                    findings.extend(self._check_iter(module, node, gen.iter))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_hash(module, node))
        return findings

    def _check_hash(self, module: ModuleInfo, call: ast.Call):
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            yield self.finding(
                module,
                call,
                "built-in hash() is salted per process (PYTHONHASHSEED), "
                "and an interned value's hash is its allocation address; "
                "use the canonical JSON fingerprints "
                "(sharding.mrf_fingerprint / structure_fingerprint) instead",
            )

    def _check_iter(self, module: ModuleInfo, node: ast.AST, iter_expr: ast.AST):
        if _sorted_wraps(node):
            return
        listing = self._listing_reason(iter_expr)
        if listing is not None:
            yield self.finding(
                module,
                iter_expr,
                f"iteration over {listing} follows filesystem order, which "
                "varies across hosts and mounts; sort the listing — or "
                "iterate a fixed-order manifest (nothing fingerprinted may "
                "depend on directory order)",
            )
            return
        reason = self._unordered_reason(module, node, iter_expr)
        if reason is None:
            return
        yield self.finding(
            module,
            iter_expr,
            f"iteration over {reason} has an order that follows the hash "
            "seed and, for interned values, allocation addresses; "
            "sort with an explicit key (or iterate an insertion-ordered "
            "view) before anything fingerprinted, merged, or tie-broken",
        )

    def _listing_reason(self, iter_expr: ast.AST) -> str | None:
        if isinstance(iter_expr, ast.Call):
            callee = terminal_name(iter_expr.func)
            if callee in self.listing_calls:
                return f"the directory listing {callee}(...)"
        return None

    def _unordered_reason(
        self, module: ModuleInfo, node: ast.AST, iter_expr: ast.AST
    ) -> str | None:
        if isinstance(iter_expr, ast.Call):
            callee = terminal_name(iter_expr.func)
            if callee in {"set", "frozenset"}:
                return f"{callee}(...)"
            if callee in self.unordered_attrs:
                return f"the unordered result of .{callee}(...)"
            return None
        if isinstance(iter_expr, ast.Name):
            scope = enclosing_function(node) or module.tree
            for value in module.local_bindings(scope).get(iter_expr.id, []):
                if (
                    isinstance(value, ast.Call)
                    and terminal_name(value.func) in {"set", "frozenset"}
                ):
                    return f"'{iter_expr.id}' (assigned from set(...))"
                if isinstance(value, ast.SetComp):
                    return f"'{iter_expr.id}' (a set comprehension)"
        return None


def default_checkers() -> list[Checker]:
    """Fresh checker instances."""
    return [
        ProcessMapSafetyChecker(),
        DeterminismChecker(),
    ]


ALL_RULES = {
    checker.rule: checker.description for checker in default_checkers()
}

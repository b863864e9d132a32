"""Two invariants the collective selection lives by, checked on the AST of
every ``.py`` file under ``src`` and ``benchmarks``.

**RPL001: callables shipped to a process pool are module-level.** A
process pool pickles the callable of every job *by reference*: its module
and qualified name, which the worker re-imports.  A lambda or a nested
function has no importable name, so the job fails to pickle; a bound
method pickles its whole instance (an engine with its scenario cache)
into every job.  ``functools.partial`` over a module-level function
pickles by reference plus its arguments and is fine.  The rule checks the
callable of ``<pool>.map(...)`` and the ``initializer=`` of a pool
constructor.  A receiver is a pool when its name contains "executor", or
when it is a name bound by ``with <callee>(...) as name`` or
``name = <callee>(...)`` where ``<callee>`` contains ``Executor`` or
``Pool``.  ``ThreadPoolExecutor`` is exempt as a callee: a thread pool
runs the callable in-process and never pickles it.  The engine's grid
cells (``EvaluationEngine._execute_jobs``) are the one process work unit.

**RPL002: no hash-order iteration and no ``hash()`` in the fingerprint,
grounding and selection paths** (``repro/psl``, ``repro/selection``,
``repro/homomorphism``).  The same scenario must give the same ``sk``
null numbering, ``problem_fingerprint`` and selected set in every
process.  A ``set`` iterates in hash order.  ``str`` and ``bytes`` hashes
are salted per process (``PYTHONHASHSEED``), and ``Constant`` and
``LabeledNull`` are interned and hash by identity, so a set of values, or
of facts holding them, iterates in allocation-address order: no seed pins
it, and anything allocated earlier shifts it.  ``hash()`` has both
problems.  The rule flags iteration over ``set(...)``/``frozenset(...)``,
over a local assigned from one or from a set comprehension, over
``Instance.facts_of(...)`` (an unordered set) and over a directory
listing (``iterdir``/``glob``/``rglob``/``scandir``/``listdir``, which
follow filesystem order), plus every call of ``hash()``.  Dict iteration
is insertion-ordered and is not flagged.  A loop or comprehension handed
straight to ``sorted``, ``min``, ``max``, ``sum``, ``len``, ``any`` or
``all`` is exempt.

**Suppression.** A site proven order-independent carries a comment-only
``# repro-lint: disable=RULE -- why`` line, which covers the first code
line below its comment block.  A pragma without ``-- why``, in any other
form, or that suppresses nothing fails the test.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from fnmatch import fnmatch
from pathlib import Path
from typing import NamedTuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

RPL002_SCOPE = (
    "*repro/psl/*.py",
    "*repro/selection/*.py",
    "*repro/homomorphism/*.py",
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_ORDER_FREE = {"sorted", "min", "max", "sum", "len", "any", "all"}
_LISTINGS = {"iterdir", "glob", "rglob", "scandir", "listdir"}
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>RPL\d{3}(?:\s*,\s*RPL\d{3})*)"
    r"\s+--\s+\S"
)


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


def _terminal_name(expr: ast.AST) -> str | None:
    """The last identifier: ``a.b.c`` -> "c", ``f()`` -> "f"."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return _terminal_name(expr.func)
    if isinstance(expr, ast.Await):
        return _terminal_name(expr.value)
    return None


def _statements(scope: ast.AST):
    """The statements of *scope*, without descending into nested defs."""
    stack = list(getattr(scope, "body", []))
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, _SCOPES):
            continue
        for name in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, name, None) or [])
        for handler in getattr(stmt, "handlers", None) or []:
            stack.extend(handler.body)


def _bindings(scope: ast.AST) -> dict[str, list[ast.AST]]:
    """Name -> the values assigned to it (or entered as it) in *scope*."""
    bound: dict[str, list[ast.AST]] = {}
    for stmt in _statements(scope):
        pairs = []
        if isinstance(stmt, ast.Assign):
            pairs = [(target, stmt.value) for target in stmt.targets]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs = [(stmt.target, stmt.value)]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            pairs = [(item.optional_vars, item.context_expr) for item in stmt.items]
        for target, value in pairs:
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, []).append(value)
    return bound


def _is_pool_constructor(value: ast.AST) -> bool:
    callee = _terminal_name(value.func) if isinstance(value, ast.Call) else None
    return (
        callee is not None
        and callee != "ThreadPoolExecutor"
        and ("Executor" in callee or "Pool" in callee)
    )


class _Module:
    def __init__(self, path: str, source: str):
        self.path = path
        self.tree = ast.parse(source)
        self.parents = {
            child: node
            for node in ast.walk(self.tree)
            for child in ast.iter_child_nodes(node)
        }
        self.module_level = {
            stmt.name for stmt in self.tree.body if isinstance(stmt, _FUNCTIONS)
        }
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                self.module_level |= {
                    a.asname or a.name.split(".")[0] for a in node.names
                }
            elif isinstance(node, ast.ImportFrom):
                self.module_level |= {a.asname or a.name for a in node.names}

    def function_of(self, node: ast.AST):
        node = self.parents.get(node)
        while node is not None and not isinstance(node, _FUNCTIONS):
            node = self.parents.get(node)
        return node

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(self.path, node.lineno, rule, message)


def _judge_callable(module: _Module, call: ast.Call, expr: ast.AST, where: str):
    """RPL001 findings for *expr*, the callable handed to *where*."""
    if isinstance(expr, ast.Call) and _terminal_name(expr.func) == "partial":
        if expr.args:
            yield from _judge_callable(module, call, expr.args[0], where)
        return
    if isinstance(expr, ast.Lambda):
        yield module.finding(expr, "RPL001", f"lambda passed to {where}")
        return
    if isinstance(expr, ast.Attribute):
        yield module.finding(
            expr, "RPL001", f"bound method '{expr.attr}' passed to {where}"
        )
        return
    if not isinstance(expr, ast.Name) or expr.id in module.module_level:
        return
    scope = module.function_of(call)
    if scope is None:
        return
    if any(isinstance(s, _FUNCTIONS) and s.name == expr.id for s in scope.body):
        yield module.finding(
            expr, "RPL001", f"nested function '{expr.id}' passed to {where}"
        )
        return
    if any(isinstance(v, ast.Lambda) for v in _bindings(scope).get(expr.id, [])):
        yield module.finding(
            expr, "RPL001", f"'{expr.id}' is a lambda passed to {where}"
        )
    # Parameters and attributes of data are beyond static reach.


def _is_pool_receiver(module: _Module, call: ast.Call) -> bool:
    receiver = call.func.value
    name = _terminal_name(receiver)
    if name is not None and "executor" in name.lower():
        return True
    if not isinstance(receiver, ast.Name):
        return False
    scope = module.function_of(call) or module.tree
    return any(
        _is_pool_constructor(value)
        for value in _bindings(scope).get(receiver.id, [])
    )


def process_pool_findings(module: _Module):
    """RPL001 over one module."""
    for call in ast.walk(module.tree):
        if not isinstance(call, ast.Call):
            continue
        is_map = isinstance(call.func, ast.Attribute) and call.func.attr == "map"
        if is_map and call.args and _is_pool_receiver(module, call):
            yield from _judge_callable(module, call, call.args[0], "pool.map")
        callee = _terminal_name(call.func)
        if callee is None or callee == "ThreadPoolExecutor":
            continue
        if is_map or "executor" in callee.lower() or "pool" in callee.lower():
            for kw in call.keywords:
                if kw.arg == "initializer":
                    yield from _judge_callable(
                        module, call, kw.value, f"initializer of {callee}"
                    )


def _unordered_reason(module: _Module, node: ast.AST, expr: ast.AST) -> str | None:
    if isinstance(expr, ast.Call):
        callee = _terminal_name(expr.func)
        if callee in _LISTINGS:
            return f"the directory listing {callee}(...) follows filesystem order"
        if callee in {"set", "frozenset", "facts_of"}:
            return f"{callee}(...) follows hash order and allocation addresses"
        return None
    if isinstance(expr, ast.Name):
        scope = module.function_of(node) or module.tree
        for value in _bindings(scope).get(expr.id, []):
            if isinstance(value, ast.SetComp) or (
                isinstance(value, ast.Call)
                and _terminal_name(value.func) in {"set", "frozenset"}
            ):
                return (
                    f"set '{expr.id}' follows hash order and allocation addresses"
                )
    return None


def determinism_findings(module: _Module):
    """RPL002 over one module (the caller checks the scope)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "hash":
                yield module.finding(
                    node,
                    "RPL002",
                    "hash() is salted per process (PYTHONHASHSEED) and is an "
                    "allocation address for interned values",
                )
            continue
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, _COMPREHENSIONS):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        enclosing = module.parents.get(node)
        if isinstance(enclosing, ast.Call) and (
            _terminal_name(enclosing.func) in _ORDER_FREE
        ):
            continue
        for expr in iters:
            reason = _unordered_reason(module, node, expr)
            if reason is not None:
                yield module.finding(expr, "RPL002", f"iteration over {reason}")


def find_violations(path: str, source: str) -> list[Finding]:
    """Every RPL001 and RPL002 finding in one file, before suppression."""
    module = _Module(path, source)
    found = list(process_pool_findings(module))
    if any(fnmatch(path, pattern) for pattern in RPL002_SCOPE):
        found.extend(determinism_findings(module))
    return found


def check_source(path: str, source: str) -> tuple[list[Finding], list[str]]:
    """(unsuppressed findings, pragma problems) of one file."""
    lines = source.splitlines()
    pragmas = []  # (pragma line, covered line, rules)
    problems = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT or "repro-lint" not in tok.string:
            continue
        line = tok.start[0]
        match = _PRAGMA.match(tok.string)
        if match is None or tok.line[: tok.start[1]].strip():
            problems.append(
                f"{path}:{line}: a pragma is a comment-only line "
                "'# repro-lint: disable=RULE -- why'"
            )
            continue
        below = line  # 0-based index of the line below the pragma
        while below < len(lines) and lines[below].strip().startswith("#"):
            below += 1
        rules = {rule.strip() for rule in match.group("rules").split(",")}
        pragmas.append((line, below + 1, rules))
    kept, used = [], set()
    for finding in find_violations(path, source):
        hits = {
            (line, finding.rule)
            for line, covered, rules in pragmas
            if covered == finding.line and finding.rule in rules
        }
        used |= hits
        if not hits:
            kept.append(finding)
    problems += [
        f"{path}:{line}: disable={rule} suppresses nothing"
        for line, _, rules in pragmas
        for rule in sorted(rules)
        if (line, rule) not in used
    ]
    return kept, problems


def test_src_and_benchmarks_hold_both_invariants():
    findings, problems = [], []
    for top in ("src", "benchmarks"):
        for file in sorted((REPO_ROOT / top).rglob("*.py")):
            path = file.relative_to(REPO_ROOT).as_posix()
            kept, bad = check_source(path, file.read_text(encoding="utf-8"))
            findings += kept
            problems += bad
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
    )
    assert problems == [], "\n".join(problems)


# id -> (module path, source, expected [(line, rule, word in the message)])
FIXTURES = {
    "lambda_to_executor_map": ("repro/selection/work.py", """
def run(executor, items):
    return executor.map(lambda x: x + 1, items)
""", [(2, "RPL001", "lambda")]),
    "bound_method_to_executor_map": ("repro/selection/work.py", """
class Driver:
    def run(self, executor, items):
        return executor.map(self._work, items)
""", [(3, "RPL001", "bound method")]),
    "nested_function": ("repro/selection/work.py", """
def run(executor, items):
    def work(x):
        return x + 1
    return executor.map(work, items)
""", [(4, "RPL001", "nested function")]),
    "lambda_initializer_on_process_pool": ("repro/psl/pool.py", """
from repro.executors import ProcessExecutor

def build(db):
    return ProcessExecutor(initializer=lambda: db)
""", [(4, "RPL001", "initializer of ProcessExecutor")]),
    "module_level_function_and_partial": ("repro/selection/work.py", """
from functools import partial

def work(state, x):
    return x + 1

def run(executor, items, state):
    executor.map(work, items)
    return executor.map(partial(work, state), items)
""", []),
    "thread_pool_initializer": ("repro/pool.py", """
from concurrent.futures import ThreadPoolExecutor

class Runner:
    def start(self):
        self._pool = ThreadPoolExecutor(
            max_workers=2, initializer=self._register
        )
""", []),
    "lambda_to_pool_bound_by_with": ("repro/evaluation/engine.py", """
from concurrent.futures import ProcessPoolExecutor

def execute(jobs):
    with ProcessPoolExecutor(2) as pool:
        return list(pool.map(lambda j: j, jobs))
""", [(5, "RPL001", "lambda")]),
    "work_unit_to_pool_bound_by_with": ("repro/evaluation/engine.py", """
from concurrent.futures import ProcessPoolExecutor

def _run_work_unit(job):
    return job

def execute(jobs):
    with ProcessPoolExecutor(2) as pool:
        return list(pool.map(_run_work_unit, jobs))
""", []),
    "bound_method_to_assigned_pool": ("repro/evaluation/fake.py", """
import multiprocessing

def execute(self, jobs):
    workers = multiprocessing.Pool(2)
    return workers.map(self.run, jobs)
""", [(5, "RPL001", "bound method")]),
    "thread_pool_bound_by_with": ("repro/evaluation/fake.py", """
from concurrent.futures import ThreadPoolExecutor

def execute(jobs):
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(lambda j: j, jobs))
""", []),
    "set_iteration_in_scope_module": ("repro/psl/fake.py", """
def fingerprint(items):
    out = []
    for x in set(items):
        out.append(x)
    return out
""", [(3, "RPL002", "hash order")]),
    "facts_of_iteration": ("repro/homomorphism/fake.py", """
def images(instance, relation):
    return [f for f in instance.facts_of(relation)]
""", [(2, "RPL002", "allocation addresses")]),
    "set_comprehension_local": ("repro/selection/fake.py", """
def walk(facts):
    seen = {f.relation for f in facts}
    return [r for r in seen]
""", [(3, "RPL002", "hash order")]),
    "hash_builtin": ("repro/psl/fake.py", """
def key(name):
    return hash(name)
""", [(2, "RPL002", "PYTHONHASHSEED")]),
    "directory_listing_iteration": ("repro/psl/fake_store.py", """
def read_arrays(root):
    out = {}
    for path in root.iterdir():
        out[path.name] = path.read_bytes()
    return out
""", [(3, "RPL002", "filesystem order")]),
    "os_listdir_comprehension": ("repro/psl/fake_store.py", """
import os

def entry_names(root):
    return [name for name in os.listdir(root)]
""", [(4, "RPL002", "filesystem order")]),
    "glob_iteration": ("repro/psl/fake_store.py", """
def payloads(entry):
    for path in entry.glob("*.npy"):
        yield path
""", [(2, "RPL002", "filesystem order")]),
    "sorted_wrapped_set": ("repro/psl/fake.py", """
def fingerprint(items):
    return [x for x in sorted(set(items))]
""", []),
    # An attribute is never flagged: plan.targets is an ordered tuple.
    "ordered_plan_targets_tuple": ("repro/selection/fake.py", """
def walk(plan):
    for atom in plan.targets:
        yield atom
""", []),
    "sorted_listing": ("repro/psl/fake_store.py", """
import os

def keys(root):
    ordered = [n for n in sorted(os.listdir(root))]
    for child in sorted(root.iterdir()):
        ordered.append(child.name)
    return ordered
""", []),
    "listing_reduction": ("repro/psl/fake_store.py", """
def entry_bytes(entry):
    return sum(p.stat().st_size for p in entry.iterdir())
""", []),
    "out_of_scope_module": ("repro/evaluation/fake.py", """
def dedup(items):
    for x in set(items):
        yield x
""", []),
}


@pytest.mark.parametrize(
    "path, source, expected", list(FIXTURES.values()), ids=list(FIXTURES)
)
def test_rule_fixture(path, source, expected):
    kept, problems = check_source(path, source.lstrip("\n"))
    assert problems == []
    assert [(f.line, f.rule) for f in kept] == [(l, r) for l, r, _ in expected]
    for finding, (_, _, word) in zip(kept, expected):
        assert word in finding.message


LOOP = "for x in set(items):\n    pass\n"

# id -> (source, lines of the findings kept, number of pragma problems)
PRAGMAS = {
    "comment_only_shields_next_code_line": (
        "# repro-lint: disable=RPL002 -- why\n" + LOOP + LOOP,
        [4],
        0,
    ),
    "comment_block_skips_to_first_code_line": (
        "# repro-lint: disable=RPL002 -- a long\n"
        "# justification over two lines.\n" + LOOP + LOOP,
        [5],
        0,
    ),
    "without_why_fails": ("# repro-lint: disable=RPL002\n" + LOOP, [2], 1),
    "trailing_fails": (
        "for x in set(items):  # repro-lint: disable=RPL002 -- why\n    pass\n",
        [1],
        1,
    ),
    "suppressing_nothing_fails": (
        "# repro-lint: disable=RPL001,RPL002 -- why\n" + LOOP, [], 1
    ),
    "unrelated_comment_does_not_suppress": ("# just a note\n" + LOOP, [2], 0),
}


@pytest.mark.parametrize(
    "source, kept_lines, num_problems", list(PRAGMAS.values()), ids=list(PRAGMAS)
)
def test_pragma(source, kept_lines, num_problems):
    kept, problems = check_source("repro/psl/x.py", source)
    assert [f.line for f in kept] == kept_lines
    assert len(problems) == num_problems

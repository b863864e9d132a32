"""Dataflow engine: lattice laws, summaries, fixed-point termination.

The lattice tests are property-style: instead of a handful of
hand-picked cases they enumerate a generated space of abstract values
(every fact subset x several witness chains) and assert the semilattice
laws over all pairs/triples.  ``join`` being a true join — commutative,
idempotent, associative, monotone — is what makes every fixed-point
loop in the engine terminate, so these laws are load-bearing, not
decorative.
"""

from __future__ import annotations

import itertools

from repro.analysis.callgraph import FunctionId, Project
from repro.analysis.dataflow import (
    BOTTOM,
    FACTS,
    MAX_CHAIN_STEPS,
    AbstractValue,
    DataflowEngine,
    extend,
    join,
    join_all,
    value_of,
)
from repro.analysis.visitor import ModuleInfo


def engine_of(sources: dict[str, str]) -> tuple[Project, DataflowEngine]:
    project = Project.from_modules(
        [ModuleInfo.from_source(p, s) for p, s in sources.items()]
    )
    return project, DataflowEngine(project)


def generated_values() -> list[AbstractValue]:
    """A small but structured slice of the value space.

    Every subset of the facts, each fact witnessed by one of three
    distinct chains (different lengths and orderings), so chain
    selection inside ``join`` is genuinely exercised.
    """
    chains = [
        (("a.py", 1, "born"),),
        (("b.py", 2, "born"), ("b.py", 5, "passed")),
        (("a.py", 9, "born"),),
    ]
    values = [BOTTOM]
    for r in range(1, len(FACTS) + 1):
        for facts in itertools.combinations(FACTS, r):
            for idx, chain in enumerate(chains):
                origins = tuple(
                    sorted((fact, chains[(idx + k) % len(chains)])
                           for k, fact in enumerate(facts))
                )
                values.append(
                    AbstractValue(facts=frozenset(facts), origins=origins)
                )
    return values


VALUES = generated_values()


class TestLatticeLaws:
    def test_join_commutative(self):
        for a, b in itertools.product(VALUES, repeat=2):
            assert join(a, b) == join(b, a)

    def test_join_idempotent(self):
        for a in VALUES:
            assert join(a, a) == a

    def test_join_associative_on_facts(self):
        # Fact sets are strictly associative; witness chains are
        # deterministic picks, so full structural associativity holds
        # too with the shortest-then-lexicographic tiebreak.
        for a, b, c in itertools.islice(
            itertools.product(VALUES, repeat=3), 0, None, 7
        ):
            left = join(join(a, b), c)
            right = join(a, join(b, c))
            assert left.facts == right.facts
            assert left == right

    def test_bottom_is_identity(self):
        for a in VALUES:
            assert join(a, BOTTOM) == a
            assert join(BOTTOM, a) == a

    def test_join_is_upper_bound(self):
        for a, b in itertools.product(VALUES, repeat=2):
            merged = join(a, b)
            assert a.facts <= merged.facts
            assert b.facts <= merged.facts

    def test_join_all_matches_pairwise_fold(self):
        sample = VALUES[:12]
        folded = BOTTOM
        for value in sample:
            folded = join(folded, value)
        assert join_all(sample) == folded

    def test_extend_caps_chain_length(self):
        value = value_of("UNPICKLABLE", ("a.py", 1, "born"))
        for i in range(MAX_CHAIN_STEPS * 3):
            value = extend(value, ("a.py", i + 2, f"hop {i}"))
        assert len(value.chain("UNPICKLABLE")) <= MAX_CHAIN_STEPS

    def test_extend_is_noop_on_bottom(self):
        assert extend(BOTTOM, ("a.py", 1, "hop")) is BOTTOM


class TestSummaries:
    def test_identity_function_returns_its_param(self):
        _, engine = engine_of(
            {"src/repro/m.py": "def ident(x):\n    return x\n"}
        )
        summary = engine.summary(FunctionId("repro.m", "ident"))
        assert summary.return_params == frozenset({0})
        assert summary.returns.is_bottom()

    def test_unpicklable_flows_through_chain(self):
        _, engine = engine_of(
            {
                "src/repro/m.py": (
                    "def make():\n"
                    "    return lambda x: x\n"
                    "def wrap():\n"
                    "    return make()\n"
                )
            }
        )
        summary = engine.summary(FunctionId("repro.m", "wrap"))
        assert summary.returns.has("UNPICKLABLE")
        # The chain names both the birth site and the call hop.
        notes = [note for _, _, note in summary.returns.chain("UNPICKLABLE")]
        assert any("lambda" in n for n in notes)
        assert any("make()" in n for n in notes)


class TestFixedPointTermination:
    def test_direct_recursion_terminates(self):
        _, engine = engine_of(
            {
                "src/repro/m.py": (
                    "def f(x):\n"
                    "    if x:\n"
                    "        return f(x - 1)\n"
                    "    return lambda: x\n"
                )
            }
        )
        summary = engine.summary(FunctionId("repro.m", "f"))
        assert summary.returns.has("UNPICKLABLE")

    def test_mutual_recursion_across_modules_terminates(self):
        _, engine = engine_of(
            {
                "src/repro/a.py": (
                    "from repro.b import g\n"
                    "def f(n):\n"
                    "    if n:\n        return g(n - 1)\n"
                    "    return lambda: n\n"
                ),
                "src/repro/b.py": (
                    "from repro.a import f\n"
                    "def g(n):\n"
                    "    return f(n)\n"
                ),
            }
        )
        fa = engine.summary(FunctionId("repro.a", "f"))
        gb = engine.summary(FunctionId("repro.b", "g"))
        assert fa.returns.has("UNPICKLABLE")
        assert gb.returns.has("UNPICKLABLE")

    def test_three_cycle_converges_to_same_summary(self):
        sources = {
            "src/repro/c.py": (
                "def a(n):\n    return b(n)\n"
                "def b(n):\n    return c(n)\n"
                "def c(n):\n"
                "    if n:\n        return a(n - 1)\n"
                "    return lambda: n\n"
            )
        }
        # Whichever entry point is summarised first, the cycle must
        # converge to the same facts (order independence = fixed point).
        for entry in ("a", "b", "c"):
            _, engine = engine_of(sources)
            summary = engine.summary(FunctionId("repro.c", entry))
            assert summary.returns.has("UNPICKLABLE"), entry

"""Regression tests for the real violations repro-lint surfaced.

Each test pins the deterministic behaviour restored by a fix:

* ``CoverComputer`` deduped nulls with ``set()`` — now first-appearance
  order via ``dict.fromkeys``.
* ``solve_greedy`` scanned a ``set`` in its argmin, so objective ties
  broke by hash order — now lowest candidate index wins.
"""

from __future__ import annotations

from repro.chase.engine import chase_single
from repro.datamodel.instance import Instance, fact
from repro.examples_data import paper_example
from repro.homomorphism.covers import CoverComputer
from repro.mappings.parser import parse_tgds
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import build_selection_problem


def test_cover_computer_null_index_keeps_chase_order():
    ex = paper_example()
    k3 = chase_single(ex.source, ex.theta3)
    computer = CoverComputer(k3, ex.target)
    # The null-to-facts index must list nulls in first-appearance order
    # over the chase, not set order.
    appearance = []
    for f in k3:
        for n in dict.fromkeys(f.nulls):
            if n not in appearance:
                appearance.append(n)
    assert list(computer._facts_with_null) == appearance


def test_greedy_breaks_objective_ties_toward_lowest_index():
    # Two identical candidates: every delta ties; the pick must be the
    # lower index, not whichever a set yields first.
    source = Instance([fact("r", i) for i in range(3)])
    target = Instance([fact("u", i) for i in range(3)])
    candidates = parse_tgds("r(X) -> u(X)\nr(X) -> u(X)")
    problem = build_selection_problem(source, target, candidates)
    result = solve_greedy(problem, backward_pass=False)
    assert result.selected == frozenset({0})

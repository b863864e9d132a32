"""Mutation chains replay edits with the exact from-scratch semantics.

The equivalence contract of :mod:`repro.ibench.mutations`: after any
sequence of primitive-level edits, the incrementally maintained
:class:`SelectionProblem` fingerprints identically to
:func:`build_selection_problem` run fresh on the mutated data — chase
reuse, retabling only the candidates that reach an edited target fact,
candidate-local null labels, the merge shift and the relabelled chases
and instances shared across revisions are all invisible.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Fact
from repro.datamodel.values import Constant
from repro.errors import SelectionError
from repro.examples_data import paper_example
from repro.homomorphism.search import fact_matches
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import (
    AddSourceTuple,
    AddTargetTuple,
    FlipCandidate,
    MutableSelection,
    RemoveSourceTuple,
    RemoveTargetTuple,
    mutation_chain,
)
from repro.selection.metrics import build_selection_problem, problem_fingerprint


@pytest.fixture
def example():
    return paper_example(extra_projects=3)


def _chain(example) -> MutableSelection:
    return MutableSelection(example.source, example.target, example.candidates)


def _assert_matches_scratch(chain: MutableSelection) -> None:
    scratch = build_selection_problem(chain.source, chain.target, chain.candidates)
    assert problem_fingerprint(chain.problem) == problem_fingerprint(scratch)


def test_base_problem_matches_scratch(example):
    chain = _chain(example)
    _assert_matches_scratch(chain)
    assert chain.problem.lineage is not None
    assert chain.problem.lineage.parent is None
    assert chain.rechased_candidates == 0


def test_target_edits_match_scratch_without_rechasing(example):
    chain = _chain(example)
    fact = sorted(chain.target, key=repr)[-1]
    chain.apply(RemoveTargetTuple(fact))
    _assert_matches_scratch(chain)
    chain.apply(AddTargetTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0  # target edits reuse every chase


def test_source_edits_rechase_only_touching_candidates():
    # Distinct primitives read distinct source relations, so one edit
    # touches only its own primitive's candidates.
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    fact = next(iter(chain.source))
    touching = sum(
        1
        for i in range(len(chain.candidates))
        if fact.relation in chain._body_relations(i)
    )
    assert 0 < touching < len(chain.candidates)
    chain.apply(RemoveSourceTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == touching
    chain.apply(AddSourceTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 2 * touching


def test_source_edit_to_foreign_relation_rechases_nothing(example):
    chain = _chain(example)
    chain.apply(AddSourceTuple(Fact("unrelated_relation", ("v1", "v2"))))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 0


def test_flip_candidate_matches_scratch(example):
    chain = _chain(example)
    # Swap the first two candidates' tgds — each flip re-chases one slot.
    flipped = chain.candidates[1]
    chain.apply(FlipCandidate(0, flipped))
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == 1


def test_mixed_chain_matches_scratch(example):
    chain = _chain(example)
    t_fact = sorted(chain.target, key=repr)[-1]
    s_fact = next(iter(chain.source))
    for edit in (
        RemoveTargetTuple(t_fact),
        RemoveSourceTuple(s_fact),
        AddTargetTuple(t_fact),
        AddSourceTuple(s_fact),
        FlipCandidate(0, chain.candidates[1]),
    ):
        chain.apply(edit)
        _assert_matches_scratch(chain)


def test_generated_scenario_chain_matches_scratch():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    for fact in sorted(chain.target, key=repr)[-3:]:
        chain.apply(RemoveTargetTuple(fact))
        _assert_matches_scratch(chain)
        chain.apply(AddTargetTuple(fact))
        _assert_matches_scratch(chain)


def test_invalid_edits_raise(example):
    chain = _chain(example)
    present_target = next(iter(chain.target))
    present_source = next(iter(chain.source))
    missing = Fact("nowhere", ("x",))
    with pytest.raises(SelectionError):
        chain.apply(AddTargetTuple(present_target))
    with pytest.raises(SelectionError):
        chain.apply(RemoveTargetTuple(missing))
    with pytest.raises(SelectionError):
        chain.apply(AddSourceTuple(present_source))
    with pytest.raises(SelectionError):
        chain.apply(RemoveSourceTuple(missing))
    with pytest.raises(SelectionError):
        chain.apply(FlipCandidate(len(chain.candidates), chain.candidates[0]))
    candidates = list(chain.candidates)
    with pytest.raises(SelectionError):
        chain.apply(FlipCandidate(0, "s(X) -> t(X)"))
    assert chain.candidates == candidates
    # Failed edits must not have changed the problem.
    _assert_matches_scratch(chain)
    assert chain.rechased_candidates == chain.retabled_candidates == 0
    # ... nor broken the next valid edit.
    chain.apply(RemoveTargetTuple(present_target))
    _assert_matches_scratch(chain)


def test_mutation_chain_yields_lineage_linked_revisions(example):
    fact = sorted(example.target, key=repr)[-1]
    revisions = list(
        mutation_chain(
            example.source,
            example.target,
            example.candidates,
            [RemoveTargetTuple(fact), AddTargetTuple(fact)],
        )
    )
    assert len(revisions) == 3
    assert revisions[0][0] is None
    assert revisions[0][1].lineage.parent is None
    for (_, parent), (edit, child) in zip(revisions, revisions[1:]):
        assert edit is not None
        assert child.lineage.parent == parent.lineage.token


def _reaching(chain: MutableSelection, fact: Fact) -> set[int]:
    """Candidates with a chase fact that maps onto *fact*, by brute force."""
    return {
        i
        for i, chase_instance in enumerate(chain.problem.chase_by_candidate)
        if any(fact_matches(f, fact) is not None for f in chase_instance)
    }


def test_target_edit_retables_exactly_the_reaching_candidates():
    scenario = generate_scenario(
        ScenarioConfig(num_primitives=4, rows_per_relation=6, pi_errors=50, seed=5)
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    for fact in sorted(chain.target, key=repr)[:: len(chain.target) // 4]:
        for edit in (RemoveTargetTuple(fact), AddTargetTuple(fact)):
            reaching = _reaching(chain, fact)
            assert reaching  # every generated J fact is some candidate's image
            before = list(chain._tables)
            retabled = chain.retabled_candidates
            chain.apply(edit)
            _assert_matches_scratch(chain)
            assert chain.retabled_candidates - retabled == len(reaching)
            for i, table in enumerate(chain._tables):
                assert (table is before[i]) == (i not in reaching)
    assert chain.rechased_candidates == 0


def test_target_fact_no_candidate_produces_retables_nothing(example):
    chain = _chain(example)
    fact = Fact("unrelated_relation", (Constant("v1"),))
    chain.apply(AddTargetTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.problem.j_facts[-1] == fact
    chain.apply(RemoveTargetTuple(fact))
    _assert_matches_scratch(chain)
    assert chain.retabled_candidates == chain.rechased_candidates == 0


def test_edit_chain_base_target_edits_retable_at_most_two_candidates():
    # The perfbench edit-chain base: p=24, seed 3, 45 candidates.
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=24, rows_per_relation=20, pi_corresp=25, pi_errors=25,
            pi_unexplained=25, seed=3,
        )
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    assert len(chain.candidates) == 45
    assert max(len(_reaching(chain, t)) for t in chain.target) == 2
    fact = sorted(chain.target, key=repr)[-1]
    chain.apply(RemoveTargetTuple(fact))
    chain.apply(AddTargetTuple(fact))
    assert chain.retabled_candidates == 2 * len(_reaching(chain, fact)) <= 4
    _assert_matches_scratch(chain)


def test_revisions_share_the_instance_they_do_not_edit(example):
    chain = _chain(example)
    base = chain.problem
    assert base.source is chain.source and base.target is chain.target
    target_fact = sorted(chain.target, key=repr)[-1]
    after_target = chain.apply(RemoveTargetTuple(target_fact))
    assert after_target.source is base.source
    assert after_target.target is not base.target
    assert target_fact in base.target
    after_source = chain.apply(RemoveSourceTuple(next(iter(chain.source))))
    assert after_source.target is after_target.target
    assert after_source.source is not base.source
    assert len(after_source.source) == len(base.source) - 1


def _snapshot(problem) -> tuple:
    return (
        problem_fingerprint(problem),
        sorted(repr(f) for f in problem.source),
        sorted(repr(f) for f in problem.target),
    )


def _draw_new_fact(data, instance, label: str):
    """A fact not in *instance*: a value of one of its facts swapped, or a foreign fact."""
    facts = sorted(instance, key=repr)
    if not facts or data.draw(st.booleans(), label=f"foreign {label}"):
        return Fact("elsewhere", (Constant(data.draw(st.integers(0, 2))),))
    f = data.draw(st.sampled_from(facts), label=f"{label} to vary")
    position = data.draw(st.integers(0, f.arity - 1))
    values = sorted(
        {g.values[position] for g in facts if g.relation == f.relation} | {Constant("new")},
        key=repr,
    )
    varied = list(f.values)
    varied[position] = data.draw(st.sampled_from(values))
    return Fact(f.relation, tuple(varied))


EDIT_KINDS = ["add_target", "remove_target", "add_source", "remove_source", "flip"]


@given(
    num_primitives=st.integers(1, 4),
    rows=st.integers(1, 8),
    pi_errors=st.sampled_from([0, 50]),
    seed=st.integers(0, 40),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_random_edit_chains_match_scratch_and_keep_earlier_revisions(
    num_primitives, rows, pi_errors, seed, data
):
    scenario = generate_scenario(
        ScenarioConfig(
            num_primitives=num_primitives,
            rows_per_relation=rows,
            pi_corresp=50,
            pi_errors=pi_errors,
            seed=seed,
        )
    )
    chain = MutableSelection(scenario.source, scenario.target, scenario.candidates)
    revisions = [(chain.problem, _snapshot(chain.problem))]
    removed = {"target": [], "source": []}
    for step in range(data.draw(st.integers(1, 8), label="steps")):
        kind = data.draw(st.sampled_from(EDIT_KINDS), label=f"edit {step}")
        side = kind.rpartition("_")[2]
        instance = chain.target if side == "target" else chain.source
        if kind == "flip":
            edit = FlipCandidate(
                data.draw(st.integers(0, len(chain.candidates) - 1)),
                data.draw(st.sampled_from(scenario.candidates)),
            )
        elif kind.startswith("remove"):
            if not len(instance):
                continue
            fact = data.draw(st.sampled_from(sorted(instance, key=repr)))
            removed[side].append(fact)
            edit = (RemoveTargetTuple if side == "target" else RemoveSourceTuple)(fact)
        else:
            back = [f for f in removed[side] if f not in instance]
            if back and data.draw(st.booleans(), label="re-add"):
                fact = data.draw(st.sampled_from(back))
            else:
                fact = _draw_new_fact(data, instance, side)
                if fact in instance:
                    continue
            edit = (AddTargetTuple if side == "target" else AddSourceTuple)(fact)
        problem = chain.apply(edit)
        _assert_matches_scratch(chain)
        for earlier, snapshot in revisions:
            assert _snapshot(earlier) == snapshot
        revisions.append((problem, _snapshot(problem)))

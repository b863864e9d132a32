"""Pinned bytes of the collective HL-MRF and its solver arrays.

The block and term-by-term grounding paths are compared with each other
elsewhere; these tests tie both to fixed bytes.  For three models — the
paper's example with five extra projects, the p=24 problem perfbench's
two p=24 workloads start from, and that problem after one target-tuple
removal served by the patch tier — the sha256 of every solver-array
field and of both MRF fingerprints must equal the values pinned below.
A change of grounding order, term layout, float arithmetic or
fingerprint encoding moves a hash.

Plus the readout's premise: the plan pins the ``inMap`` atoms as
variables ``0..n-1`` in candidate order, on a fresh ground and on every
patched revision of an edit chain, so a solve reads the memberships as
``x[:num_candidates]``.
"""

import hashlib

import numpy as np
import pytest

from repro.examples_data import paper_example
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import (
    AddSourceTuple,
    AddTargetTuple,
    MutableSelection,
    RemoveSourceTuple,
    RemoveTargetTuple,
)
from repro.psl.admm import AdmmSolver
from repro.psl.predicate import GroundAtom
from repro.psl.sharding import mrf_fingerprint, structure_fingerprint
from repro.selection.collective import (
    IN_PREDICATE,
    CollectiveGroundingCache,
    GroundedCollective,
)
from repro.selection.metrics import build_selection_problem

#: perfbench's ``BASE_CONFIG``: the base of ``weight-sweep-p24`` and
#: ``edit-chain-p24``.
P24 = ScenarioConfig(
    num_primitives=24, rows_per_relation=20,
    pi_corresp=25, pi_errors=25, pi_unexplained=25, seed=3,
)

ARRAY_FIELDS = ("var", "coeff", "offset", "weight", "term_ptr", "normsq", "degree")

PINS = {
    "paper-example-5": {
        "var": "52500e709668dd5fe04cddff1df4f12e7ddf604908933eda6b991476c7d0172d",
        "coeff": "4a73cff882ff9cc07d8fcc172f63ee695d3e2eead3d4b18324e469f66045c5a7",
        "offset": "92631f1cbba779fc9f2421f06ddcce2a4b4ca5136b1a15ff8bbce4ba06bea592",
        "weight": "c426a90ca8733b94c68609db794d61562998f15d2b81c7ad17cadcef173cd536",
        "term_ptr": "b68103820959f4692b13082fb971fceb2d2bbdcd28eb1b5e459e2e160e955f3c",
        "normsq": "e780701f86e6057d95d9ea6748bcca674ef0cfdae75c1716d70608c0676132a8",
        "degree": "12bfc55d200f0654d95c1b5c358ae3763816632dd057592707959d11d28042cd",
        "mrf_fingerprint": "dd3782185fb0e1a415ae6b6b2f376635161acad4d70743ada87f860a03e1e531",
        "structure_fingerprint": "7906371eb90f7e22c465b657acca0320aa34e57908fd0fd0baa6f0e714e3d1af",
    },
    "p24": {
        "var": "ebd91d33e9b68ad2d7d039982d5bda5e5073da227527bab4f0f422f4e60829af",
        "coeff": "f437d3362e4e045f0209c8e557e15cebc3ba4ae3c1a56783a8c42f32e74604f6",
        "offset": "e840173bac22f564362d2c0e84df23b5e4d63c05138d91556e8668084959cff6",
        "weight": "6711b05fa9bfc8e2f46325bd10079fae8122835ae394900193478b286b1cb235",
        "term_ptr": "8ef3985989e158d2c45b394d230dfe8c9a261138d180e492e189b4962f527af3",
        "normsq": "f9c13439383669f8dcb0ec4e3d14afeb2999b0a793eee3566e807ca59b2fa2e6",
        "degree": "d7eb398bc134daf1cc65fb3435bf37570b302ccf5926070a94b330c8305b257e",
        "mrf_fingerprint": "eb2335d692b6ace016dec9af4c8c9568b274d1304a35da23fa42a7bb25d3f04c",
        "structure_fingerprint": "c8f82d42021e4e88464e7f9b9c8360c2546a121d108a6a28a3ab1c7930b2e283",
    },
    "p24-remove-target-tuple": {
        "var": "32a7a4cedec38d6ff5c1a08817daa50192c84bc825b327143fb65e8ded856885",
        "coeff": "f8e72d031c491a2fb8b7eea427cc9004c77241d608efa337e8a641d825b81fbe",
        "offset": "8b360b94bdaa6f4bb7df2c084b8028cb84a6e04a7c1525c61404d163f59353fa",
        "weight": "1f486144555f2f5f7a4e1ce7fa34822e6c55efa975b0d8a0f7e0a46901dc5563",
        "term_ptr": "f5d6c473ccaef21b061be329892cb09a8a59eec4a4c4579be9a5cc58928b2c6e",
        "normsq": "0ff5cce6bdf6b06d6ea1de67ea6d6ffdacbce1a95234b910e2eebff09a83a9ab",
        "degree": "58d4935a1031a0e016773229534d8f4b4507a0921a6410f58a5d90e709156f18",
        "mrf_fingerprint": "49b0d49076bf432749062e80bd6779d50adcd5a5e209e6449c397c1352887e1b",
        "structure_fingerprint": "87b7a6aa5aad8abfcc36d39733ba0f41e9376c94b5d6ffb116e44876295860b7",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hashes(mrf) -> dict[str, str]:
    arrays = AdmmSolver(mrf).arrays
    hashes = {
        name: _sha(np.ascontiguousarray(getattr(arrays, name)).tobytes())
        for name in ARRAY_FIELDS
    }
    hashes["mrf_fingerprint"] = _sha(mrf_fingerprint(mrf))
    hashes["structure_fingerprint"] = _sha(structure_fingerprint(mrf))
    return hashes


@pytest.fixture(scope="module")
def p24():
    return generate_scenario(P24)


def _chain(scenario) -> MutableSelection:
    return MutableSelection(scenario.source, scenario.target, scenario.candidates)


def _first_target_fact(scenario):
    return sorted(scenario.target, key=repr)[0]


def _model(name, scenario):
    if name == "paper-example-5":
        ex = paper_example(extra_projects=5)
        problem = build_selection_problem(ex.source, ex.target, ex.candidates)
        return GroundedCollective(problem).mrf
    chain = _chain(scenario)
    cache = CollectiveGroundingCache()
    artifact = cache.grounded(chain.problem)
    if name == "p24":
        return artifact.mrf
    edited = chain.apply(RemoveTargetTuple(_first_target_fact(scenario)))
    artifact = cache.grounded(edited)
    assert cache.patch_hits == 1  # the splice built it, not a fresh ground
    return artifact.mrf


@pytest.mark.parametrize("name", sorted(PINS))
def test_solver_arrays_and_fingerprints_match_pins(name, p24):
    assert _hashes(_model(name, p24)) == PINS[name]


def _assert_in_atoms_first(mrf, num_candidates: int) -> None:
    assert mrf.variables[:num_candidates] == [
        GroundAtom(IN_PREDICATE, (i,)) for i in range(num_candidates)
    ]


def test_in_atoms_come_first_on_fresh_and_patched_revisions(p24):
    chain = _chain(p24)
    cache = CollectiveGroundingCache()
    root = cache.grounded(chain.problem)
    _assert_in_atoms_first(root.mrf, chain.problem.num_candidates)
    target = _first_target_fact(p24)
    source = sorted(p24.source, key=repr)[0]
    edits = (
        RemoveTargetTuple(target),
        RemoveSourceTuple(source),
        AddTargetTuple(target),
        AddSourceTuple(source),
    )
    for patches, edit in enumerate(edits, start=1):
        problem = chain.apply(edit)
        artifact = cache.grounded(problem)
        assert cache.patch_hits == patches
        _assert_in_atoms_first(artifact.mrf, problem.num_candidates)

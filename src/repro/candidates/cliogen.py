"""Clio-style candidate generation from correspondences.

For every pair (source association, target association) connected by at
least one correspondence, emit a candidate st tgd: the body is the source
association's join pattern, the head the target association's, and each
corresponded target position receives the matching source variable while
the remaining head positions become existentially quantified.

This reproduces the behaviour the paper relies on: with the gold
correspondences present, the gold mapping's tgds are generated (MG is a
subset of the candidate set C), and noisy extra correspondences produce
plausible-but-wrong additional candidates for the selector to reject.

When several correspondences claim the same target position (e.g. a
random correspondence colliding with a gold one inside the same
association pair), one candidate per combination is generated, up to
``variant_cap`` variants per pair.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Iterable, Sequence

from repro.candidates.associations import Association, logical_associations
from repro.candidates.correspondence import Correspondence, validate_correspondences
from repro.datamodel.schema import Schema
from repro.mappings.terms import Variable
from repro.mappings.tgd import StTgd


def generate_candidates(
    source_schema: Schema,
    target_schema: Schema,
    correspondences: Sequence[Correspondence],
    variant_cap: int = 8,
) -> list[StTgd]:
    """All candidate st tgds implied by *correspondences* (deduplicated)."""
    validate_correspondences(correspondences, source_schema, target_schema)
    source_associations = logical_associations(source_schema)
    target_associations = logical_associations(target_schema)

    candidates: list[StTgd] = []
    seen: set[StTgd] = set()
    for assoc_s in source_associations:
        from_s = [c for c in correspondences if c.source_relation in assoc_s.relations]
        if not from_s:
            continue
        for assoc_t in target_associations:
            for tgd in _candidates_for_pair(
                assoc_s,
                assoc_t,
                source_schema,
                target_schema,
                from_s,
                variant_cap,
            ):
                canonical = tgd.canonical()
                if canonical not in seen:
                    seen.add(canonical)
                    candidates.append(tgd)
    return candidates


def _candidates_for_pair(
    assoc_s: Association,
    assoc_t: Association,
    source_schema: Schema,
    target_schema: Schema,
    correspondences: Sequence[Correspondence],
    variant_cap: int,
) -> Iterable[StTgd]:
    """Candidates for one association pair; *correspondences* all start in *assoc_s*."""
    relevant = [c for c in correspondences if c.target_relation in assoc_t.relations]
    if not relevant:
        return

    body_atoms = assoc_s.atoms(source_schema, prefix="Src_")
    head_atoms = assoc_t.atoms(target_schema, prefix="Tgt_")

    # Source variable for each (relation, attribute) position of the body.
    source_var: dict[tuple[str, str], Variable] = {}
    for rel_name, atom in body_atoms.items():
        for attr, term in zip(source_schema.get(rel_name).attribute_names, atom.terms):
            source_var[(rel_name, attr)] = term

    # Head variable for each (relation, attribute): may be shared via joins.
    head_var: dict[tuple[str, str], Variable] = {}
    for rel_name, atom in head_atoms.items():
        for attr, term in zip(target_schema.get(rel_name).attribute_names, atom.terms):
            head_var[(rel_name, attr)] = term

    # Group correspondences by the *head variable* they would bind, so two
    # join-unified positions hit by one correspondence stay consistent.
    options: dict[Variable, list[Variable]] = {}
    for c in sorted(relevant, key=repr):
        hv = head_var[(c.target_relation, c.target_attribute)]
        sv = source_var[(c.source_relation, c.source_attribute)]
        bucket = options.setdefault(hv, [])
        if sv not in bucket:
            bucket.append(sv)

    head_vars = sorted(options, key=lambda v: v.name)
    choice_lists = [options[hv] for hv in head_vars]
    for combo in islice(product(*choice_lists), variant_cap):
        substitution = dict(zip(head_vars, combo))
        head = tuple(head_atoms[r].rename(substitution) for r in sorted(head_atoms))
        body = tuple(body_atoms[r] for r in sorted(body_atoms))
        yield StTgd(body, head)

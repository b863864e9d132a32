"""Certain answers over the exchanged instance of a selected mapping.

Shows what a selected mapping is used for once it is chosen:

1. select a mapping collectively from the data example (I, J);
2. exchange the source instance with the selected tgds (the st chase),
   which invents labeled nulls for the existential variables;
3. answer conjunctive queries with certain-answer semantics: evaluate
   naively on the exchanged instance and drop every answer holding a
   null.  A join through an invented null still gives certain answers;
   projecting the null itself gives none.

Run:  python examples/certain_answers.py
"""

from repro.core import (
    Instance,
    build_selection_problem,
    certain_answers,
    exchanged_instance,
    fact,
    parse_query,
    parse_tgds,
    solve_collective,
)
from repro.queries import evaluate


def main() -> None:
    source = Instance(
        [
            fact("proj", "ML", "Alice", "SAP"),
            fact("proj", "Search", "Carol", "SAP"),
            fact("proj", "BigData", "Bob", "IBM"),
        ]
    )
    target = Instance(
        [
            fact("task", "ML", "Alice", 111),
            fact("task", "Search", "Carol", 111),
            fact("task", "BigData", "Bob", 222),
            fact("org", 111, "SAP"),
            fact("org", 222, "IBM"),
        ]
    )
    candidates = parse_tgds(
        "t1: proj(P, E, C) -> task(P, E, O)\n"
        "t3: proj(P, E, C) -> task(P, E, O) & org(O, C)"
    )

    problem = build_selection_problem(source, target, candidates)
    result = solve_collective(problem)
    selected = [candidates[i] for i in sorted(result.selected)]
    print(f"selected: {[t.name for t in selected]}  F = {result.objective}")

    exchanged = exchanged_instance(source, selected)
    print(f"\nexchanged instance ({len(exchanged)} facts):")
    for f in sorted(exchanged, key=repr):
        print("  ", f)

    for text in (
        "ans(P, C) <- task(P, E, O) & org(O, C)",
        "ans(P, O) <- task(P, E, O)",
    ):
        query = parse_query(text)
        naive = evaluate(query, exchanged)
        certain = certain_answers(query, exchanged)
        print(f"\n{query}: {len(naive)} naive answers, {len(certain)} certain")
        for answer in sorted(certain, key=repr):
            print("  ", answer)


if __name__ == "__main__":
    main()

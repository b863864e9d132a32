"""Inline suppression comments for repro-lint.

Three forms, all spelled in a line's comment:

**Trailing pragma** — covers findings on its own physical line::

    ...  # repro-lint: disable=RPL002
    ...  # repro-lint: disable=RPL001,RPL002
    ...  # repro-lint: disable          (all rules)

**Comment-only pragma** — covers the first code line below its comment
block, so long statements can carry the pragma and its justification
above them::

    # repro-lint: disable=RPL002 -- canonical sort happens downstream,
    # see ground_rule().
    for atom in database.atoms_of(literal.predicate):

**Block scope** — a comment-only ``disable`` that is later closed by a
comment-only ``enable`` covers every line in between.  Scopes form a
*stack*: an inner ``disable``/``enable`` pair for the same rule nests
inside an outer one, and the inner ``enable`` closes only the inner
scope — the outer disable stays in force until its own ``enable``::

    # repro-lint: disable=RPL002 -- outer: whole merge is order-audited
    ...
    # repro-lint: disable=RPL002 -- inner: plus this one loop
    ...
    # repro-lint: enable=RPL002   (closes the inner scope only)
    ...                           (RPL002 still disabled here)
    # repro-lint: enable=RPL002   (closes the outer scope)

A bare ``enable`` closes the innermost open scope for all of its rules
(bare ``disable`` blocks are closed by bare ``enable``; a *named*
``enable`` only closes scopes that name the rule explicitly).  A
``disable`` scope never closed by an ``enable`` degrades to the
comment-only behaviour (next code line only), so a forgotten ``enable``
cannot silently disable a rule for the rest of the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<verb>disable|enable)"
    r"(?:=(?P<rules>[A-Z0-9,\s]+))?",
)

#: Sentinel rule set meaning "every rule".
ALL_RULES = frozenset({"*"})


@dataclass
class _Scope:
    """One comment-only ``disable``: a potential block scope."""

    tokens: frozenset[str]
    start: int
    #: token -> line of the ``enable`` that closed it.
    closed: dict[str, int] = field(default_factory=dict)

    def open_tokens(self) -> frozenset[str]:
        return self.tokens - frozenset(self.closed)


def _parse_rules(raw: str | None) -> frozenset[str]:
    if raw is None:
        return ALL_RULES
    rules = frozenset(
        token for token in (t.strip() for t in raw.split(",")) if token
    )
    return rules or ALL_RULES


def parse_suppressions(lines) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule IDs suppressed on that line."""
    lines = list(lines)
    table: dict[int, frozenset[str]] = {}
    #: every comment-only disable ever seen, in file order — the
    #: innermost-open scan walks it in reverse, which is exactly the
    #: stack the nesting semantics need.
    scopes: list[_Scope] = []

    def shield(lineno: int, rules) -> None:
        table[lineno] = table.get(lineno, frozenset()) | frozenset(rules)

    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        verb = match.group("verb")
        rules = _parse_rules(match.group("rules"))
        comment_only = text.strip().startswith("#")
        if verb == "disable":
            shield(lineno, rules)
            if comment_only:
                scopes.append(_Scope(tokens=rules, start=lineno))
        elif comment_only:  # enable (a trailing enable has no meaning)
            if rules is ALL_RULES or rules == ALL_RULES:
                # Bare enable: close the innermost scope with anything open.
                for scope in reversed(scopes):
                    still_open = scope.open_tokens()
                    if still_open:
                        for token in still_open:
                            scope.closed[token] = lineno
                        break
            else:
                # Per rule, close the innermost scope still holding it;
                # outer scopes for the same rule stay open — that stack
                # discipline is the nesting fix.
                for token in sorted(rules):
                    for scope in reversed(scopes):
                        if token in scope.open_tokens():
                            scope.closed[token] = lineno
                            break

    for scope in scopes:
        for token, end in scope.closed.items():
            # Closed block scope: cover the whole region, pragma lines
            # inclusive.
            for lineno in range(scope.start, end + 1):
                shield(lineno, {token})
        leftover = scope.open_tokens()
        if leftover:
            # Unclosed (or classic) comment-only pragma: cover the first
            # code line below the comment block.
            nxt = scope.start  # 0-based index of the following line
            while nxt < len(lines) and lines[nxt].strip().startswith("#"):
                shield(nxt + 1, leftover)
                nxt += 1
            shield(nxt + 1, leftover)
    return table


def is_suppressed(table: dict[int, frozenset[str]], line: int, rule: str) -> bool:
    rules = table.get(line)
    if not rules:
        return False
    return "*" in rules or rule in rules

"""Chase engine: canonical universal solutions for st tgds."""

from repro.chase.engine import (
    ChaseResult,
    chase,
    chase_single,
    exchanged_instance,
    match_body,
)

__all__ = [
    "ChaseResult",
    "chase",
    "chase_single",
    "exchanged_instance",
    "match_body",
]

"""Chase engine: canonical universal solutions for st tgds."""

from repro.chase.engine import (
    ChaseResult,
    chase,
    chase_single,
    exchanged_instance,
    match_body,
)
from repro.chase.target import TargetChaseResult, chase_target, violates_keys

__all__ = [
    "ChaseResult",
    "chase",
    "chase_single",
    "exchanged_instance",
    "match_body",
    "TargetChaseResult",
    "chase_target",
    "violates_keys",
]

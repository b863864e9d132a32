"""Single-fact homomorphisms: matching facts with labeled nulls into instances."""

from repro.homomorphism.search import fact_matches, image_ranks

__all__ = [
    "fact_matches",
    "image_ranks",
]

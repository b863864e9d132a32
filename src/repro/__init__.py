"""repro — A Collective, Probabilistic Approach to Schema Mapping.

Reproduction of Kimmig, Memory, Miller & Getoor (ICDE 2017): selecting a
schema mapping (a set of st tgds) from Clio-generated candidates by
minimizing a coverage/error/size objective, relaxed into a hinge-loss
MRF (probabilistic soft logic) and solved collectively with ADMM.

See :mod:`repro.core` for the public API, ``docs/solver.md`` for the
solve path, and ``benchmarks/`` for the reproduced evaluation (each
bench writes its table to ``benchmarks/results/``).
"""

__version__ = "1.0.0"

"""Layer spans and counters, recorded from outside the program.

The benchmark never edits ``src/``: :func:`install` swaps each layer's
public entry point for a wrapper that opens a span around the original
call and reads its counters from the arguments and the result.  Every
module attribute bound to the original object is replaced (the package
re-exports functions under several names), and :func:`uninstall`
puts the originals back.

A span belongs to one *layer*.  A layer's self time is its spans'
duration minus the time covered by nested spans of other layers, so the
layer shares of one op add up to at most 1; ``other`` is the remainder.
``objective_value`` is a *transparent* span: it is timed and counted,
but its time stays with whichever layer called it (mostly rounding).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers that own self time, in report order (``objective`` is
#: transparent and has no share).
SHARE_LAYERS = (
    "ibench", "build", "mutations", "ground", "admm", "rounding", "greedy", "score",
)


class Tracer:
    """Span stack plus span, self-time and counter totals while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []  # [start, time covered by child layers]
        self.spans = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self._stack.clear()
        self.spans = 0
        self.self_s.clear()
        self.span_s.clear()
        self.counts.clear()

    def count(self, name: str, value: float = 1) -> None:
        if self.active:
            self.counts[name] += value

    @contextmanager
    def span(self, name: str, layer: str | None):
        """Time *name*; a ``None`` layer leaves the time with the caller."""
        if not self.active:
            yield
            return
        self.spans += 1
        frame = [time.perf_counter(), 0.0]
        if layer is not None:
            self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self.span_s[name] += duration
            if layer is not None:
                self._stack.pop()
                self.self_s[layer] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration


class _RoundingEvals:
    """Counts the rounding objective's evaluations, phase by phase.

    An evaluation *improves* when it beats the lowest value seen so far
    in its phase; both the threshold sweep and first-improvement local
    search accept exactly those.  Local-search *steps* are recovered
    from the evaluated sets alone: each evaluation flips one item of the
    current selection, so when an evaluated set is no 1-flip of the
    tracked current one, the previously evaluated set was accepted.  A
    step whose value exceeds the one it replaced is an *ascent*, which
    the monotone-descent argument rules out.
    """

    def __init__(self, tracer: Tracer, objective):
        self.tracer = tracer
        self.objective = objective
        self.phase = None
        self._best = None
        self._current = None  # (set, value) of the tracked local-search state
        self._last = None

    def start(self, phase: str) -> None:
        self.phase, self._best, self._current, self._last = phase, None, None, None

    def __call__(self, selected):
        value = self.objective(selected)
        tracer = self.tracer
        tracer.count("rounding.objective_evals")
        if self._best is None or value < self._best:
            if self._best is not None:
                tracer.count("rounding.improving_evals")
            self._best = value
        if self.phase == "local":
            if self._current is None:
                self._current = (selected, value)
            elif len(selected ^ self._current[0]) != 1 and self._last is not None:
                self._accept(self._last)
            self._last = (selected, value)
        return value

    def _accept(self, step) -> None:
        if step[1] > self._current[1]:
            self.tracer.count("rounding.ascents")
        self._current = step

    def finish_local(self, result) -> None:
        # A step accepted by the very last evaluation shows only here.
        if self._current is not None and result != self._current[0]:
            self._accept(self._last)


def overhead_seconds(tracer: Tracer) -> float:
    """The time tracing added: recorded spans and rounding evaluations,
    each times its cost measured here on empty work.

    An A/B of a traced against an untraced pass cannot resolve this on a
    host whose speed swings by more than the overhead.
    """
    probe = Tracer()
    probe.active = True
    calls = 5000
    start = time.perf_counter()
    for _ in range(calls):
        with probe.span("calibrate", "calibrate"):
            probe.count("calibrate")
    per_span = (time.perf_counter() - start) / calls
    evals = _RoundingEvals(probe, len)
    evals.start("local")
    selection = frozenset(range(64))
    start = time.perf_counter()
    for i in range(calls):
        evals(selection ^ {i % 64})
    per_eval = (time.perf_counter() - start) / calls
    return tracer.spans * per_span + tracer.counts["rounding.objective_evals"] * per_eval


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer entry point; returns what :func:`uninstall` restores."""
    from repro.evaluation import harness
    from repro.ibench import generator, mutations
    from repro.psl import admm, rounding
    from repro.selection import collective, greedy, metrics, objective

    span = tracer.span
    patched: list[tuple[object, str, object]] = []

    def replace_function(original, wrapper):
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, name, original))
                    setattr(module, name, wrapper)

    def replace_method(cls, name, make):
        original = getattr(cls, name)
        patched.append((cls, name, original))
        setattr(cls, name, make(original))

    def on_problem(problem):
        tracer.count("build.candidates", problem.num_candidates)
        tracer.count("build.j_facts", len(problem.j_facts))
        tracer.count("build.chase_facts", sum(len(c) for c in problem.chase_by_candidate))

    gen = generator.generate_scenario

    def generate_scenario(*args, **kwargs):
        with span("ibench.generate", "ibench"):
            return gen(*args, **kwargs)

    build = metrics.build_selection_problem

    def build_selection_problem(*args, **kwargs):
        with span("build", "build"):
            problem = build(*args, **kwargs)
        on_problem(problem)
        return problem

    def mutable_init(original):
        def __init__(self, *args, **kwargs):
            with span("build", "build"):
                original(self, *args, **kwargs)
            on_problem(self.problem)
        return __init__

    def mutable_apply(original):
        def apply(self, mutation):
            before = self.rechased_candidates
            with span("mutations.apply", "mutations"):
                problem = original(self, mutation)
            tracer.count("mutations.rechased", self.rechased_candidates - before)
            return problem
        return apply

    def cache_grounded(original):
        def grounded(self, *args, **kwargs):
            hits, patches, disk = self.hits, self.patch_hits, self.disk_hits
            with span("ground", "ground"):
                artifact = original(self, *args, **kwargs)
            terms = len(artifact.mrf.potentials) + len(artifact.mrf.constraints)
            tracer.count("ground.terms", terms)
            tracer.count("ground.memory_hits", self.hits - hits)
            tracer.count("ground.patch_hits", self.patch_hits - patches)
            tracer.count("ground.disk_hits", self.disk_hits - disk)
            if self.hits > hits or self.disk_hits > disk:
                tracer.count("ground.reused_terms", terms)
            elif self.patch_hits > patches and artifact.splice_stats is not None:
                tracer.count("ground.reused_terms", artifact.splice_stats.reused_terms)
            return artifact
        return grounded

    ground = collective.ground_collective

    def ground_collective(*args, **kwargs):
        tracer.count("ground.fresh")
        with span("ground.fresh", "ground"):
            return ground(*args, **kwargs)

    patch = collective.patch_collective

    def patch_collective(*args, **kwargs):
        with span("ground.patch", "ground"):
            return patch(*args, **kwargs)

    def admm_solve(original):
        def solve(self, *args, **kwargs):
            with span("admm", "admm"):
                result = original(self, *args, **kwargs)
            tracer.count("admm.solves")
            tracer.count("admm.iterations", result.iterations)
            tracer.count("admm.converged", bool(result.converged))
            return result
        return solve

    round_ = rounding.round_solution
    sweep = rounding.threshold_sweep
    local = rounding.local_search

    def round_solution(fractional, objective_fn, *args, **kwargs):
        evals = _RoundingEvals(tracer, objective_fn)
        with span("rounding", "rounding"):
            return round_(fractional, evals, *args, **kwargs)

    def threshold_sweep(fractional, objective_fn, *args, **kwargs):
        if isinstance(objective_fn, _RoundingEvals):
            objective_fn.start("sweep")
        with span("rounding.sweep", "rounding"):
            return sweep(fractional, objective_fn, *args, **kwargs)

    def local_search(start, universe, objective_fn, *args, **kwargs):
        if isinstance(objective_fn, _RoundingEvals):
            objective_fn.start("local")
        with span("rounding.local", "rounding"):
            result = local(start, universe, objective_fn, *args, **kwargs)
        if isinstance(objective_fn, _RoundingEvals):
            objective_fn.finish_local(result)
        return result

    value = objective.objective_value

    def objective_value(*args, **kwargs):
        tracer.count("objective.calls")
        with span("objective", None):
            return value(*args, **kwargs)

    solve_greedy_ = greedy.solve_greedy

    def solve_greedy(*args, **kwargs):
        with span("greedy", "greedy"):
            return solve_greedy_(*args, **kwargs)

    score = harness.score_selection

    def score_selection(*args, **kwargs):
        with span("score", "score"):
            return score(*args, **kwargs)

    for original, wrapper in (
        (gen, generate_scenario),
        (build, build_selection_problem),
        (ground, ground_collective),
        (patch, patch_collective),
        (round_, round_solution),
        (sweep, threshold_sweep),
        (local, local_search),
        (value, objective_value),
        (solve_greedy_, solve_greedy),
        (score, score_selection),
    ):
        replace_function(original, wrapper)
    replace_method(mutations.MutableSelection, "__init__", mutable_init)
    replace_method(mutations.MutableSelection, "apply", mutable_apply)
    replace_method(collective.CollectiveGroundingCache, "grounded", cache_grounded)
    replace_method(admm.AdmmSolver, "solve", admm_solve)
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)

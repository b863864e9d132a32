"""Per-rule fixtures: each checker gets a true positive and a
legitimate near-miss that must stay silent."""

from __future__ import annotations

import textwrap

from repro.analysis.runner import lint_sources


def rules_hit(sources, rule=None):
    report = lint_sources(sources)
    assert report.parse_errors == []
    found = [f for f in report.findings if rule is None or f.rule == rule]
    return found


def src(text):
    return textwrap.dedent(text).lstrip("\n")


class TestRPL001ProcessMapSafety:
    def test_lambda_to_executor_map_is_flagged(self):
        hits = rules_hit(
            {
                "repro/selection/work.py": src(
                    """
                    def run(executor, items):
                        return executor.map(lambda x: x + 1, items)
                    """
                )
            },
            "RPL001",
        )
        assert len(hits) == 1 and "lambda" in hits[0].message

    def test_bound_method_to_executor_map_is_flagged(self):
        hits = rules_hit(
            {
                "repro/selection/work.py": src(
                    """
                    class Driver:
                        def run(self, executor, items):
                            return executor.map(self._work, items)
                    """
                )
            },
            "RPL001",
        )
        assert len(hits) == 1 and "bound method" in hits[0].message

    def test_nested_function_is_flagged(self):
        hits = rules_hit(
            {
                "repro/selection/work.py": src(
                    """
                    def run(executor, items):
                        def work(x):
                            return x + 1
                        return executor.map(work, items)
                    """
                )
            },
            "RPL001",
        )
        assert len(hits) == 1 and "nested function" in hits[0].message

    def test_lambda_initializer_on_process_pool_is_flagged(self):
        hits = rules_hit(
            {
                "repro/psl/pool.py": src(
                    """
                    from repro.executors import ProcessExecutor

                    def build(db):
                        return ProcessExecutor(initializer=lambda: db)
                    """
                )
            },
            "RPL001",
        )
        assert len(hits) == 1

    def test_module_level_function_and_partial_are_clean(self):
        hits = rules_hit(
            {
                "repro/selection/work.py": src(
                    """
                    from functools import partial

                    def work(state, x):
                        return x + 1

                    def run(executor, items, state):
                        executor.map(work, items)
                        return executor.map(partial(work, state), items)
                    """
                )
            },
            "RPL001",
        )
        assert hits == []

    def test_thread_pool_initializer_is_exempt(self):
        hits = rules_hit(
            {
                "repro/pool.py": src(
                    """
                    from concurrent.futures import ThreadPoolExecutor

                    class Runner:
                        def start(self):
                            self._pool = ThreadPoolExecutor(
                                max_workers=2, initializer=self._register
                            )
                    """
                )
            },
            "RPL001",
        )
        assert hits == []


class TestRPL002Determinism:
    def test_set_iteration_in_scope_module_is_flagged(self):
        hits = rules_hit(
            {
                "repro/psl/fake.py": src(
                    """
                    def fingerprint(items):
                        out = []
                        for x in set(items):
                            out.append(x)
                        return out
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1 and hits[0].line == 3

    def test_facts_of_iteration_is_flagged(self):
        hits = rules_hit(
            {
                "repro/homomorphism/fake.py": src(
                    """
                    def images(instance, relation):
                        return [f for f in instance.facts_of(relation)]
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1 and "allocation addresses" in hits[0].message

    def test_hash_builtin_is_flagged(self):
        hits = rules_hit(
            {
                "repro/psl/fake.py": src(
                    """
                    def key(name):
                        return hash(name)
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1 and "PYTHONHASHSEED" in hits[0].message

    def test_sorted_wrapped_set_is_clean(self):
        hits = rules_hit(
            {
                "repro/psl/fake.py": src(
                    """
                    def fingerprint(items):
                        return [x for x in sorted(set(items))]
                    """
                )
            },
            "RPL002",
        )
        assert hits == []

    def test_ordered_plan_targets_tuple_is_clean(self):
        # plan.targets is an insertion-ordered tuple; attribute
        # iteration is never flagged.
        hits = rules_hit(
            {
                "repro/selection/fake.py": src(
                    """
                    def walk(plan):
                        for atom in plan.targets:
                            yield atom
                    """
                )
            },
            "RPL002",
        )
        assert hits == []

    def test_directory_listing_iteration_is_flagged(self):
        # A deterministic path must iterate in a fixed order, never
        # filesystem order.
        hits = rules_hit(
            {
                "repro/psl/fake_store.py": src(
                    """
                    def read_arrays(root):
                        out = {}
                        for path in root.iterdir():
                            out[path.name] = path.read_bytes()
                        return out
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1 and "filesystem order" in hits[0].message

    def test_os_listdir_comprehension_is_flagged(self):
        hits = rules_hit(
            {
                "repro/psl/fake_store.py": src(
                    """
                    import os

                    def entry_names(root):
                        return [name for name in os.listdir(root)]
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1 and "filesystem order" in hits[0].message

    def test_glob_iteration_is_flagged(self):
        hits = rules_hit(
            {
                "repro/psl/fake_store.py": src(
                    """
                    def payloads(entry):
                        for path in entry.glob("*.npy"):
                            yield path
                    """
                )
            },
            "RPL002",
        )
        assert len(hits) == 1

    def test_sorted_listing_is_clean(self):
        hits = rules_hit(
            {
                "repro/psl/fake_store.py": src(
                    """
                    import os

                    def keys(root):
                        ordered = [n for n in sorted(os.listdir(root))]
                        for child in sorted(root.iterdir()):
                            ordered.append(child.name)
                        return ordered
                    """
                )
            },
            "RPL002",
        )
        assert hits == []

    def test_listing_reduction_is_clean(self):
        # Order-insensitive reductions over a listing are fine.
        hits = rules_hit(
            {
                "repro/psl/fake_store.py": src(
                    """
                    def entry_bytes(entry):
                        return sum(p.stat().st_size for p in entry.iterdir())
                    """
                )
            },
            "RPL002",
        )
        assert hits == []

    def test_out_of_scope_module_is_clean(self):
        hits = rules_hit(
            {
                "repro/evaluation/fake.py": src(
                    """
                    def dedup(items):
                        for x in set(items):
                            yield x
                    """
                )
            },
            "RPL002",
        )
        assert hits == []

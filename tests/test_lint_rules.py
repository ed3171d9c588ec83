"""Per-rule fixture tests for reprolint (repro.lint.rules).

Every rule gets at least one hit fixture and one non-hit fixture,
including the adversarial shapes the engine must see through: aliased
imports (``from time import time as now``), attribute chains through
module aliases, and ``functools.partial`` indirection.
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_source


def codes(source: str, path: str = "repro/_fixture.py", **kwargs):
    result = lint_source(textwrap.dedent(source), path=path, **kwargs)
    return [f.code for f in result.findings]


class TestWallClock:
    def test_time_time_hit(self):
        assert codes("""
            import time
            def stamp():
                return time.time()
        """) == ["RPL001"]

    def test_aliased_import_hit(self):
        assert codes("""
            from time import time as now
            def stamp():
                return now()
        """) == ["RPL001"]

    def test_datetime_attribute_chain_hit(self):
        assert codes("""
            import datetime as dt
            def stamp():
                return dt.datetime.now()
        """) == ["RPL001"]

    def test_utcnow_and_today_hit(self):
        found = codes("""
            from datetime import datetime, date
            a = datetime.utcnow()
            b = date.today()
        """)
        assert found == ["RPL001", "RPL001"]

    def test_partial_indirection_hit(self):
        assert codes("""
            import functools
            import time
            clock = functools.partial(time.time)
        """) == ["RPL001"]

    def test_monotonic_family_hit(self):
        assert codes("""
            import time
            t = time.perf_counter()
        """) == ["RPL001"]

    def test_clock_modules_exempt(self):
        source = """
            import time
            def read():
                return time.perf_counter()
        """
        assert codes(source, path="repro/obs/timing.py") == []
        assert codes(source, path="src/repro/vt/clock.py") == []

    def test_sim_clock_use_is_clean(self):
        assert codes("""
            from repro.vt.clock import SimulationClock
            clock = SimulationClock()
            clock.advance(5)
        """) == []


class TestUnseededRandom:
    def test_module_function_hit(self):
        assert codes("""
            import random
            x = random.random()
        """) == ["RPL002"]

    def test_aliased_function_hit(self):
        assert codes("""
            from random import randint as roll
            x = roll(1, 6)
        """) == ["RPL002"]

    def test_argless_random_constructor_hit(self):
        assert codes("""
            import random
            rng = random.Random()
        """) == ["RPL002"]

    def test_numpy_legacy_global_hit(self):
        assert codes("""
            import numpy as np
            x = np.random.rand(10)
        """) == ["RPL002"]

    def test_argless_default_rng_hit(self):
        assert codes("""
            import numpy as np
            rng = np.random.default_rng()
        """) == ["RPL002"]

    def test_keyed_random_clean(self):
        assert codes("""
            import random
            def rng_for(seed, sha):
                return random.Random(f"{seed}:scan:{sha}")
        """) == []

    def test_seeded_default_rng_clean(self):
        assert codes("""
            import numpy as np
            def rng_for(seed):
                return np.random.default_rng(seed)
        """) == []

    def test_instance_method_on_keyed_stream_clean(self):
        assert codes("""
            import random
            rng = random.Random(7)
            x = rng.random() + rng.randint(1, 6)
        """) == []


class TestEntropy:
    def test_uuid4_hit(self):
        assert codes("""
            import uuid
            token = uuid.uuid4()
        """) == ["RPL003"]

    def test_urandom_hit(self):
        assert codes("""
            import os
            blob = os.urandom(16)
        """) == ["RPL003"]

    def test_secrets_hit(self):
        assert codes("""
            import secrets
            token = secrets.token_hex(8)
        """) == ["RPL003"]

    def test_secrets_from_import_hit(self):
        assert codes("""
            from secrets import token_bytes
            blob = token_bytes(8)
        """) == ["RPL003"]

    def test_content_hash_clean(self):
        assert codes("""
            import hashlib
            def sha_for(seed, index):
                return hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
        """) == []


class TestUnorderedIteration:
    def test_set_literal_for_hit(self):
        assert codes("""
            out = []
            for x in {"b", "a"}:
                out.append(x)
        """) == ["RPL004"]

    def test_set_call_comprehension_hit(self):
        assert codes("""
            def dedupe(items):
                return [x for x in set(items)]
        """) == ["RPL004"]

    def test_listdir_hit(self):
        assert codes("""
            import os
            def walk(root):
                for name in os.listdir(root):
                    yield name
        """) == ["RPL004"]

    def test_glob_hit(self):
        assert codes("""
            import glob
            def files():
                for path in glob.glob("*.py"):
                    yield path
        """) == ["RPL004"]

    def test_enumerate_wrapper_still_hit(self):
        assert codes("""
            def числа(items):
                for i, x in enumerate(set(items)):
                    yield i, x
        """) == ["RPL004"]

    def test_sorted_wrapper_clean(self):
        assert codes("""
            import os
            def walk(root):
                for name in sorted(os.listdir(root)):
                    yield name
            def dedupe(items):
                return [x for x in sorted(set(items))]
        """) == []

    def test_order_insensitive_consumer_clean(self):
        assert codes("""
            def total(counts):
                return sum(v for v in set(counts))
            def smallest(items):
                return sorted(x for x in {i for i in items})
        """) == []

    def test_dict_iteration_clean(self):
        assert codes("""
            def render(table):
                for key in table:
                    yield key, table[key]
        """) == []


class TestMetricDiscipline:
    def test_non_literal_name_hit(self):
        assert codes("""
            def instrument(metrics, name):
                return metrics.counter(name)
        """) == ["RPL005"]

    def test_grammar_violation_hit(self):
        assert codes("""
            def instrument(metrics):
                return metrics.counter("Store.IngestBytes")
        """) == ["RPL005"]

    def test_kind_conflict_across_files_hit(self):
        from repro.lint import lint_modules

        result = lint_modules([
            ("repro/a.py",
             'def f(m):\n    return m.counter("store.rows")\n'),
            ("repro/b.py",
             'def g(m):\n    return m.gauge("store.rows")\n'),
        ])
        assert [f.code for f in result.findings] == ["RPL005"]
        assert result.findings[0].path == "repro/b.py"
        assert "one instrument kind per name" in result.findings[0].message

    def test_span_counts_as_histogram(self):
        from repro.lint import lint_modules

        result = lint_modules([
            ("repro/a.py",
             'def f(m):\n    with m.span("poll.seconds"):\n        pass\n'),
            ("repro/b.py",
             'def g(m):\n    return m.histogram("poll.seconds")\n'),
        ])
        assert result.findings == []

    def test_traced_decorator_checked(self):
        assert codes("""
            from repro.obs import traced

            @traced("Save.Seconds")
            def save():
                pass
        """) == ["RPL005"]

    def test_consistent_literal_sites_clean(self):
        assert codes("""
            def instrument(metrics):
                a = metrics.counter("vt.scan.total", kind="upload")
                b = metrics.counter("vt.scan.total", kind="rescan")
                c = metrics.histogram("vt.scan.positives")
                return a, b, c
        """) == []


class TestSwallow:
    def test_bare_except_hit(self):
        assert codes("""
            def poll():
                try:
                    return 1
                except:
                    pass
        """, path="repro/collect/driver.py") == ["RPL006"]

    def test_swallow_exception_hit(self):
        assert codes("""
            def poll():
                try:
                    return 1
                except Exception:
                    pass
        """, path="repro/faults/chaos.py") == ["RPL006"]

    def test_outside_resilience_layers_not_flagged(self):
        assert codes("""
            def poll():
                try:
                    return 1
                except Exception:
                    pass
        """, path="repro/analysis/report.py") == []

    def test_counted_handler_clean(self):
        assert codes("""
            def poll(stats):
                try:
                    return 1
                except Exception:
                    stats.errors += 1
                    raise
        """, path="repro/collect/driver.py") == []


class TestRoguePool:
    def test_direct_pool_hit(self):
        assert codes("""
            import multiprocessing
            def fan_out(tasks):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(str, tasks)
        """) == ["RPL007"]

    def test_context_pool_hit(self):
        assert codes("""
            import multiprocessing
            def fan_out(tasks):
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(4) as pool:
                    return pool.map(str, tasks)
        """) == ["RPL007"]

    def test_from_import_process_hit(self):
        assert codes("""
            from multiprocessing import Process
            def spawn(fn):
                return Process(target=fn)
        """) == ["RPL007"]

    @pytest.mark.parametrize("source", [
        """
            from concurrent.futures import ProcessPoolExecutor
            def fan_out(tasks):
                with ProcessPoolExecutor(4) as pool:
                    return list(pool.map(str, tasks))
        """,
        """
            import concurrent.futures
            def fan_out(tasks):
                pool = concurrent.futures.ProcessPoolExecutor(4)
                return list(pool.map(str, tasks))
        """,
    ], ids=["from-import", "module-attribute"])
    def test_process_pool_executor_hit(self, source):
        assert codes(source) == ["RPL007"]

    def test_thread_pool_executor_clean(self):
        assert codes("""
            from concurrent.futures import ThreadPoolExecutor
            def fan_out(tasks):
                with ThreadPoolExecutor(4) as pool:
                    return list(pool.map(str, tasks))
        """) == []

    def test_scheduler_module_exempt(self):
        assert codes("""
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            def fan_out(tasks):
                ctx = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(4, mp_context=ctx) as pool:
                    return list(pool.map(str, tasks))
        """, path="repro/parallel/scheduler.py") == []

    def test_runner_module_no_longer_exempt(self):
        assert codes("""
            import multiprocessing
            def fan_out(tasks):
                return multiprocessing.Process(target=str)
        """, path="repro/parallel/runner.py") == ["RPL007"]

    def test_other_multiprocessing_attrs_clean(self):
        assert codes("""
            import multiprocessing
            def can_fork():
                return "fork" in multiprocessing.get_all_start_methods()
        """) == []


class TestSelectAndPolicy:
    def test_select_narrows_rules(self):
        source = """
            import time
            import uuid
            a = time.time()
            b = uuid.uuid4()
        """
        config = LintConfig(select=frozenset({"RPL003"}))
        assert codes(source, config=config) == ["RPL003"]

    def test_unknown_select_code_raises(self):
        from repro.errors import LintError

        with pytest.raises(LintError, match="RPL999"):
            LintConfig(select=frozenset({"RPL999"}))

    def test_findings_sorted_and_deduped(self):
        result = lint_source(textwrap.dedent("""
            import time
            b = time.time()
            a = time.time()
        """))
        positions = [(f.line, f.col) for f in result.findings]
        assert positions == sorted(positions)

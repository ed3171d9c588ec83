"""Call-graph construction and resolution tests (reprolint v2).

The flow rules are only as good as the graph under them, so resolution
is pinned here construct by construct: aliased imports, package
re-exports, ``functools.partial`` indirection, decorator chains,
``self.method()`` and constructor-typed ``self.attr.method()`` edges,
lock-guarded call sites, and the impure-reference and ``self`` write
facts the flow rules read.
"""

import textwrap

from repro.lint import CallGraph, analyze_module
from repro.lint.callgraph import module_name_of


def summarize(path, source):
    return analyze_module(path, textwrap.dedent(source)).summary


def edges_of(graph, caller):
    return [e.callee for e in graph.edges.get(caller, ())]


class TestModuleNames:
    def test_plain_module(self):
        assert module_name_of("repro/store/codec.py") == \
            ("repro.store.codec", False)

    def test_package_init(self):
        assert module_name_of("repro/store/__init__.py") == \
            ("repro.store", True)


class TestCrossModuleResolution:
    def test_aliased_import_resolves(self):
        impl = summarize("repro/fix/impl.py", """
            def work():
                return 1
        """)
        caller = summarize("repro/fix/caller.py", """
            from repro.fix.impl import work as w

            def go():
                return w()
        """)
        graph = CallGraph([impl, caller])
        assert edges_of(graph, "repro.fix.caller.go") == \
            ["repro.fix.impl.work"]

    def test_module_alias_attribute_call_resolves(self):
        impl = summarize("repro/fix/impl.py", """
            def work():
                return 1
        """)
        caller = summarize("repro/fix/caller.py", """
            import repro.fix.impl as impl

            def go():
                return impl.work()
        """)
        graph = CallGraph([impl, caller])
        assert edges_of(graph, "repro.fix.caller.go") == \
            ["repro.fix.impl.work"]

    def test_package_reexport_resolves_through_init(self):
        impl = summarize("repro/pkgx/impl.py", """
            class Thing:
                def __init__(self):
                    self.n = 0
        """)
        init = summarize("repro/pkgx/__init__.py", """
            from repro.pkgx.impl import Thing
        """)
        caller = summarize("repro/fix/caller.py", """
            from repro.pkgx import Thing

            def make():
                return Thing()
        """)
        graph = CallGraph([impl, init, caller])
        assert edges_of(graph, "repro.fix.caller.make") == \
            ["repro.pkgx.impl.Thing.__init__"]

    def test_functools_partial_adds_edge_to_wrapped(self):
        impl = summarize("repro/fix/impl.py", """
            def work():
                return 1
        """)
        caller = summarize("repro/fix/caller.py", """
            import functools
            from repro.fix.impl import work

            def defer():
                return functools.partial(work, 1)
        """)
        graph = CallGraph([impl, caller])
        assert "repro.fix.impl.work" in edges_of(graph, "repro.fix.caller.defer")

    def test_decorator_chain_is_an_edge_of_the_decorated_function(self):
        obs = summarize("repro/fix/obs.py", """
            def traced(name):
                def wrap(fn):
                    return fn
                return wrap
        """)
        caller = summarize("repro/fix/caller.py", """
            from repro.fix.obs import traced

            @traced("fix.step.seconds")
            def step():
                return 1
        """)
        graph = CallGraph([obs, caller])
        assert edges_of(graph, "repro.fix.caller.step") == \
            ["repro.fix.obs.traced"]


class TestSelfResolution:
    def test_self_method_resolves_in_enclosing_class(self):
        mod = summarize("repro/fix/box.py", """
            class Box:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
        """)
        graph = CallGraph([mod])
        assert edges_of(graph, "repro.fix.box.Box.outer") == \
            ["repro.fix.box.Box.inner"]

    def test_constructor_typed_attr_method_resolves_cross_module(self):
        reg = summarize("repro/fix/registry.py", """
            class Registry:
                def record(self):
                    self.total = 1
        """)
        owner = summarize("repro/fix/owner.py", """
            from repro.fix.registry import Registry

            class Owner:
                def __init__(self):
                    self._registry = Registry()

                def touch(self):
                    self._registry.record()
        """)
        graph = CallGraph([reg, owner])
        assert "repro.fix.registry.Registry.record" in \
            edges_of(graph, "repro.fix.owner.Owner.touch")

    def test_unresolvable_call_adds_no_edge(self):
        mod = summarize("repro/fix/loose.py", """
            def go(thing):
                return thing.run()
        """)
        graph = CallGraph([mod])
        assert edges_of(graph, "repro.fix.loose.go") == []


class TestGuardedTraversal:
    def test_lock_guarded_edge_does_not_extend_unguarded_frontier(self):
        mod = summarize("repro/fix/locky.py", """
            import threading

            class Shared:
                def __init__(self):
                    self._lock = threading.Lock()

                def entry_locked(self):
                    with self._lock:
                        self.mutate()

                def entry_bare(self):
                    self.mutate()

                def mutate(self):
                    self.state = 1
        """)
        graph = CallGraph([mod])
        locked = graph.reachable_unguarded(["repro.fix.locky.Shared.entry_locked"])
        bare = graph.reachable_unguarded(["repro.fix.locky.Shared.entry_bare"])
        assert "repro.fix.locky.Shared.mutate" not in locked
        assert "repro.fix.locky.Shared.mutate" in bare
        assert bare["repro.fix.locky.Shared.mutate"] == (
            "repro.fix.locky.Shared.entry_bare",
            "repro.fix.locky.Shared.mutate",
        )

    def test_reachable_chains_are_deterministic_shortest_paths(self):
        mod = summarize("repro/fix/diamond.py", """
            def a():
                b()
                c()

            def b():
                d()

            def c():
                d()

            def d():
                return 1
        """)
        graph = CallGraph([mod])
        chains = graph.reachable(["repro.fix.diamond.a"])
        # b sorts before c, so the recorded chain to d goes through b.
        assert chains["repro.fix.diamond.d"] == (
            "repro.fix.diamond.a", "repro.fix.diamond.b", "repro.fix.diamond.d")


class TestFunctionFacts:
    def test_impure_reads_and_self_writes(self):
        mod = summarize("repro/fix/facts.py", """
            import time
            from repro.fix.alpha import base

            class Keeper:
                def __init__(self):
                    self.n = 0

                def tick(self):
                    self.n += 1
                    return (base(), time.time())
        """)
        fact = CallGraph([mod]).functions["repro.fix.facts.Keeper.tick"]
        assert [i.qual for i in fact.impure] == ["time.time"]
        assert [w.attr for w in fact.writes] == ["n"]

"""The repo lints itself: tier-1 runs reprolint over ``src/repro``.

This is the static twin of the serial/parallel digest gate — the
determinism contract is enforced on the *source*, not just observed in
the outputs.  Three assertions:

1. Zero undisabled findings over the shipped package — including the
   whole-program RPL1xx flow rules.
2. Every suppression is accounted: only the sanctioned codes, only in
   the sanctioned files, and every pragma carries a justification
   (a justification-less pragma would surface as an RPL000 finding and
   fail assertion 1).
3. The JSON report is byte-deterministic across consecutive runs, the
   same bar :mod:`repro.obs.export` holds metric exports to.

The tests share one session-scoped lint of the package (``src_lint`` in
``conftest.py``); the determinism test lints it once more to compare.
"""

import json

from repro.lint import (
    ALL_CODES,
    FLOW_CODES,
    RULE_SUMMARIES,
    default_target,
    lint_paths,
    render_json,
    render_text,
)


def test_package_is_lint_clean(src_lint):
    result = src_lint
    assert result.files_checked > 50, "self-check must see the whole package"
    pretty = render_text(result)
    assert result.findings == [], (
        "reprolint found undisabled determinism-contract violations in "
        f"src/repro — fix them or add a justified pragma:\n{pretty}"
    )


def test_suppressions_are_rare_and_accounted(src_lint):
    # Pragmas are an escape hatch, not a lifestyle: the sanctioned
    # suppressions are the CLI's display-only elapsed-time banners
    # (RPL001) and the chaos layer's bounded endpoint-name label
    # (RPL105).  If this ceiling is hit, audit before raising it.
    result = src_lint
    assert 0 < len(result.suppressed) <= 10
    allowed = {"RPL001"} | (FLOW_CODES & {"RPL105"})
    assert {f.code for f in result.suppressed} <= allowed
    allowed_paths = {"repro/cli.py", "repro/faults/chaos.py"}
    assert {f.path for f in result.suppressed} <= allowed_paths
    # Flow-family suppressions specifically stay rare: the RPL1xx rules
    # are young enough that every carve-out should be structural
    # (config policy) rather than inline.
    flow_suppressed = [f for f in result.suppressed if f.code in FLOW_CODES]
    assert len(flow_suppressed) <= 2


def test_json_report_is_byte_deterministic(src_lint):
    first = render_json(src_lint)
    second = render_json(lint_paths([default_target()]))
    assert first.encode("utf-8") == second.encode("utf-8")
    head = json.loads(first.splitlines()[0])
    assert head == {"schema": "reprolint/3",
                    "files_checked": src_lint.files_checked,
                    "findings": 0,
                    "suppressed": len(src_lint.suppressed)}


def test_every_rule_has_a_summary():
    assert ALL_CODES == frozenset(RULE_SUMMARIES)
    expected = [f"RPL00{i}" for i in range(8)]
    expected += [f"RPL10{i}" for i in range(1, 6)]
    assert sorted(ALL_CODES) == expected
    assert FLOW_CODES < ALL_CODES

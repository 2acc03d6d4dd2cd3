"""The AST determinism linter (repro.analysis.lint)."""

import io
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, lint_source, main

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _codes(source, relpath="core/example.py"):
    return [d.code for d in lint_source(source, relpath)]


# -- TNG030: wall clock -------------------------------------------------------
def test_wall_clock_call_is_flagged():
    assert _codes("import time\nstart = time.time()\n") == ["TNG030"]
    assert _codes("t = time.perf_counter()\n") == ["TNG030"]
    assert _codes("from datetime import datetime\nd = datetime.now()\n") == ["TNG030"]


def test_wall_clock_allowed_inside_sim():
    assert _codes("import time\nstart = time.time()\n", "sim/clock.py") == []


def test_wall_clock_flagged_inside_perf():
    """The perf bench cases count deterministic ops only; wall time is
    measured outside the package, by tangobench/."""
    assert _codes("import time\nt = time.perf_counter()\n", "perf/harness.py") == [
        "TNG030"
    ]


def test_wall_clock_ns_variants_are_flagged():
    assert _codes("import time\nt = time.perf_counter_ns()\n") == ["TNG030"]
    assert _codes("import time\nt = time.monotonic_ns()\n") == ["TNG030"]
    assert _codes("import time\nt = time.time_ns()\n") == ["TNG030"]
    assert _codes("import time\nt = time.process_time_ns()\n") == ["TNG030"]


def test_wall_clock_ns_variants_flagged_inside_perf():
    assert _codes(
        "import time\nt = time.perf_counter_ns()\n", "perf/harness.py"
    ) == ["TNG030"]


def test_datetime_dotted_now_and_utcnow_are_flagged():
    assert _codes("import datetime\nd = datetime.datetime.now()\n") == ["TNG030"]
    assert _codes("import datetime\nd = datetime.datetime.utcnow()\n") == ["TNG030"]


def test_virtual_clock_reads_are_fine():
    assert _codes("now = clock.now_ms\n") == []


# -- TNG031: unseeded randomness ---------------------------------------------
def test_random_import_is_flagged():
    assert _codes("import random\n") == ["TNG031"]
    assert _codes("from random import shuffle\n") == ["TNG031"]


def test_numpy_module_level_random_is_flagged():
    assert _codes("import numpy as np\nx = np.random.random()\n") == ["TNG031"]
    assert _codes("gen = np.random.default_rng()\n") == ["TNG031"]


def test_random_allowed_in_rng_module():
    assert _codes("import numpy as np\ng = np.random.default_rng(0)\n", "sim/rng.py") == []


def test_seeded_rng_usage_is_fine():
    assert _codes("value = rng.uniform(0, 1)\n") == []


# -- TNG032: unordered iteration ---------------------------------------------
def test_for_over_set_call_is_flagged():
    assert _codes("for item in set(items):\n    use(item)\n") == ["TNG032"]


def test_for_over_set_literal_is_flagged():
    assert _codes("for item in {a, b}:\n    use(item)\n") == ["TNG032"]


def test_comprehension_over_set_is_flagged():
    assert _codes("out = [f(x) for x in frozenset(items)]\n") == ["TNG032"]


def test_sorted_set_iteration_is_fine():
    assert _codes("for item in sorted(set(items)):\n    use(item)\n") == []


def test_set_membership_is_fine():
    assert _codes("if x in {1, 2, 3}:\n    pass\n") == []


# -- TNG033: mutable defaults -------------------------------------------------
def test_mutable_default_list_is_flagged():
    assert _codes("def f(items=[]):\n    return items\n") == ["TNG033"]


def test_mutable_default_constructor_is_flagged():
    assert _codes("def f(cache=dict()):\n    return cache\n") == ["TNG033"]


def test_mutable_kwonly_default_is_flagged():
    assert _codes("def f(*, seen=set()):\n    return seen\n") == ["TNG033"]


def test_none_default_is_fine():
    assert _codes("def f(items=None):\n    return items or []\n") == []


def test_tuple_default_is_fine():
    assert _codes("def f(items=()):\n    return items\n") == []


# -- TNG034: unparseable source -----------------------------------------------
def test_syntax_error_is_reported_not_raised():
    (diag,) = lint_source("def broken(:\n", "core/oops.py").diagnostics
    assert diag.code == "TNG034"
    assert diag.location == "core/oops.py:1"


def test_syntax_error_does_not_abort_sibling_files(tmp_path):
    (tmp_path / "a_bad.py").write_text("def broken(:\n")
    (tmp_path / "b_good.py").write_text("import random\n")
    report = lint_paths([str(tmp_path)])
    assert sorted(d.code for d in report) == ["TNG031", "TNG034"]


def test_main_rejects_missing_target_cleanly():
    with pytest.raises(SystemExit) as excinfo:
        main(["/no/such/dir"], out=io.StringIO())
    assert excinfo.value.code == 2


# -- whole-package self-lint --------------------------------------------------
def test_src_repro_passes_the_determinism_linter():
    report = lint_paths([str(SRC_ROOT)])
    assert report.errors() == []
    assert report.warnings() == []


def test_main_exits_zero_on_clean_tree():
    out = io.StringIO()
    assert main([str(SRC_ROOT)], out=out) == 0
    assert "0 error(s)" in out.getvalue()


def test_main_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    out = io.StringIO()
    assert main([str(tmp_path)], out=out) == 1
    assert "TNG031" in out.getvalue()


def test_lint_reports_file_and_line_location():
    (code,) = lint_source("x = 1\nimport random\n", "apps/demo.py").diagnostics
    assert code.location == "apps/demo.py:2"


# -- TNG035: swallowed exceptions ---------------------------------------------
def test_bare_except_swallow_is_flagged():
    assert _codes("try:\n    f()\nexcept:\n    pass\n") == ["TNG035"]


def test_broad_except_swallow_is_flagged():
    assert _codes("try:\n    f()\nexcept Exception:\n    log()\n") == ["TNG035"]
    assert _codes("try:\n    f()\nexcept BaseException as e:\n    note(e)\n") == [
        "TNG035"
    ]


def test_broad_except_in_tuple_is_flagged():
    source = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
    assert _codes(source) == ["TNG035"]


def test_broad_except_that_reraises_is_fine():
    source = "try:\n    f()\nexcept Exception:\n    cleanup()\n    raise\n"
    assert _codes(source) == []


def test_broad_except_raising_other_exception_is_fine():
    source = "try:\n    f()\nexcept Exception as e:\n    raise RuntimeError(str(e))\n"
    assert _codes(source) == []


def test_narrow_except_swallow_is_fine():
    source = (
        "try:\n    f()\nexcept RetryGiveUpError:\n    pass\n"
        "try:\n    g()\nexcept (ValueError, KeyError):\n    pass\n"
    )
    assert _codes(source) == []


def test_nested_raise_inside_conditional_counts():
    source = (
        "try:\n    f()\nexcept Exception as e:\n"
        "    if fatal(e):\n        raise\n    else:\n        log(e)\n"
    )
    assert _codes(source) == []


# -- TNG041: module-level mutable state ----------------------------------------
def test_module_level_mutable_state_flagged_in_core():
    assert _codes("registry = {}\n") == ["TNG041"]
    assert _codes("pending = []\n", "sim/driver.py") == ["TNG041"]
    assert _codes("seen = set()\n") == ["TNG041"]
    assert _codes("queues = defaultdict(list)\n") == ["TNG041"]
    assert _codes("cache: dict = {}\n") == ["TNG041"]


def test_constant_convention_and_dunder_bindings_are_exempt():
    assert _codes("VENDOR_TABLE = {}\n") == []
    assert _codes("_PRIVATE_MAP = {'a': 1}\n") == []
    assert _codes("__all__ = ['x']\n") == []


def test_module_level_mutable_state_outside_scope_is_fine():
    assert _codes("registry = {}\n", "tools/cli.py") == []
    assert _codes("registry = {}\n", "analysis/lint.py") == []


def test_immutable_and_class_level_bindings_are_fine():
    assert _codes("origin = (0, 0)\n") == []
    assert _codes("class C:\n    shared = {}\n") == []
    assert _codes("def f():\n    local = {}\n    return local\n") == []


# -- TNG042: generator shared-state mutation -----------------------------------
def test_generator_mutating_global_is_flagged():
    source = (
        "def steps():\n"
        "    global shared\n"
        "    yield 'a'\n"
        "    shared = 1\n"
    )
    assert _codes(source) == ["TNG042"]


def test_generator_calling_mutating_method_on_global_is_flagged():
    source = (
        "def steps():\n"
        "    global shared\n"
        "    yield 'a'\n"
        "    shared.append(1)\n"
    )
    assert _codes(source) == ["TNG042"]


def test_generator_mutating_nonlocal_is_flagged():
    source = (
        "def outer():\n"
        "    count = 0\n"
        "    def steps():\n"
        "        nonlocal count\n"
        "        yield 'a'\n"
        "        count += 1\n"
        "    return steps\n"
    )
    assert _codes(source) == ["TNG042"]


def test_plain_function_mutating_global_is_not_a_generator_finding():
    source = "def f():\n    global shared\n    shared = 1\n"
    assert _codes(source) == []


def test_generator_with_local_state_only_is_fine():
    source = (
        "def steps():\n"
        "    local = []\n"
        "    yield 'a'\n"
        "    local.append(1)\n"
    )
    assert _codes(source) == []


# -- TNG043: object-identity ordering ------------------------------------------
def test_sorted_by_id_is_flagged():
    assert _codes("out = sorted(items, key=id)\n") == ["TNG043"]
    assert _codes("items.sort(key=id)\n") == ["TNG043"]
    assert _codes("best = min(items, key=id)\n") == ["TNG043"]


def test_lambda_id_key_is_flagged():
    assert _codes("out = sorted(items, key=lambda x: id(x))\n") == ["TNG043"]
    assert _codes("out = sorted(items, key=lambda x: (id(x), x.t))\n") == ["TNG043"]


def test_id_ordering_comparison_is_flagged():
    assert _codes("first = id(a) < id(b)\n") == ["TNG043"]
    assert _codes("if id(a) >= threshold:\n    pass\n") == ["TNG043"]


def test_id_equality_and_stable_keys_are_fine():
    assert _codes("same = id(a) == id(b)\n") == []
    assert _codes("out = sorted(items, key=lambda x: x.name)\n") == []
    assert _codes("out = sorted(items)\n") == []


# -- per-line suppression ------------------------------------------------------
def test_suppression_comment_silences_the_named_code():
    assert _codes("registry = {}  # tango-lint: disable=TNG041\n") == []


def test_suppression_comment_with_multiple_codes():
    source = "def f(x=[]):  # tango-lint: disable=TNG033,TNG041\n    return x\n"
    assert _codes(source) == []


def test_suppression_only_applies_to_named_code_and_line():
    # Wrong code named: the finding stays.
    assert _codes("registry = {}  # tango-lint: disable=TNG033\n") == ["TNG041"]
    # Different line: the finding stays.
    source = "# tango-lint: disable=TNG041\nregistry = {}\n"
    assert _codes(source) == ["TNG041"]


# -- --format json and exit codes ----------------------------------------------
def test_main_json_format_emits_machine_readable_report(tmp_path):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    out = io.StringIO()
    assert main([str(tmp_path), "--format", "json"], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["errors"] == 1
    assert payload["files"] == 1
    assert payload["diagnostics"][0]["code"] == "TNG031"


def test_main_json_format_on_clean_tree_exits_zero(tmp_path):
    import json

    (tmp_path / "ok.py").write_text("x = 1\n")
    out = io.StringIO()
    assert main([str(tmp_path), "--format", "json"], out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload == {
        "diagnostics": [],
        "errors": 0,
        "files": 1,
        "warnings": 0,
    }


def test_examples_and_benchmarks_pass_the_linter():
    repo_root = SRC_ROOT.parent.parent
    report = lint_paths(
        [str(repo_root / "examples"), str(repo_root / "benchmarks")]
    )
    assert report.errors() == []

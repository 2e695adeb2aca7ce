"""Tests for the AST determinism linter (``tools.lint``).

Each rule is exercised against minimal sources at paths inside and
outside the restricted layers, plus the suppression pragma and the CLI
entry point's exit codes.
"""

import textwrap
from pathlib import Path

from tools.lint import (
    ALL_RULES,
    lint_paths,
    lint_source,
    main,
    suppressed_rules,
)

SIM_PATH = "src/repro/sim/example.py"
CORE_PATH = "src/repro/core/runtime/example.py"
ANALYSIS_PATH = "src/repro/analysis/example.py"


def rules_hit(source, path=SIM_PATH):
    source = textwrap.dedent(source)
    return sorted({v.rule for v in lint_source(source, path, ALL_RULES)})


# ---------------------------------------------------------------- wallclock


def test_wallclock_flags_time_calls():
    src = """\
        import time
        def now():
            return time.time()
    """
    assert rules_hit(src) == ["wallclock"]
    assert rules_hit(src, path=CORE_PATH) == ["wallclock"]


def test_wallclock_flags_perf_counter_and_datetime():
    assert rules_hit("import time\nt = time.perf_counter()\n") \
        == ["wallclock"]
    assert rules_hit("import datetime\nd = datetime.datetime.now()\n") \
        == ["wallclock"]
    assert rules_hit("from time import monotonic\n") == ["wallclock"]
    assert rules_hit("from datetime import datetime\n") == ["wallclock"]


def test_wallclock_scoped_to_restricted_layers():
    src = "import time\nt = time.time()\n"
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path="tools/example.py") == []


def test_wallclock_exempts_the_clock_facade():
    src = "import time\nt = time.monotonic()\n"
    assert rules_hit(src, path="src/repro/sim/time.py") == []
    assert rules_hit(src, path="src/repro/sim/clock.py") == []


def test_wallclock_ignores_relative_and_harmless_imports():
    assert rules_hit("from .time import now_us\n") == []
    assert rules_hit("from time import struct_time\n") == []
    assert rules_hit("import time\nz = time.timezone\n") == []


# ---------------------------------------------------------- unseeded-random


def test_global_random_flagged_in_restricted_layers():
    src = "import random\nx = random.randint(0, 1)\n"
    assert rules_hit(src) == ["unseeded-random"]
    assert rules_hit(src, path=ANALYSIS_PATH) == []


def test_numpy_global_random_flagged():
    assert rules_hit("import numpy as np\nx = np.random.rand()\n") \
        == ["unseeded-random"]


def test_from_random_import_flagged_but_relative_exempt():
    assert rules_hit("from random import choice\n") == ["unseeded-random"]
    # The engine's own facade: `from .random import DeterministicRandom`.
    assert rules_hit("from .random import DeterministicRandom\n") == []
    assert rules_hit(
        "import random\n", path="src/repro/sim/random.py") == []


# ------------------------------------------------------------ set-iteration


def test_set_literal_iteration_flagged_everywhere():
    src = "for x in {1, 2, 3}:\n    pass\n"
    assert rules_hit(src) == ["set-iteration"]
    assert rules_hit(src, path=ANALYSIS_PATH) == ["set-iteration"]


def test_set_call_keys_view_and_comprehensions_flagged():
    assert rules_hit("for x in set(items):\n    pass\n") \
        == ["set-iteration"]
    assert rules_hit("for k in table.keys():\n    pass\n") \
        == ["set-iteration"]
    assert rules_hit("xs = [x for x in frozenset(items)]\n") \
        == ["set-iteration"]
    assert rules_hit("xs = {x for x in set(a) - b}\n") == ["set-iteration"]


def test_sorted_iteration_not_flagged():
    assert rules_hit("for x in sorted({1, 2, 3}):\n    pass\n") == []
    assert rules_hit("for x in items:\n    pass\n") == []


# ----------------------------------------------------------------- float-eq


def test_float_literal_equality_flagged():
    assert rules_hit("ok = deadline == 1.5\n") == ["float-eq"]
    assert rules_hit("ok = 0.25 != jitter\n") == ["float-eq"]


def test_int_equality_and_float_ordering_not_flagged():
    assert rules_hit("ok = deadline == 1\n") == []
    assert rules_hit("ok = deadline <= 1.5\n") == []


# ------------------------------------------------------------------ pragmas


def test_pragma_parses_rule_lists_and_star():
    assert suppressed_rules("x = 1  # lint: ignore[wallclock]") \
        == {"wallclock"}
    assert suppressed_rules("x = 1  # lint: ignore[a, b]") == {"a", "b"}
    assert suppressed_rules("x = 1  # lint: ignore[*]") == {"*"}
    assert suppressed_rules("x = 1  # plain comment") is None


def test_pragma_suppresses_only_named_rule():
    src = "import time\nt = time.time()  # lint: ignore[wallclock]\n"
    assert rules_hit(src) == []
    src = "import time\nt = time.time()  # lint: ignore[float-eq]\n"
    assert rules_hit(src) == ["wallclock"]
    src = "import time\nt = time.time()  # lint: ignore[*]\n"
    assert rules_hit(src) == []


# -------------------------------------------------------------- the engine


def test_syntax_error_reported_as_parse_error():
    assert rules_hit("def broken(:\n") == ["parse-error"]


def test_violation_str_is_grep_friendly():
    violation = lint_source("t = time.time()\n", SIM_PATH, ALL_RULES)[0]
    assert str(violation).startswith(f"{SIM_PATH}:1:")
    assert "wallclock" in str(violation)


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import time\nt = time.time()\n")
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "notes.txt").write_text("not python")
    violations = lint_paths([str(tmp_path)])
    assert [v.rule for v in violations] == ["wallclock"]
    assert violations[0].path.endswith("dirty.py")


def test_main_exit_codes(tmp_path, capsys):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import random\nx = random.random()\n")
    assert main([str(tmp_path)]) == 1
    assert "unseeded-random" in capsys.readouterr().out

    (pkg / "dirty.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_main_rejects_missing_paths(capsys):
    assert main(["/no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_shipped_tree_is_lint_clean():
    src = Path(__file__).resolve().parent.parent / "src"
    assert lint_paths([str(src)]) == []


def test_fastpath_module_is_in_lint_scope(tmp_path):
    """The online fast path lives in the determinism-critical layer: a
    wall-clock read or unseeded RNG sneaking into repro/perf/fastpath.py
    must be flagged (only perf/timing.py is sanctioned to read time)."""
    from tools.lint.rules import _in_restricted_layer

    assert _in_restricted_layer("src/repro/perf/fastpath.py")
    assert not _in_restricted_layer("src/repro/perf/timing.py")

    pkg = tmp_path / "repro" / "perf"
    pkg.mkdir(parents=True)
    (pkg / "fastpath.py").write_text(
        "import time\nstamp = time.monotonic()\n")
    violations = lint_paths([str(tmp_path)])
    assert [v.rule for v in violations] == ["wallclock"]


# ------------------------------------------- unsorted-node-iteration

MC_PATH = "src/repro/mc/example.py"
FAULTS_PATH = "src/repro/faults/example.py"


def test_unsorted_node_iteration_flags_dict_views():
    src = """\
        def merge(table):
            for node, state in table.items():
                print(node, state)
            return [v for v in table.values()]
    """
    assert rules_hit(src, path=MC_PATH) == ["unsorted-node-iteration"]
    assert rules_hit(src, path=FAULTS_PATH) == ["unsorted-node-iteration"]


def test_unsorted_node_iteration_accepts_sorted_views():
    src = """\
        def merge(table):
            for node, state in sorted(table.items()):
                print(node, state)
            return [table[k] for k in sorted(table)]
    """
    assert rules_hit(src, path=MC_PATH) == []


def test_unsorted_node_iteration_scope_and_pragma():
    src = "pairs = [v for v in table.values()]\n"
    # Outside the node-order-critical layers the rule stays silent.
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path=SIM_PATH) == []
    suppressed = ("pairs = [v for v in table.values()]"
                  "  # lint: ignore[unsorted-node-iteration]\n")
    assert rules_hit(suppressed, path=MC_PATH) == []


# --------------------------------------------- engine-schedule-bypass


def test_engine_schedule_bypass_flags_raw_calls():
    src = """\
        def handler(self, sim):
            sim.schedule(5, self.tick)
            self.sim.schedule(9, self.tock)
            self._sim.schedule(11, self.tack)
    """
    assert rules_hit(src, path=CORE_PATH) == ["engine-schedule-bypass"]
    assert rules_hit(src, path=MC_PATH) == ["engine-schedule-bypass"]
    assert rules_hit(src, path=FAULTS_PATH) == ["engine-schedule-bypass"]


def test_engine_schedule_bypass_accepts_call_at_and_scope():
    src = """\
        def handler(self, node):
            node.call_at(5, self.tick)
            self.plan.schedule.makespan()
            scheduler.schedule(5)
    """
    assert rules_hit(src, path=CORE_PATH) == []
    # The engine layer itself owns schedule(); the rule does not apply.
    raw = "sim.schedule(5, cb)\n"
    assert rules_hit(raw, path=SIM_PATH) == []
    suppressed = ("sim.schedule(5, cb)"
                  "  # lint: ignore[engine-schedule-bypass]\n")
    assert rules_hit(suppressed, path=CORE_PATH) == []


def test_mc_layer_is_in_restricted_scope():
    """repro/mc drives the deterministic engine: wall-clock and global
    RNG are as forbidden there as in sim/core."""
    from tools.lint.rules import _in_restricted_layer

    assert _in_restricted_layer("src/repro/mc/explorer.py")
    assert rules_hit("import time\nt = time.time()\n",
                     path=MC_PATH) == ["wallclock"]


# ------------------------------------------------- allocation-in-loop


BATCHCORE_PATH = "src/repro/perf/batchcore.py"
POOL_PATH = "src/repro/sim/message.py"


def test_allocation_in_loop_flags_constructors_and_displays():
    src = """\
        def emit(self, receivers):
            for rid in receivers:
                batch = Batch(rid)
                extras = []
                table = {}
            while self.pending:
                ids = [m.id for m in self.pending]
    """
    assert rules_hit(src, path=BATCHCORE_PATH) == ["allocation-in-loop"]
    assert rules_hit(src, path=POOL_PATH) == ["allocation-in-loop"]


def test_allocation_in_loop_accepts_pooled_steady_state():
    src = """\
        def emit(self, receivers):
            free = self.free
            for rid in receivers:
                batch = free.pop() if free else None
                batch.rid = rid
                self.sim_schedule(batch)
    """
    assert rules_hit(src, path=BATCHCORE_PATH) == []


def test_allocation_in_loop_scope_and_pragma():
    src = """\
        def grow(self, n):
            for _ in range(n):
                self.free.append(Message())
    """
    # Only the batched hot modules are in scope.
    assert rules_hit(src, path=CORE_PATH) == []
    assert rules_hit(src, path=SIM_PATH) == []
    suppressed = textwrap.dedent("""\
        def grow(self, n):
            for _ in range(n):
                self.free.append(Message())  # lint: ignore[allocation-in-loop]
    """)
    assert lint_source(suppressed, BATCHCORE_PATH, ALL_RULES) == []


def test_allocation_in_loop_outside_loops_is_fine():
    src = """\
        def begin(self):
            self.free = []
            self.batch = Batch()
    """
    assert rules_hit(src, path=BATCHCORE_PATH) == []


def test_scope_fragments_name_existing_modules():
    """Every path fragment a scoped rule keys off names a package or
    module under src/, so deleting a module cannot leave a stale scope
    behind."""
    from tools.lint import rules

    src = Path(__file__).resolve().parent.parent / "src"
    fragments = set()
    for scope in (rules.RESTRICTED_FRAGMENTS, rules.NODE_ORDER_FRAGMENTS,
                  rules.SCHEDULE_CLIENT_FRAGMENTS, rules.HOT_LOOP_FRAGMENTS,
                  rules.INT_TIME_FRAGMENTS):
        fragments.update(scope)
    for fragment in sorted(fragments):
        path = src / fragment.rstrip("/")
        assert path.is_dir() or path.with_suffix(".py").is_file(), fragment


def test_batchcore_is_in_schedule_and_node_order_scope():
    """The batched emitters feed the event queue directly, so the dict-view
    ordering rule and the schedule-bypass rule both watch it."""
    assert rules_hit("sim.schedule(5, cb)\n", path=BATCHCORE_PATH) \
        == ["engine-schedule-bypass"]
    assert rules_hit("pairs = [v for v in table.values()]\n",
                     path=BATCHCORE_PATH) == ["unsorted-node-iteration"]


# ------------------------------------------- float-time-arithmetic

BOUNDS_PATH = "src/repro/verify/bounds/analyzer.py"


def test_float_time_arithmetic_flags_division_and_float_literals():
    src = """\
        def detect(period, slack):
            mid = period / 2
            padded = period + 1.5
            return mid + padded
    """
    assert rules_hit(src, path=BOUNDS_PATH) == ["float-time-arithmetic"]


def test_float_time_arithmetic_accepts_integer_us():
    src = """\
        def detect(period, slack):
            mid = period // 2
            padded = period + slack * 3
            return -(-padded // 2)
    """
    assert rules_hit(src, path=BOUNDS_PATH) == []


def test_float_time_arithmetic_scope_and_pragma():
    src = "ratio = bound / empirical\n"
    # Only the bounds package is in scope: float arithmetic is fine in,
    # say, the analysis layer's reporting code.
    assert rules_hit(src, path=ANALYSIS_PATH) == []
    assert rules_hit(src, path=SIM_PATH) == []
    suppressed = ("ratio = bound / empirical"
                  "  # lint: ignore[float-time-arithmetic]\n")
    assert lint_source(suppressed, BOUNDS_PATH, ALL_RULES) == []


# --------------------------------------------------- JSON output


def test_violations_carry_column_numbers():
    src = textwrap.dedent("""\
        import time
        def now():
            return 1 + time.time()
    """)
    violations = lint_source(src, SIM_PATH, ALL_RULES)
    assert violations and violations[0].col > 0
    payload = violations[0].to_dict()
    assert set(payload) == {"path", "line", "col", "rule", "message"}
    assert payload["col"] == violations[0].col


def test_main_format_json(tmp_path, capsys):
    import json

    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import random\nx = random.random()\n")
    assert main(["--format=json", str(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked_files"] == 1
    [violation] = report["violations"]
    assert violation["rule"] == "unseeded-random"
    assert violation["line"] == 2 and violation["col"] > 0

    (pkg / "dirty.py").write_text("x = 1\n")
    assert main(["--format=json", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"checked_files": 1, "violations": []}


def test_main_list_rules_json(capsys):
    import json

    assert main(["--list-rules", "--format=json"]) == 0
    catalogue = json.loads(capsys.readouterr().out)
    assert {r["id"] for r in catalogue} == {r.id for r in ALL_RULES}


# ------------------------------------------------------------ builtin-hash


def test_builtin_hash_flagged_across_the_package():
    src = "def tag(evidence_id):\n    return hash(evidence_id) & 0xFFFFFFFF\n"
    assert rules_hit(src) == ["builtin-hash"]
    assert rules_hit(src, path=CORE_PATH) == ["builtin-hash"]
    assert rules_hit(src, path=ANALYSIS_PATH) == ["builtin-hash"]


def test_builtin_hash_accepts_stable_digests_and_scope():
    stable = """\
        import hashlib
        import zlib
        def tag(evidence_id):
            digest = hashlib.sha256(evidence_id.encode()).hexdigest()
            return zlib.crc32(evidence_id.encode()), digest, obj.hash()
    """
    assert rules_hit(stable) == []
    # Outside the package (tools, tests) the rule does not apply.
    assert rules_hit("k = hash('x')\n", path="tools/example.py") == []


def test_builtin_hash_pragma():
    suppressed = "k = hash(key)  # lint: ignore[builtin-hash]  dict key\n"
    assert lint_source(suppressed, SIM_PATH, ALL_RULES) == []

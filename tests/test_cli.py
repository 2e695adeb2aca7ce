"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import main, make_topology


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ----------------------------------------------------------------- topology


def test_make_topology_specs():
    assert len(make_topology("fullmesh:5", 1e8).nodes) == 5
    assert len(make_topology("ring:6", 1e8).nodes) == 6
    assert len(make_topology("mesh:2x3", 1e8).nodes) == 6
    assert len(make_topology("dualstar:4", 1e8).nodes) == 6
    assert len(make_topology("bus:4", 1e8).nodes) == 4


def test_make_topology_rejects_unknown():
    with pytest.raises(SystemExit):
        make_topology("torus:9", 1e8)


# --------------------------------------------------------------------- plan


def test_cli_plan(capsys):
    code, out = run_cli(capsys, "plan", "--workload", "industrial",
                        "--topology", "fullmesh:7")
    assert code == 0
    assert "nominal" in out
    assert "faulty:" in out
    assert "recovery budget" in out


def test_cli_plan_avionics_shows_criticality(capsys):
    code, out = run_cli(capsys, "plan", "--workload", "avionics",
                        "--topology", "fullmesh:8", "--bandwidth", "2e8")
    assert code == 0
    assert "ABCD" in out


# ---------------------------------------------------------------------- run


def test_cli_run_fault_free(capsys):
    code, out = run_cli(capsys, "run", "--periods", "10")
    assert code == 0
    assert "Definition 3.1 holds" in out
    assert "True" in out
    assert "0.000s" in out  # no recovery needed


def test_cli_run_with_fault(capsys):
    code, out = run_cli(capsys, "run", "--periods", "24",
                        "--fault", "commission", "--fault-at", "0.22")
    assert code == 0  # BTR holds -> exit 0
    assert "1 faults" in out


def test_cli_run_rejects_unknown_fault(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--fault", "gremlins"])


def test_cli_run_report_is_trace_mode_independent(capsys):
    argv = ("run", "--periods", "12", "--scenario", "single_commission")
    code_full, out_full = run_cli(capsys, *argv)
    code_miles, out_miles = run_cli(capsys, *argv, "--trace-mode",
                                    "milestones")
    assert code_full == code_miles == 0
    # The report (verdict, timeline, message census) reads only what
    # milestone traces keep, so it is identical text either way.
    assert out_miles == out_full


# ------------------------------------------------------------------ compare


def test_cli_compare(capsys):
    code, out = run_cli(capsys, "compare", "--periods", "16",
                        "--fault", "crash")
    assert code == 0
    for name in ("btr", "unreplicated", "bft", "zz", "selfstab",
                 "crash_restart"):
        assert name in out
    assert "recovery" in out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_plan_export(tmp_path, capsys):
    out_file = tmp_path / "strategy.json"
    code, out = run_cli(capsys, "plan", "--export", str(out_file))
    assert code == 0
    assert "strategy written" in out
    from repro.core.planner import strategy_from_json
    restored = strategy_from_json(out_file.read_text())
    assert len(restored) >= 1


# -------------------------------------------------------------------- trace


def test_cli_trace_missing_file(tmp_path, capsys):
    code = main(["trace", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read report" in err


def test_cli_trace_truncated_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"version": 1, "faults": [')
    code = main(["trace", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "truncated" in err


def test_cli_trace_structurally_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1, "faults": [{"node": "n1"}], '
                    '"period_us": 1, "n_periods": 1, "duration_us": 1, '
                    '"budget": null, "metrics": {}}')
    code = main(["trace", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "faults[0]" in err


def test_cli_trace_renders_valid_report(tmp_path, capsys):
    obs = tmp_path / "run.json"
    code = main(["run", "--workload", "pipeline", "--topology",
                 "fullmesh:4", "--periods", "12", "--fault", "crash",
                 "--fault-at", "0.05", "--obs", str(obs)])
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "trace", str(obs))
    assert code == 0
    assert "Recovery phase breakdown" in out


# -------------------------------------------------------------------- check

CHECK_SMOKE = ["check", "--workload", "pipeline", "--topology",
               "fullmesh:4", "--ticks", "1", "--max-depth", "1",
               "--branch", "2", "--max-states", "30"]


def test_cli_check_certifies(capsys):
    code, out = run_cli(capsys, *CHECK_SMOKE, "--kinds", "crash")
    assert code == 0
    assert "CERTIFIED" in out


def test_cli_check_counterexample_and_replay(tmp_path, capsys):
    cex_dir = tmp_path / "cex"
    code, out = run_cli(capsys, *CHECK_SMOKE, "--kinds", "commission",
                        "--R", "0.03", "--cex-dir", str(cex_dir),
                        "--report", str(tmp_path / "report.json"))
    assert code == 1
    assert "NOT CERTIFIED" in out
    assert "replay-confirmed" in out
    artifacts = sorted(cex_dir.glob("cex_*.json"))
    assert artifacts
    code, out = run_cli(capsys, "check", "--replay", str(artifacts[0]))
    assert code == 1
    assert "replay CONFIRMS" in out


def test_cli_check_replay_rejects_bad_artifact(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2]")
    code = main(["check", "--replay", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot replay artifact" in err


def test_cli_check_rejects_bad_bounds(capsys):
    code = main(["check", "--ticks", "0"])
    assert code == 2

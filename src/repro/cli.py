"""Command-line interface: ``python -m repro <command>``.

Four commands:

``plan``
    Run the offline planner and print the strategy: one row per fault
    pattern with its kept criticality levels and shed tasks, plus the
    achievable recovery budget.

``run``
    Execute a deployment, optionally under a fault, and print the
    Definition 3.1 verdict, recovery time, and timeliness report.

``compare``
    Run BTR and every baseline through the same fault and print the
    comparison table (recovery, output correctness, traffic).

``verify``
    Statically verify a strategy (freshly planned, or a ``plan
    --export`` artifact) against the rule catalogue in
    :mod:`repro.verify`: schedule soundness, placement validity,
    route/bandwidth feasibility, mode-graph completeness. Exits
    nonzero on any error finding (and on warnings with ``--strict``).

``trace``
    Render a saved observability report (``run --obs FILE``): the
    per-fault recovery phase breakdown, the budget-attribution table,
    and any dropped-message counters.

``check``
    Bounded model checking of the mode-switch protocol: explore the
    product space of adversary choices × delivery orderings on a small
    config, check the ``kR`` bound, agreement, and mode reachability on
    every path, and either certify the config or emit a minimised,
    replay-confirmed counterexample. Exits 0 when certified, 1 on
    violations (or truncation), 2 on usage errors.

``fuzz``
    Coverage-guided adversary fuzzing (``campaign`` / ``replay`` /
    ``corpus-check``): a seeded generator mutates fault scripts along
    the adversary's axes, climbs a recovery-timeline fitness signal
    toward the ``kR`` bound, and emits minimised, replay-confirmed
    counterexamples into a corpus of regression benchmarks.
    ``campaign`` exits 1 when it finds a violation; ``corpus-check``
    exits 1 when any checked-in entry stops reproducing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from . import BTRConfig, BTRSystem
from .analysis import (
    btr_verdict,
    format_table,
    smallest_sufficient_R,
    timeliness,
    traffic_bits,
)
from .baselines import (
    BFTSystem,
    CrashRestartSystem,
    SelfStabilizingSystem,
    UnreplicatedSystem,
    ZZSystem,
)
from .faults import BEHAVIOR_FACTORIES, SingleFaultAdversary
from .net import (
    bus_topology,
    dual_star_topology,
    full_mesh_topology,
    geo_topology,
    line_topology,
    mesh_topology,
    ring_topology,
    star_topology,
)
from .sim import TRACE_MODES, seconds, to_seconds
from .workload import (
    automotive_workload,
    avionics_workload,
    industrial_workload,
    pipeline_workload,
    power_grid_workload,
    stretched_workload,
)

WORKLOADS: Dict[str, Callable] = {
    "industrial": industrial_workload,
    "avionics": avionics_workload,
    "automotive": automotive_workload,
    "pipeline": pipeline_workload,
    "power_grid": power_grid_workload,
}

BASELINES = {
    "unreplicated": UnreplicatedSystem,
    "bft": BFTSystem,
    "zz": ZZSystem,
    "selfstab": SelfStabilizingSystem,
    "crash_restart": CrashRestartSystem,
}


def make_topology(spec: str, bandwidth: float):
    """Parse a topology spec like ``fullmesh:7``, ``mesh:3x3``,
    ``geo:3x8`` (regions x nodes-per-region), ``ring:6``."""
    kind, _, arg = spec.partition(":")
    builders = {
        "fullmesh": lambda a: full_mesh_topology(int(a), bandwidth=bandwidth),
        "ring": lambda a: ring_topology(int(a), bandwidth=bandwidth),
        "line": lambda a: line_topology(int(a), bandwidth=bandwidth),
        "star": lambda a: star_topology(int(a), bandwidth=bandwidth),
        "bus": lambda a: bus_topology(int(a), bandwidth=bandwidth),
        "dualstar": lambda a: dual_star_topology(int(a),
                                                 bandwidth=bandwidth),
        "mesh": lambda a: mesh_topology(*map(int, a.split("x")),
                                        bandwidth=bandwidth),
        "geo": lambda a: geo_topology(*map(int, a.split("x")),
                                      bandwidth=bandwidth),
    }
    try:
        return builders[kind](arg or "7")
    except KeyError:
        raise SystemExit(
            f"unknown topology {kind!r}; choose from "
            f"{', '.join(sorted(builders))}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded-time recovery (BTR) for cyber-physical "
                    "systems — HotOS XV reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="industrial")
        p.add_argument("--topology", default="fullmesh:7",
                       help="e.g. fullmesh:7, ring:6, mesh:3x3")
        p.add_argument("--bandwidth", type=float, default=1e8,
                       help="raw link bandwidth in bit/s")
        p.add_argument("--f", type=int, default=1, dest="f",
                       help="fault budget")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for offline planning "
                            "(0 = all cores; the strategy is "
                            "byte-identical for every value)")
        p.add_argument("--cache", metavar="DIR", default=None,
                       help="strategy cache directory (default: "
                            "$REPRO_STRATEGY_CACHE if set)")
        p.add_argument("--no-cache", action="store_true",
                       help="replan even if $REPRO_STRATEGY_CACHE is set")
        p.add_argument("--memo", action="store_true",
                       help="memoise symmetric fault patterns (opt-in; "
                            "verifier-clean, may differ from exhaustive "
                            "planning)")
        p.add_argument("--stretch", type=int, default=1, metavar="K",
                       help="run the workload at Kx slower periods and "
                            "deadlines (geo deployments: WAN latency "
                            "must fit inside control deadlines)")
        p.add_argument("--trace-mode", choices=list(TRACE_MODES),
                       default="full",
                       help="trace recording fidelity: full keeps every "
                            "event, milestones keeps recovery milestones "
                            "and tallies per-hop traffic, counts-only "
                            "keeps tallies alone")

    plan = sub.add_parser("plan", help="run the offline planner")
    common(plan)
    plan.add_argument("--export", metavar="FILE", default=None,
                      help="write the strategy (the per-node artifact) "
                           "as JSON")

    run = sub.add_parser("run", help="run a deployment")
    common(run)
    run.add_argument("--periods", type=int, default=30)
    run.add_argument("--fault", choices=sorted(BEHAVIOR_FACTORIES),
                     default=None, help="inject one fault of this kind")
    run.add_argument("--fault-at", type=float, default=0.22,
                     help="fault injection time in seconds")
    run.add_argument("--timeline", action="store_true",
                     help="print the incident timeline")
    run.add_argument("--scenario", default=None,
                     help="stage a named scenario (see repro.faults."
                          "scenarios) instead of --fault")
    run.add_argument("--obs", metavar="FILE", default=None,
                     help="export the observability report (recovery "
                          "timelines + metrics) as JSON; render it with "
                          "`repro trace FILE`")

    compare = sub.add_parser("compare",
                             help="BTR vs baselines through one fault")
    common(compare)
    compare.add_argument("--periods", type=int, default=30)
    compare.add_argument("--fault", choices=sorted(BEHAVIOR_FACTORIES),
                         default="commission")
    compare.add_argument("--fault-at", type=float, default=0.22)

    verify = sub.add_parser(
        "verify", help="statically verify a strategy (plans + mode graph)")
    common(verify)
    verify.add_argument("--strategy", metavar="FILE", default=None,
                        help="verify an exported strategy JSON instead of "
                             "planning afresh")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    verify.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    verify.add_argument("--waive", action="append", default=[],
                        metavar="RULE[:SUBJECT]",
                        help="drop findings of RULE (optionally only for "
                             "SUBJECT) before the verdict; repeatable. "
                             "Use to accept a documented hazard without "
                             "giving up --strict for everything else")

    bounds = sub.add_parser(
        "bounds", help="analytic worst-case recovery bounds (Layer 4) "
                       "per fault class and mode, vs the planned budget")
    common(bounds)
    bounds.add_argument("--R", type=float, default=None, dest="R",
                        metavar="SECONDS",
                        help="pin the promised recovery bound R "
                             "(default: the computed budget); pinning "
                             "makes bound.exceeds-budget fatal")
    bounds.add_argument("--json", metavar="FILE", default=None,
                        help="export the bounds report as JSON")

    trace = sub.add_parser(
        "trace", help="render a saved observability report")
    trace.add_argument("report", metavar="RUN_JSON",
                       help="a report written by `repro run --obs FILE`")

    check = sub.add_parser(
        "check", help="bounded model checking of the mode-switch protocol")
    common(check)
    check.add_argument("--periods", type=int, default=0,
                       help="simulated periods per path (0 = auto-size so "
                            "the latest injection plus a full recovery "
                            "budget fits)")
    check.add_argument("--kinds", nargs="+", metavar="KIND",
                       choices=sorted(BEHAVIOR_FACTORIES),
                       default=["crash", "commission"],
                       help="fault kinds the adversary may pick")
    check.add_argument("--window", nargs=2, type=float, default=[2.0, 3.0],
                       metavar=("LO", "HI"),
                       help="injection window in periods: faults land in "
                            "[LO*P, HI*P]")
    check.add_argument("--ticks", type=int, default=2,
                       help="injection ticks sampled across the window")
    check.add_argument("--max-depth", type=int, default=2,
                       help="max delivery perturbations along one path")
    check.add_argument("--branch", type=int, default=3,
                       help="max candidate perturbations per expansion")
    check.add_argument("--delay-quantum-us", type=int, default=2000,
                       help="extra delay per perturbation, microseconds")
    check.add_argument("--max-states", type=int, default=400,
                       help="per-cell path cap; exceeding it leaves the "
                            "campaign uncertified")
    check.add_argument("--workers", type=int, default=1,
                       help="worker processes for the cell fan-out (the "
                            "report is byte-identical for every value)")
    check.add_argument("--R", type=float, default=None, dest="R",
                       help="recovery bound to check, in seconds "
                            "(default: the prepared budget)")
    check.add_argument("--k", type=int, default=1,
                       help="adversary strength multiplier: bound is k*R")
    check.add_argument("--no-prune", action="store_true",
                       help="disable sleep-set pruning of commuting "
                            "deliveries (explores the pruned branches too)")
    check.add_argument("--no-nominal", action="store_true",
                       help="skip the fault-free cell")
    check.add_argument("--report", metavar="FILE", default=None,
                       help="write the full campaign report as JSON")
    check.add_argument("--cex-dir", metavar="DIR", default=None,
                       help="write each counterexample artifact into DIR")
    check.add_argument("--replay", metavar="FILE", default=None,
                       help="replay a counterexample artifact through the "
                            "normal run path instead of exploring")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided adversary fuzzing")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_campaign = fuzz_sub.add_parser(
        "campaign", help="run one seeded fuzz campaign")
    common(fuzz_campaign)
    fuzz_campaign.add_argument(
        "--periods", type=int, default=0,
        help="simulated periods per run (0 = auto-size so the latest "
             "injection plus the recovery budgets fits)")
    fuzz_campaign.add_argument(
        "--kinds", nargs="+", metavar="KIND",
        choices=sorted(BEHAVIOR_FACTORIES),
        default=["crash", "commission", "omission", "timing"],
        help="fault kinds the mutator may pick")
    fuzz_campaign.add_argument(
        "--window", nargs=2, type=float, default=[2.0, 3.0],
        metavar=("LO", "HI"),
        help="injection window in periods: faults land in [LO*P, HI*P]")
    fuzz_campaign.add_argument(
        "--ticks", type=int, default=2,
        help="injection ticks the seed population samples")
    fuzz_campaign.add_argument(
        "--generations", type=int, default=4,
        help="mutation generations after the seed generation")
    fuzz_campaign.add_argument(
        "--batch", type=int, default=8,
        help="mutants generated per generation")
    fuzz_campaign.add_argument(
        "--elite", type=int, default=4,
        help="top-fitness survivors eligible as mutation parents")
    fuzz_campaign.add_argument(
        "--max-injections", type=int, default=1,
        help="max injections per script (the paper's k)")
    fuzz_campaign.add_argument(
        "--R", type=float, default=None, dest="R",
        help="recovery bound to check, in seconds "
             "(default: the prepared budget)")
    fuzz_campaign.add_argument(
        "--k", type=int, default=1,
        help="adversary strength multiplier: bound is k*R")
    fuzz_campaign.add_argument(
        "--max-artifacts", type=int, default=8,
        help="cap on minimised counterexample artifacts")
    fuzz_campaign.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for candidate evaluation (the report is "
             "byte-identical for every value)")
    fuzz_campaign.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the full campaign report as JSON")
    fuzz_campaign.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="write each replay-confirmed counterexample into DIR "
             "(content-named, append-only)")

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-manifest one saved counterexample")
    common(fuzz_replay)
    fuzz_replay.add_argument("artifact", metavar="FILE",
                             help="a counterexample artifact JSON")

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus-check",
        help="replay every corpus entry (the regression gate)")
    common(fuzz_corpus)
    fuzz_corpus.add_argument("--corpus", metavar="DIR", default="corpus",
                             help="corpus directory (default: corpus)")
    fuzz_corpus.add_argument("--report", metavar="FILE", default=None,
                             help="write the check report as JSON")
    return parser


def workload_from_args(args):
    """The workload selected by the common CLI flags, stretched to
    ``--stretch``x periods/deadlines (see
    :func:`~repro.workload.stretched_workload`)."""
    workload = WORKLOADS[args.workload]()
    if getattr(args, "stretch", 1) > 1:
        workload = stretched_workload(workload, args.stretch)
    return workload


def config_from_args(args) -> BTRConfig:
    """The BTRConfig encoded by the common CLI flags."""
    cache = None
    if not args.no_cache:
        if args.cache is not None:
            cache = args.cache
        else:
            from .perf import default_cache_dir
            cache = default_cache_dir()
    return BTRConfig(f=args.f, seed=args.seed, planner_jobs=args.jobs,
                     cache=cache, symmetry_memo=args.memo,
                     trace_mode=args.trace_mode)


def cmd_plan(args) -> int:
    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    system = BTRSystem(workload, topology, config_from_args(args))
    budget = system.prepare()
    rows = []
    for pattern in system.strategy.patterns():
        plan = system.strategy.plan_for(pattern)
        shed = plan.shed_tasks(workload)
        rows.append([
            plan.mode,
            "".join(sorted(l.value for l in plan.kept_levels)),
            f"{plan.schedule.makespan() / 1000:.1f}ms",
            ", ".join(shed) if shed else "-",
        ])
    print(format_table(
        f"Strategy: {len(system.strategy)} plans "
        f"({args.workload} on {args.topology}, f={args.f})",
        ["mode", "kept", "makespan", "shed tasks"], rows,
    ))
    print(f"recovery budget: {to_seconds(budget.total_us):.3f}s "
          f"(detection {to_seconds(budget.detection_us):.3f}s, "
          f"distribution {to_seconds(budget.distribution_us):.3f}s, "
          f"switch {to_seconds(budget.switch_us):.3f}s, "
          f"settling {to_seconds(budget.settling_us):.3f}s)")
    stats = system.plan_stats
    if stats is not None:
        if stats.cache_hit:
            how = f"cache hit ({stats.cache_key[:12]})"
        else:
            how = (f"{stats.plans_computed} computed"
                   + (f", {stats.plans_memoised} memoised"
                      if stats.plans_memoised else "")
                   + f", jobs={stats.jobs}")
        print(f"planning: {stats.wall_s:.3f}s wall ({how})")
    if args.export:
        from .core.planner import strategy_to_json
        with open(args.export, "w") as f:
            f.write(strategy_to_json(system.strategy, indent=2))
        print(f"strategy written to {args.export}")
    return 0


def cmd_run(args) -> int:
    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    system = BTRSystem(workload, topology, config_from_args(args))
    budget = system.prepare()
    adversary = None
    link_script = None
    if args.scenario:
        from .faults import stage
        scenario = stage(args.scenario, system)
        print(f"scenario: {scenario.name} - {scenario.description}")
        adversary = scenario.script
        link_script = scenario.link_script or None
    elif args.fault:
        adversary = SingleFaultAdversary(at=seconds(args.fault_at),
                                         kind=args.fault)
    result = system.run(n_periods=args.periods, adversary=adversary,
                        link_script=link_script)
    print(result.summary())
    verdict = btr_verdict(result, R_us=budget.total_us)
    report = timeliness(result)
    print(f"Definition 3.1 holds at R={to_seconds(budget.total_us):.3f}s: "
          f"{verdict.holds}")
    print(f"empirical recovery: "
          f"{to_seconds(smallest_sufficient_R(result)):.3f}s")
    print(f"timeliness: {report.on_time}/{report.total_slots} on time "
          f"({report.miss_rate:.1%} missed)")
    if args.timeline:
        from .analysis import render_timeline
        print("\nincident timeline:")
        print(render_timeline(result))
    if args.obs:
        from .obs import export_run
        export_run(result, args.obs)
        print(f"observability report written to {args.obs} "
              f"(render with: repro trace {args.obs})")
    return 0 if verdict.holds else 1


def cmd_trace(args) -> int:
    from .obs import load_report, render_phase_report

    try:
        report = load_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"repro trace: cannot read report: {exc}", file=sys.stderr)
        return 2
    print(render_phase_report(report))
    return 0


def cmd_verify(args) -> int:
    from .net import Router
    from .verify import RULES, verify_strategy

    if args.rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id]}")
        return 0

    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    config = config_from_args(args)
    budget = None
    if args.strategy:
        from .core.planner import strategy_from_json
        from .sched import LaneModel
        try:
            with open(args.strategy) as f:
                strategy = strategy_from_json(f.read())
        except OSError as exc:
            print(f"repro verify: cannot read strategy file: {exc}",
                  file=sys.stderr)
            return 2
        if not set(workload.sources) <= set(topology.endpoint_map):
            topology.place_endpoints_round_robin(workload.sources,
                                                 workload.sinks)
        router = Router(topology)
        lane_model = LaneModel(topology, config.lanes)
        origin = args.strategy
    else:
        system = BTRSystem(workload, topology, config)
        system.prepare()
        strategy = system.strategy
        router = system.router
        lane_model = system.lane_model
        budget = system.budget
        origin = "freshly planned"
        if system.plan_stats is not None and system.plan_stats.cache_hit:
            origin = "from cache"

    report = verify_strategy(strategy, topology, router=router,
                             config=config, lane_model=lane_model,
                             budget=budget)
    if args.waive:
        report = report.waive(args.waive)
    print(report.render(
        title=(f"repro verify: {len(strategy)} plans, f={strategy.f} "
               f"({args.workload} on {args.topology}, {origin})")))
    return report.exit_code(strict=args.strict)


def cmd_bounds(args) -> int:
    from .verify.bounds import compute_bounds

    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    system = BTRSystem(workload, topology, config_from_args(args))
    system.prepare()
    # Pin R on the *analysis* config only: prepare() rejects a pinned
    # R the budget cannot meet, but the whole point of
    # ``repro bounds --R`` is to report how far an aspirational R
    # falls short, so the comparison happens after planning.
    bounds_config = system.config
    if args.R is not None:
        from dataclasses import replace
        bounds_config = replace(system.config, R_us=seconds(args.R))
    report = compute_bounds(system.strategy, system.topology,
                            system.lane_model, bounds_config,
                            budget=system.budget)
    print(report.render(
        title=(f"repro bounds: f={report.f}, period={report.period_us}us "
               f"({args.workload} on {args.topology})")))
    if args.json:
        import json
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bounds report written to {args.json}")
    return 1 if report.exceeding() else 0


def cmd_compare(args) -> int:
    fault_at = seconds(args.fault_at)
    rows = []

    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    system = BTRSystem(workload, topology, config_from_args(args))
    system.prepare()
    result = system.run(args.periods,
                        SingleFaultAdversary(at=fault_at, kind=args.fault))
    rows.append(_compare_row("btr", result, args))

    for name, cls in BASELINES.items():
        workload = workload_from_args(args)
        topology = make_topology(args.topology, args.bandwidth)
        baseline = cls(workload, topology, f=args.f, seed=args.seed)
        baseline.prepare()
        result = baseline.run(
            args.periods,
            SingleFaultAdversary(at=fault_at, kind=args.fault))
        rows.append(_compare_row(name, result, args))

    print(format_table(
        f"One {args.fault} fault at t={args.fault_at}s "
        f"({args.workload} on {args.topology}, f={args.f})",
        ["system", "recovery", "on-time outputs", "data traffic"],
        rows,
    ))
    return 0


def _compare_row(name: str, result, args) -> List[str]:
    recovery = smallest_sufficient_R(result, excused_flows={})
    horizon = (args.periods - 1) * result.workload.period
    never = recovery >= horizon - seconds(args.fault_at)
    report = timeliness(result)
    data_bits = traffic_bits(result).get("data", 0)
    return [
        name,
        "never" if never else f"{to_seconds(recovery):.3f}s",
        f"{report.on_time}/{report.total_slots}",
        f"{data_bits / 1e6:.2f} Mbit",
    ]


def _system_for_meta(meta: dict, args) -> BTRSystem:
    """A prepared system on the deployment an artifact's meta pins.

    CLI flags fill any gaps so hand-built artifacts remain replayable.
    """
    from dataclasses import replace

    workload = WORKLOADS[meta.get("workload", args.workload)]()
    topology = make_topology(meta.get("topology", args.topology),
                             meta.get("bandwidth", args.bandwidth))
    config = config_from_args(args)
    if "f" in meta or "seed" in meta:
        config = replace(config, f=meta.get("f", config.f),
                         seed=meta.get("seed", config.seed))
    system = BTRSystem(workload, topology, config)
    system.prepare()
    return system


def _replay_artifact(path: str, args) -> int:
    """Re-manifest a saved counterexample through the normal run path."""
    import json

    from .mc import replay_counterexample
    from .mc.counterexample import counterexample_from_dict

    try:
        with open(path) as f:
            payload = json.load(f)
        cell, deliveries = counterexample_from_dict(payload)
    except (OSError, ValueError) as exc:
        print(f"repro check: cannot replay artifact: {exc}",
              file=sys.stderr)
        return 2
    system = _system_for_meta(payload.get("meta") or {}, args)
    violations, result = replay_counterexample(system, payload)
    print(f"replaying {cell.label()} with "
          f"{len(deliveries)} delivery perturbation(s) over "
          f"{payload['n_periods']} periods (R={payload['R_us']}us, "
          f"k={payload['k']})")
    print(result.summary())
    if violations:
        print(f"replay CONFIRMS {len(violations)} violation(s):")
        for violation in violations:
            print(f"  [{violation.invariant}] {violation.detail}")
        return 1
    print("replay does NOT reproduce the violation")
    return 0


def cmd_check(args) -> int:
    import json
    import os

    if args.replay:
        return _replay_artifact(args.replay, args)

    from .mc import CheckParams, run_campaign

    if args.ticks < 1 or args.max_depth < 0 or args.branch < 1 \
            or args.max_states < 1 or args.delay_quantum_us < 1:
        print("repro check: bounds must be positive", file=sys.stderr)
        return 2
    params = CheckParams(
        kinds=tuple(sorted(set(args.kinds))),
        window=(args.window[0], args.window[1]),
        ticks=args.ticks,
        max_depth=args.max_depth,
        branch=args.branch,
        delay_quantum_us=args.delay_quantum_us,
        max_paths=args.max_states,
        n_periods=args.periods,
        R_us=None if args.R is None else seconds(args.R),
        k=args.k,
        prune=not args.no_prune,
        include_fault_free=not args.no_nominal,
        workers=args.workers,
        seed=args.seed,
    )
    meta = {"workload": args.workload, "topology": args.topology,
            "bandwidth": args.bandwidth, "f": args.f, "seed": args.seed}
    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    report, stats = run_campaign(workload, topology,
                                 config_from_args(args),
                                 params=params, meta=meta)

    totals = report["totals"]
    dedup_rate = (totals["dedup_hits"] / totals["paths"]
                  if totals["paths"] else 0.0)
    print(f"repro check: {args.workload} on {args.topology}, f={args.f}, "
          f"R={report['params']['R_us']}us, k={report['params']['k']}, "
          f"{report['params']['n_periods']} periods/path")
    print(f"explored {totals['paths']} paths in {totals['cells']} cells: "
          f"{totals['distinct_states']} distinct states, "
          f"dedup hit-rate {dedup_rate:.0%}, "
          f"{totals['pruned']} branches pruned "
          f"({stats.wall_s:.2f}s wall, "
          f"{stats.states_per_sec:.1f} paths/s, "
          f"workers={stats.workers}"
          + (", pool fallback" if stats.pool_fallback else "") + ")")
    for violation in report["static_violations"]:
        print(f"  [static] [{violation['invariant']}] "
              f"{violation['detail']}")

    counterexamples = []
    for cell in report["cells"]:
        if cell["truncated"]:
            print(f"  {cell['cell']} truncated at "
                  f"{cell['paths']} paths — raise --max-states to certify")
        artifact = cell.get("counterexample")
        if artifact is None:
            continue
        counterexamples.append(artifact)
        label = (artifact["cell"]["victim"] and
                 f"{artifact['cell']['victim']}/{artifact['cell']['kind']}"
                 f"@{artifact['cell']['inject_at']}" or "nominal")
        confirmed = ("replay-confirmed" if artifact["replay_confirmed"]
                     else "NOT replay-confirmed")
        print(f"  counterexample ({label}, "
              f"{len(artifact['deliveries'])} delivery perturbation(s), "
              f"{confirmed}):")
        for violation in artifact["violations"]:
            print(f"    [{violation['invariant']}] {violation['detail']}")

    if args.cex_dir and counterexamples:
        os.makedirs(args.cex_dir, exist_ok=True)
        for i, artifact in enumerate(counterexamples):
            path = os.path.join(args.cex_dir, f"cex_{i}.json")
            with open(path, "w") as f:
                json.dump(artifact, f, indent=2, sort_keys=True)
            print(f"  counterexample written to {path} "
                  f"(replay with: repro check --replay {path})")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"campaign report written to {args.report}")

    if report["certified"]:
        print("CERTIFIED: all invariants hold on every explored path")
        return 0
    print("NOT CERTIFIED")
    return 1


def _fuzz_campaign(args) -> int:
    import json

    from .fuzz import FuzzParams, run_fuzz_campaign, write_corpus

    if args.ticks < 1 or args.generations < 0 or args.batch < 1 \
            or args.elite < 1 or args.max_injections < 1:
        print("repro fuzz: bounds must be positive", file=sys.stderr)
        return 2
    params = FuzzParams(
        kinds=tuple(sorted(set(args.kinds))),
        window=(args.window[0], args.window[1]),
        ticks=args.ticks,
        generations=args.generations,
        batch=args.batch,
        elite=args.elite,
        max_injections=args.max_injections,
        n_periods=args.periods,
        R_us=None if args.R is None else seconds(args.R),
        k=args.k,
        max_artifacts=args.max_artifacts,
        workers=args.workers,
        seed=args.seed,
    )
    meta = {"workload": args.workload, "topology": args.topology,
            "bandwidth": args.bandwidth, "f": args.f, "seed": args.seed}
    workload = workload_from_args(args)
    topology = make_topology(args.topology, args.bandwidth)
    report, stats = run_fuzz_campaign(workload, topology,
                                      config_from_args(args),
                                      params=params, meta=meta)

    print(f"repro fuzz: {args.workload} on {args.topology}, f={args.f}, "
          f"R={report['params']['R_us']}us, k={report['params']['k']}, "
          f"{report['params']['n_periods']} periods/run")
    print(f"evaluated {report['evaluated']} scripts over "
          f"{len(report['generations'])} generations: "
          f"{len(report['coverage'])} coverage keys, "
          f"best fitness {report['best_fitness']} "
          f"({stats.wall_s:.2f}s wall, {stats.runs_per_sec:.1f} runs/s, "
          f"workers={stats.workers}"
          + (", pool fallback" if stats.pool_fallback else "") + ")")

    for artifact in report["counterexamples"]:
        cell = artifact["cell"]
        confirmed = ("replay-confirmed" if artifact["replay_confirmed"]
                     else "NOT replay-confirmed")
        print(f"  counterexample ({cell['victim']}/{cell['kind']}"
              f"@{cell['inject_at']}, "
              f"{len(artifact['fault_script']['injections'])} "
              f"injection(s), {confirmed}):")
        for violation in artifact["violations"]:
            print(f"    [{violation['invariant']}] "
                  f"{violation['detail']}")
    if args.corpus_dir:
        confirmed = [a for a in report["counterexamples"]
                     if a["replay_confirmed"]]
        for path in write_corpus(args.corpus_dir, confirmed):
            print(f"  corpus entry written to {path} "
                  f"(replay with: repro fuzz replay {path})")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"campaign report written to {args.report}")

    if report["found"]:
        print(f"FOUND {report['violating_scripts']} violating script(s), "
              f"{len(report['counterexamples'])} minimised "
              f"counterexample(s)")
        return 1
    print("no violation found at this budget")
    return 0


def _fuzz_corpus_check(args) -> int:
    import json

    from .fuzz import check_corpus, load_corpus

    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        print(f"repro fuzz: cannot load corpus: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"repro fuzz: corpus {args.corpus} is empty")
        return 0
    report = check_corpus(args.corpus,
                          lambda meta: _system_for_meta(meta, args),
                          entries=entries)
    for entry in report["entries"]:
        status = ("ok" if entry["confirmed"] and entry["digest_match"]
                  else "FAIL")
        detail = ",".join(entry["observed"]) or "none"
        print(f"  {entry['name']}: {status} "
              f"(recorded {','.join(entry['recorded'])}; "
              f"replayed {detail}"
              + ("" if entry["digest_match"] else "; digest mismatch")
              + ")")
    print(f"corpus: {report['checked']} entries, "
          f"{report['failed']} failing")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"corpus report written to {args.report}")
    return 0 if report["ok"] else 1


def cmd_fuzz(args) -> int:
    if args.fuzz_command == "campaign":
        return _fuzz_campaign(args)
    if args.fuzz_command == "replay":
        return _replay_artifact(args.artifact, args)
    return _fuzz_corpus_check(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "plan": cmd_plan,
        "run": cmd_run,
        "compare": cmd_compare,
        "verify": cmd_verify,
        "bounds": cmd_bounds,
        "trace": cmd_trace,
        "check": cmd_check,
        "fuzz": cmd_fuzz,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Which ``repro`` entry points the traced run wraps, and what it reads.

:func:`instrument` installs spans on a :class:`~tracer.Tracer` at each
layer boundary and, after the calls that finish a unit of work, reads
the program's own public counters: ``sim.events_executed``, the key
directory's sign/verify tallies, the trace census (``kind_counts``) and
the run's metrics snapshot. :func:`layer_metrics` folds spans and
counters into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from typing import Dict

import repro.analysis
import repro.core.planner.plan as plan_module
import repro.core.runtime.system as system_module
import repro.faults
import repro.fuzz
import repro.fuzz.campaign as campaign_module
import repro.obs
import repro.verify
from repro.core.runtime.system import BTRSystem
from repro.crypto.signatures import KeyDirectory
from repro.net.routing import Router
from repro.workload.dataflow import DataflowGraph

from tracer import Tracer

#: Trace-census kinds summed into counters, by counter name.
CENSUS = {
    "sim.messages_sent": "MessageSent",
    "sim.messages_delivered": "MessageDelivered",
    "sim.messages_dropped": "MessageDropped",
    "evidence.accepted": "EvidenceAccepted",
    "detector.path_declarations": "PathDeclared",
    "modes.switches": "ModeSwitchCompleted",
}

#: Self-time metrics, by span name.
SELF_TIMES = {
    "planner.build_strategy_s": "planner.build_strategy",
    "planner.place_s": "planner.place",
    "net.route_s": "net.route",
    "workload.inputs_of_s": "workload.inputs_of",
    "sched.synthesize_s": "sched.synthesize",
    "verify.verify_strategy_s": "verify.verify_strategy",
    "runtime.budget_s": "runtime.budget",
    "runtime.run_s": "runtime.run",
    "crypto.hmac_s": "crypto.hmac",
    "obs.timelines_s": "obs.timelines",
    "analysis.verdict_s": "analysis.verdict",
}

#: Call-count metrics, by span name.
CALLS = {
    "planner.place_calls": "planner.place",
    "net.route_calls": "net.route",
    "net.hop_count_calls": "net.hop_count",
    "workload.inputs_of_calls": "workload.inputs_of",
    "sched.synthesize_calls": "sched.synthesize",
}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    counters = tracer.counters

    def after_build(args, strategy) -> None:
        counters["planner.plans"] += len(strategy)

    def after_run(args, result) -> None:
        system = args[0]
        counters["sim.events"] += system.sim.events_executed
        counters["crypto.signs"] += system.directory.signs
        counters["crypto.verifies"] += system.directory.verifies
        counters["trace.records"] += len(result.trace)
        census = result.trace.kind_counts()
        for counter, kind in CENSUS.items():
            counters[counter] += census.get(kind, 0)
        snapshot = result.metrics.get("counters", {})
        counters["crypto.verify_memo_hits"] += snapshot.get(
            "verify_memo{result=hit}", 0)
        counters["crypto.verify_memo_misses"] += snapshot.get(
            "verify_memo{result=miss}", 0)

    # Coverage novelty per fuzz candidate: the campaign unions
    # coverage_keys() with verdict_keys() for each candidate in order.
    pending: Dict[str, frozenset] = {}
    seen: set = set()

    def after_coverage(args, keys) -> None:
        pending["keys"] = frozenset(keys)

    def after_verdict_keys(args, keys) -> None:
        candidate = pending.pop("keys", frozenset()) | frozenset(keys)
        counters["fuzz.novel"] += bool(candidate - seen)
        seen.update(candidate)
        counters["fuzz.coverage_keys"] = len(seen)

    wrap = tracer.wrap
    wrap(system_module, "build_strategy", "planner.build_strategy",
         after_build)
    wrap(plan_module, "place", "planner.place")
    wrap(plan_module, "synthesize", "sched.synthesize")
    wrap(Router, "route", "net.route")
    wrap(Router, "hop_count", "net.hop_count")
    wrap(DataflowGraph, "inputs_of", "workload.inputs_of")
    wrap(repro.verify, "verify_strategy", "verify.verify_strategy")
    wrap(system_module, "compute_budget", "runtime.budget")
    wrap(BTRSystem, "prepare", "runtime.prepare")
    wrap(BTRSystem, "run", "runtime.run", after_run)
    for method in ("sign", "sign_bytes", "sign_bytes_batch", "verify",
                   "verify_bytes", "verify_statement"):
        wrap(KeyDirectory, method, "crypto.hmac")
    wrap(repro.faults, "stage", "faults.stage")
    wrap(repro.obs, "reconstruct_timelines", "obs.timelines")
    wrap(campaign_module, "reconstruct_timelines", "obs.timelines")
    wrap(repro.analysis, "btr_verdict", "analysis.verdict")
    # The campaign's per-candidate Definition 3.1 check.
    wrap(campaign_module, "check_path", "analysis.verdict")
    wrap(campaign_module, "coverage_keys", "fuzz.coverage",
         after_coverage)
    wrap(campaign_module, "verdict_keys", "fuzz.coverage",
         after_verdict_keys)
    wrap(repro.fuzz, "run_fuzz_campaign", "fuzz.campaign")


def _quantile(values, q: int) -> float:
    """The q-th decile of ``values`` (0 when there are fewer than two)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metric values from one traced setup plus operation."""
    table = tracer.layer_table()
    counters = tracer.counters

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics: Dict[str, float] = {}
    for metric, span in SELF_TIMES.items():
        metrics[metric] = row(span)["self_s"]
    for metric, span in CALLS.items():
        metrics[metric] = row(span)["calls"]
    for counter in ("planner.plans", "sim.events", "trace.records",
                    "crypto.signs", "crypto.verifies", *CENSUS):
        metrics[counter] = counters[counter]
    run_total = row("runtime.run")["total_s"]
    metrics["sim.events_per_s"] = (counters["sim.events"] / run_total
                                   if run_total else 0.0)
    memo = (counters["crypto.verify_memo_hits"]
            + counters["crypto.verify_memo_misses"])
    metrics["crypto.verify_memo_hit_ratio"] = (
        counters["crypto.verify_memo_hits"] / memo if memo else 0.0)

    # Fuzz: candidate runs are the run spans inside the campaign.
    campaign = row("fuzz.campaign")
    runs_ms = ([d * 1e3 for d in tracer.durations("runtime.run")]
               if campaign["calls"] else [])
    candidates = len(runs_ms)
    metrics["fuzz.candidates"] = candidates
    metrics["fuzz.run_p50_ms"] = (statistics.median(runs_ms)
                                  if runs_ms else 0.0)
    metrics["fuzz.run_p90_ms"] = _quantile(runs_ms, 9)
    metrics["fuzz.coverage_keys"] = counters["fuzz.coverage_keys"]
    metrics["fuzz.novel_ratio"] = (counters["fuzz.novel"] / candidates
                                   if candidates else 0.0)
    metrics["fuzz.overhead_s"] = (campaign["total_s"] - sum(runs_ms) / 1e3
                                  if campaign["calls"] else 0.0)
    return metrics

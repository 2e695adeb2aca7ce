"""Runtime configuration for a BTR deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...crypto.costs import DEFAULT_COSTS, CryptoCosts
from ...sched.lanes import LaneFractions
from ..detector.timing import TimingPolicy


@dataclass(frozen=True)
class BTRConfig:
    """All tunables of a BTR deployment in one place.

    The defaults are sized for workload periods in the 10–100 ms range on
    10 Mbps-class links (the library's domain workloads).
    """

    #: Fault budget: max simultaneous faulty nodes the strategy anticipates.
    f: int = 1
    #: Desired recovery bound R in µs. ``None`` accepts whatever the
    #: deployment can achieve (see RecoveryBudget); prepare() raises if a
    #: requested bound is not achievable.
    R_us: Optional[int] = None
    #: Run seed (drives every random choice via labelled forks).
    seed: int = 0

    # --- detection ------------------------------------------------------
    timing: TimingPolicy = field(default_factory=TimingPolicy)
    #: Extra wait beyond the arrival window before declaring an omission.
    omission_grace_us: int = 1_000
    #: Distinct (path, period, declarer) slots before blame attribution.
    blame_slot_threshold: int = 3
    #: Distinct declarers required for attribution.
    blame_min_declarers: int = 2
    #: Invalid evidence records before the signer is implicated.
    slander_threshold: int = 3
    #: Max control-plane records a node will *verify* per sender per
    #: period. The CPU analogue of the reserved-bandwidth defence: a
    #: flooder can fill its own link lane, but it cannot spend more than
    #: this slice of anyone's control CPU (§4.3's DoS resistance).
    evidence_quota_per_sender: int = 8

    # --- mode changes ----------------------------------------------------
    #: Lead time between evidence timestamp and the switch boundary; must
    #: cover worst-case evidence distribution. ``None`` => derived.
    switch_lead_us: Optional[int] = None
    #: Periods after a switch during which omission declarations are
    #: suppressed (transition confusion tolerance, §4.4).
    suppress_periods: int = 2
    #: Local state rebuild rate when no correct state source survives.
    rebuild_bits_per_us: float = 50.0

    # --- clocks ----------------------------------------------------------
    #: Clock synchronization interval (µs). Between rounds, a node's clock
    #: error grows at its drift rate; the timing slack must absorb the
    #: resulting ε (the paper's synchrony assumption, made concrete).
    clock_sync_interval_us: int = 1_000_000
    #: Per-node drift magnitude (ppm); node i gets a deterministic drift
    #: in [-drift, +drift] derived from the run seed. 0 disables drift.
    clock_drift_ppm: float = 50.0

    # --- substrate -------------------------------------------------------
    crypto: CryptoCosts = DEFAULT_COSTS
    lanes: LaneFractions = field(default_factory=LaneFractions)
    #: Checker compare+forward budget (µs of nominal work).
    check_us: int = 100
    #: Strategy construction toggles (E11/E12 ablations).
    minimize_distance: bool = True
    use_locality: bool = True
    #: Strategic (exposure-aware) placement — the E13 ablation flag.
    strategic_placement: bool = True
    protect_endpoints: bool = True

    # --- offline planning performance (repro.perf) -----------------------
    #: Worker processes for offline plan construction. 1 = serial (the
    #: default); 0 = all cores. Any value produces a byte-identical
    #: strategy — parallelism never changes the artifact.
    planner_jobs: int = 1
    #: Directory of the on-disk strategy cache, or ``None`` to replan
    #: every time. Keys include the planner version, so a stale cache is
    #: never silently reused across algorithm changes.
    cache: Optional[str] = None
    #: Reuse one canonical plan per fault-pattern *size* on symmetric
    #: topologies (see :mod:`repro.perf.symmetry`). Opt-in: memoised
    #: strategies are verifier-clean but may differ from exhaustive
    #: planning when distance-minimising placement is on.
    symmetry_memo: bool = False

    # --- online runtime ---------------------------------------------------
    #: Trace recording mode: "full" keeps every event; "milestones" keeps
    #: only recovery-relevant kinds and tallies per-hop traffic;
    #: "counts-only" tallies everything (see :mod:`repro.sim.trace`).
    trace_mode: str = "full"

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("BTR needs f >= 1 (use the unreplicated "
                             "baseline for f = 0)")
        if self.R_us is not None and self.R_us <= 0:
            raise ValueError("R must be positive")
        if self.suppress_periods < 0:
            raise ValueError("suppress_periods must be >= 0")
        if self.planner_jobs < 0:
            raise ValueError("planner_jobs must be >= 0 (0 = all cores)")
        from ...sim.trace import TRACE_MODES
        if self.trace_mode not in TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {TRACE_MODES}, "
                f"got {self.trace_mode!r}"
            )

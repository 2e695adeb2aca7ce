"""Performance layer: offline planning speed and the runtime's hot path.

Nothing in here changes *what* the planner or runtime computes — only
how fast the artifact is produced and whether work is recomputed at all.
(The symmetry memo, which does change the artifact, lives with the
planner in :mod:`repro.core.planner.symmetry`.)

* :class:`StrategyCache` / :func:`strategy_cache_key` — content-keyed
  on-disk reuse of finished strategies;
* :mod:`repro.perf.fastpath` — the signature :class:`VerifyMemo`
  (positive-only, deterministic eviction) plus trace fingerprints for
  byte-identity checks. Kept stdlib-only so the crypto layer can import
  it without cycles;
* :mod:`repro.perf.batchcore` — the runtime's batched emitters:
  vectorised periodic-traffic fan-outs and pooled messages, plus
  multi-seed sweep execution in-process (:func:`run_sweep`) and over a
  process pool (:func:`run_sweep_pool`);
* :mod:`repro.perf.timing` — the one sanctioned wall-clock module (the
  determinism lint restricts ``repro/perf/`` and exempts only it).

See ``docs/PERFORMANCE.md`` for the architecture and the determinism
guarantees each piece preserves.
"""

from .batchcore import (
    BatchRuntime,
    GeoSweepSpec,
    SweepRun,
    run_sweep,
    run_sweep_pool,
    shared_prepare,
    sibling_system,
    system_for_spec,
)
from .cache import (
    CACHE_ENV_VAR,
    StrategyCache,
    default_cache_dir,
    strategy_cache_key,
)
from .fastpath import VerifyMemo, online_stats, trace_fingerprint

__all__ = [
    "BatchRuntime",
    "GeoSweepSpec",
    "SweepRun",
    "run_sweep",
    "run_sweep_pool",
    "shared_prepare",
    "sibling_system",
    "system_for_spec",
    "CACHE_ENV_VAR",
    "StrategyCache",
    "default_cache_dir",
    "strategy_cache_key",
    "VerifyMemo",
    "online_stats",
    "trace_fingerprint",
]

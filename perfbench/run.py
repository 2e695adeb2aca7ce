"""End-to-end benchmark of the BTR reproduction, with a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload geo-plan --seed 42 --seconds 30
    python3 perfbench/run.py --workload mesh-fuzz --trace 1
    python3 perfbench/run.py --all --seconds 10

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``geo-plan``
(cold strict planning), ``geo-rehearse`` (full-trace geo fault
rehearsal) and ``mesh-fuzz`` (kR fuzz campaign). Each runs in this one
process, serially, through the public ``repro`` API.

With ``--trace 0`` the operation runs twice, then repeats until
``--seconds`` would be exceeded; the end-to-end metrics are medians:

* ``setup_s``: from before ``import repro`` to the start of the first
  operation -- median over this process and four fresh child processes;
  it includes the cold ``prepare`` of ``geo-rehearse`` and ``mesh-fuzz``;
* ``op_ref_s``: host seconds per unit of work -- one cold strict prepare
  (``geo-plan``), one 24-period rehearsal with timelines and verdict
  (``geo-rehearse``), one fuzz candidate, i.e. campaign time over
  candidates evaluated (``mesh-fuzz``);
* ``peak_rss_mb``: peak resident memory of this process.

Both times are in *reference seconds*. The host is shared, and its speed
drifts by a third within minutes. So while set-up or an operation runs,
a timer samples the host with a fixed pure-Python reference kernel
(``HostSampler``) that nothing in ``repro`` can speed up, and the time
is scaled by ``REF_PASS_S`` over the kernel's time during that very
interval. The program's cost stays in the figure and most of the
host's drift cancels. The kernel's own passes are left out of every
time.

The readable lines above the result add the wall-clock ``setup_wall_s``
and ``op_s``, ``plan_s`` (cold prepare),
``sim_speed`` (simulated over host seconds in ``BTRSystem.run``),
``fuzz_runs_per_s`` and ``failed_ratio``, where they apply.

Every operation's outputs are checked: against the pins in
``pins.json`` for pinned seeds, against invariants that hold on every
seed (verdict holds, no kR violation found), and against the run's
first operation. A mismatch counts as a failed operation and the run
goes on. ``--trace 1`` runs one untraced and one traced operation and
reports the per-layer metrics of the traced setup and operation, plus
``bench.tracing_overhead`` (traced over untraced operation time).

The last line of standard output is the JSON result; the line before
it is a provenance record (git sha, Python version, cores, seed,
config, strategy hash, trace fingerprint, host calibration, every
operation's values).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("geo-plan", "geo-rehearse", "mesh-fuzz")
#: Operations per timed run, however short --seconds is.
MIN_OPS = 2
#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 5
#: Seconds of program time between two samples of the host's speed.
SAMPLE_EVERY_S = 0.2
#: The reference host: one on which a pass of the reference kernel
#: takes this long, s. Times in reference seconds are scaled to it.
REF_PASS_S = 0.025
#: Host seconds of reference kernel for ``host.calib_s`` in traced runs.
CALIB_S = 0.5
#: Rounds of each part of one pass of the reference kernel (17-35 ms on
#: a shared 2-vCPU host): integer arithmetic, small objects in dicts and
#: lists, a binary heap of events.
CALIB_ROUNDS = {"int": 60_000, "obj": 12_000, "heap": 6_000}


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: tuple) -> None:
        self.a, self.b, self.c = a, b, c

    def total(self) -> int:
        return self.a + self.b


def reference_kernel() -> int:
    """A fixed pure-Python mix of the kinds of work the program does.

    It imports nothing from ``repro``, so no change to the program moves
    its time; only the host does.
    """
    acc = 0
    for i in range(CALIB_ROUNDS["int"]):
        acc = (acc * 31 + i) & 0xFFFF
    cells: Dict[tuple, _Cell] = {}
    for i in range(CALIB_ROUNDS["obj"]):
        cell = _Cell(i, 2 * i, (i, i + 1))
        cells[(i % 977, i % 13)] = cell
        other = cells.get(((7 * i) % 977, 3))
        if other is not None:
            acc += other.total()
        acc += len([cell.a, cell.b, cell.c])
    heap: List[tuple] = []
    now = 0
    for i in range(CALIB_ROUNDS["heap"]):
        heapq.heappush(heap, (now + (i * 7919) % 1000, i, ("ev", i)))
        if len(heap) > 500:
            now = heapq.heappop(heap)[0]
    return acc + now


def calibrate(seconds: float) -> float:
    """Mean time of one pass of the reference kernel, over passes run
    for about ``seconds`` (at least one): the host's speed just now.

    The collector is off meanwhile, so the program's live heap, which a
    collection would have to walk, does not leak into the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        passes = 0
        while passes == 0 or perf_counter() - start < seconds:
            reference_kernel()
            passes += 1
        return (perf_counter() - start) / passes
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Samples the host's speed from inside one timed interval.

    While active, a wall-clock timer interrupts the program every
    ``SAMPLE_EVERY_S`` and the signal handler runs one pass of the
    reference kernel. The passes sample the host over the same interval
    as the program's work around them, so a drift of the shared host
    cancels in ``reference_s``. ``clock`` leaves the passes out; the
    workloads time their operations with it.
    """

    def __init__(self) -> None:
        #: Host seconds spent in passes, and their number.
        self.spent = 0.0
        self.passes = 0
        self._previous: Any = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self) -> None:
        self.spent += calibrate(0.0)
        self.passes += 1

    def pass_s(self) -> float:
        """Mean time of a pass; one is taken now if the interval was
        shorter than one gap between samples."""
        if not self.passes:
            self.sample()
        return self.spent / self.passes

    def reference_s(self, seconds: float) -> float:
        """``seconds`` of the sampled interval, scaled to the reference
        host's speed."""
        return seconds * REF_PASS_S / self.pass_s()

    def _tick(self, *_: Any) -> None:
        self.sample()
        # A one-shot timer, re-armed after the pass, so passes never nest.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` if there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def load_repro():
    """Import the checkout's ``repro`` and the benchmark modules.

    Refuses to fall back on any other installed copy of the package.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {src}")
    import workloads
    return workloads


def metric_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


class Runner:
    """One benchmark invocation: setup, operations, checks, metrics."""

    def __init__(self, workloads, args) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload](args.seed,
                                                          args.size)
        pins = json.loads((HERE / "pins.json").read_text())
        self.pins: Dict[str, Any] = pins.get(args.size, {}).get(
            args.workload, {}).get(str(args.seed), {})
        self.first: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.records: List[Dict[str, Any]] = []

    # --------------------------------------------------------- checking

    def failures(self, values: Dict[str, Any]) -> List[str]:
        found = self.workload.invariant_failures(values)
        for key, expected in sorted(self.pins.items()):
            if values.get(key) != expected:
                found.append(f"{key}: pinned {expected!r}, "
                             f"got {values.get(key)!r}")
        if self.first is None:
            self.first = values
        else:
            for key, value in sorted(self.first.items()):
                if values.get(key) != value:
                    found.append(f"{key}: {values.get(key)!r} differs "
                                 f"from the run's first operation "
                                 f"({value!r})")
        return found

    def operate(self, label: str):
        """One checked operation; never raises for a program fault."""
        self.attempted += 1
        try:
            op = self.workload.operation()
        except Exception:
            self.failed += 1
            error = traceback.format_exc()
            sys.stderr.write(error)
            self.records.append({"kind": label, "error":
                                 error.strip().splitlines()[-1]})
            return None
        problems = self.failures(op.values)
        if problems:
            self.failed += 1
            for problem in problems:
                sys.stderr.write(f"perfbench: check failed: {problem}\n")
        self.records.append({"kind": label, "seconds": op.seconds,
                             "values": op.values, "timings": op.timings,
                             "failures": problems})
        return op

    # ------------------------------------------------------------ modes

    def timed(self, setup: Tuple[float, float]) -> Dict[str, float]:
        """Untraced run: end-to-end metrics. ``setup`` is this process's
        set-up, in wall and in reference seconds."""
        setups = [setup]
        start = perf_counter()
        setups += [self.child_setup() for _ in range(SETUP_SAMPLES - 1)]
        ops, op_ref_s, passes, spent = [], [], [], []
        # At least MIN_OPS operations, then stop before one that would
        # overrun --seconds, which also covers the child set-ups.
        while True:
            began = perf_counter()
            with HostSampler() as sampler:
                self.workload.clock = sampler.clock
                op = self.operate("timed")
            passes.append(sampler.pass_s())
            if op is not None:
                ops.append(op)
                op_ref_s.append(sampler.reference_s(
                    self.workload.unit_seconds(op)))
                self.records[-1]["pass_s"] = passes[-1]
            spent.append(perf_counter() - began)
            if len(spent) >= MIN_OPS and (
                    perf_counter() - start + statistics.median(spent)
                    > self.args.seconds):
                break
        if not ops:
            raise SystemExit("perfbench: every operation raised")
        self.calib_s = statistics.median(passes)
        self.extra = {
            "setup_wall_s": (statistics.median(w for w, _ in setups), "s"),
            "op_s": (statistics.median(self.workload.unit_seconds(op)
                                       for op in ops), "s"),
        }
        self.extra.update(self.workload.summary(ops))
        self.extra["failed_ratio"] = (self.failed / self.attempted,
                                      "ratio")
        self.samples = {"setup_wall_ref_s": setups, "pass_s": passes}
        return {
            "setup_s": statistics.median(ref for _, ref in setups),
            "op_ref_s": statistics.median(op_ref_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def child_setup(self) -> Tuple[float, float]:
        """The set-up of a fresh process on the same inputs, in wall and
        in reference seconds."""
        args = self.args
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
            check=True)
        return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))

    def traced(self, import_s: float) -> Dict[str, float]:
        """Traced run: per-layer metrics of one setup plus operation."""
        from layers import instrument, layer_metrics
        from tracer import Tracer

        self.calib_s = calibrate(CALIB_S)
        tracer = Tracer()
        instrument(tracer)
        try:
            tracer.span("bench.setup", self.workload.setup)
        finally:
            tracer.uninstall()
        plain = self.operate("untraced")
        instrument(tracer)
        try:
            traced = tracer.span("bench.op", self.operate, "traced")
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer)
        metrics["repro.import_s"] = import_s
        metrics["host.calib_s"] = self.calib_s
        metrics["bench.tracing_overhead"] = (
            traced.seconds / plain.seconds if plain and traced else 0.0)
        self.extra = {"failed_ratio": (self.failed / self.attempted,
                                       "ratio")}
        self.samples = {}
        self.layers = tracer.layer_table()
        return metrics

    # ----------------------------------------------------------- report

    def provenance(self) -> Dict[str, Any]:
        record = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "size": self.args.size,
            "trace": self.args.trace,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "host.calib_s": self.calib_s,
            "pinned": bool(self.pins),
        }
        record.update(self.workload.provenance())
        return record


def emit(runner: Runner, metrics: Dict[str, float], section: str) -> None:
    units = metric_units()[section]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    for name, (value, unit) in runner.extra.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    if section == "per_layer":
        print("span self times:")
        for name, row in sorted(runner.layers.items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:30s} {row['calls']:>9d} calls "
                  f"{row['self_s']:>10.4f} s self "
                  f"{row['total_s']:>10.4f} s total")
    print(json.dumps({"record": runner.provenance(),
                      "samples": runner.samples,
                      "operations": runner.records}, sort_keys=True,
                     default=repr))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, timeout=600)
        status = status or proc.returncode
    return status


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke sizes for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def main(argv: List[str]) -> int:
    t_start = perf_counter()
    args = parse(argv)
    if args.all:
        return run_all(args)
    if args.trace:
        import_start = perf_counter()
        runner = Runner(load_repro(), args)
        emit(runner, runner.traced(perf_counter() - import_start),
             "per_layer")
        return 0
    # Set-up runs from before ``import repro`` to the first operation.
    with HostSampler() as sampler:
        runner = Runner(load_repro(), args)
        runner.workload.clock = sampler.clock
        runner.workload.setup()
    wall = sampler.clock() - t_start
    setup = (wall, sampler.reference_s(wall))
    if args.setup_only:
        print(json.dumps(setup))
    else:
        emit(runner, runner.timed(setup), "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import NEVER, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(30, lambda: order.append("c"))
    sim.call_at(10, lambda: order.append("a"))
    sim.call_at(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.call_at(100, lambda label=label: order.append(label))
    sim.run()
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_call_after_is_relative():
    sim = Simulator()
    times = []
    sim.call_at(100, lambda: sim.call_after(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150]


def test_run_until_stops_at_boundary_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_at(10, lambda: fired.append(10))
    sim.call_at(100, lambda: fired.append(100))
    sim.run_until(50)
    assert fired == [10]
    assert sim.now == 50
    sim.run_until(200)
    assert fired == [10, 100]


def test_event_at_run_until_boundary_fires():
    sim = Simulator()
    fired = []
    sim.call_at(50, lambda: fired.append(50))
    sim.run_until(50)
    assert fired == [50]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_cancellation_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.call_at(10, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_at(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    h1.cancel()
    assert sim.peek_next_time() == 20


def test_peek_next_time_empty_is_never():
    sim = Simulator()
    assert sim.peek_next_time() == NEVER


def test_pending_events_counts_live_events():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    h = sim.call_at(20, lambda: None)
    h.cancel()
    assert sim.pending_events() == 1


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_after(5, lambda: order.append("second"))

    sim.call_at(10, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 15


def test_events_executed_counter():
    sim = Simulator()
    for t in (1, 2, 3):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.events_executed == 3


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_property_events_always_fire_in_nondecreasing_time(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.call_at(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert fired == sorted(times)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_same_seed_same_rng_stream(seed):
    a = Simulator(seed=seed)
    b = Simulator(seed=seed)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


def test_rng_fork_is_order_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    # Consume some of b's parent stream first; forks must still agree.
    b.rng.random()
    fork_a = a.rng.fork("faults")
    fork_b = b.rng.fork("faults")
    assert [fork_a.random() for _ in range(3)] == [fork_b.random() for _ in range(3)]


def test_rng_forks_with_different_labels_differ():
    sim = Simulator(seed=7)
    x = sim.rng.fork("x").random()
    y = sim.rng.fork("y").random()
    assert x != y


# ------------------------------------------- tuple heap (the former fast heap)


def test_run_is_reentrancy_guarded():
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run()
        seen.append(sim.now)

    sim.call_at(5, reenter)
    sim.run()
    assert seen == [5]
    # The guard releases: a fresh run() afterwards works.
    sim.call_at(10, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5, 10]


def test_run_until_is_reentrancy_guarded_with_fast_heap():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run_until(100)

    sim.call_at(1, reenter)
    sim.run_until(50)
    assert sim.now == 50


class SortedListEngine:
    """Reference model of the engine for the properties below: a plain
    list re-sorted by ``(time, seq)`` on every push, where cancelling
    marks an entry dead. Slow and obviously right."""

    def __init__(self):
        self.entries = []  # [time, seq, callback, live]
        self.seq = 0
        self.now = 0
        self.events_executed = 0

    def push(self, time, callback):
        entry = [time, self.seq, callback, True]
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e[0], e[1]))
        return entry

    def call_at(self, time, callback):
        return self.push(time, callback)

    def call_after(self, delay, callback):
        return self.push(self.now + delay, callback)

    def schedule(self, time, callback):
        self.push(time, callback)

    @staticmethod
    def cancel(entry):
        entry[3] = False

    def _live(self):
        return [e for e in self.entries if e[3]]

    def peek_next_time(self):
        live = self._live()
        return live[0][0] if live else NEVER

    def pending_events(self):
        return len(self._live())

    def step(self):
        live = self._live()
        if not live:
            return False
        entry = live[0]
        self.entries.remove(entry)
        entry[3] = False
        self.now = entry[0]
        self.events_executed += 1
        entry[2]()
        return True

    def run_until(self, end_time):
        while self._live() and self.peek_next_time() <= end_time:
            self.step()
        self.now = max(self.now, end_time)

    def run(self):
        while self.step():
            pass


@given(st.lists(st.integers(min_value=0, max_value=10**6),
                min_size=1, max_size=60),
       st.sets(st.integers(min_value=0, max_value=59)))
def test_property_fire_order_matches_sorted_reference(times, cancel_idx):
    """The tuple heap fires the same events in the same order as the
    sorted-list reference model, including under cancellation."""
    logs = []
    for engine in (Simulator(seed=3), SortedListEngine()):
        log = []
        handles = [engine.call_at(t, lambda i=i, e=engine:
                                  log.append((e.now, i)))
                   for i, t in enumerate(times)]
        for i in cancel_idx:
            if i < len(handles):
                if isinstance(engine, Simulator):
                    handles[i].cancel()
                else:
                    engine.cancel(handles[i])
        engine.run()
        logs.append(log)
    assert logs[0] == logs[1]


def test_schedule_interleaves_with_call_at_in_seq_order():
    """schedule() (handle-free entries) shares the sequence counter with
    call_at, so ties at one timestamp fire in submission order
    regardless of which API queued them."""
    sim = Simulator()
    fired = []
    sim.call_at(7, lambda: fired.append("a"))
    sim.schedule(7, lambda: fired.append("b"))
    sim.call_at(7, lambda: fired.append("c"))
    sim.schedule(5, lambda: fired.append("early"))
    assert sim.pending_events() == 4
    sim.run()
    assert fired == ["early", "a", "b", "c"]
    assert sim.events_executed == 4


def test_peek_next_time_skips_cancelled_fast_heap():
    """peek drains cancelled head entries, also when bare schedule()
    entries sit behind them, instead of reporting a dead event's time."""
    sim = Simulator()
    h1 = sim.call_at(10, lambda: None)
    h2 = sim.call_at(20, lambda: None)
    sim.schedule(30, lambda: None)
    sim.call_at(40, lambda: None)
    h1.cancel()
    h2.cancel()
    assert sim.peek_next_time() == 30
    assert sim.pending_events() == 2


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call_at"), st.integers(0, 500)),
        st.tuples(st.just("call_after"), st.integers(0, 100)),
        st.tuples(st.just("schedule"), st.integers(0, 500)),
        st.tuples(st.just("cancel"), st.integers(0, 79)),
        st.tuples(st.just("step"), st.just(0)),
        st.tuples(st.just("run_until"), st.integers(0, 600)),
        st.tuples(st.just("observe"), st.just(0)),
    ),
    min_size=1, max_size=80,
)


@given(_OPS)
def test_property_ops_observably_match_sorted_reference(ops):
    """Random op programs leave the engine and the sorted-list reference
    model in observably identical states: same fire log, same
    ``peek_next_time`` and ``pending_events`` after every operation,
    same clock and executed count. This pins the cancelled-entry
    handling of the heap's peek/pending/step paths."""
    observed = []
    for engine in (Simulator(seed=11), SortedListEngine()):
        log = []
        handles = []
        for op, arg in ops:
            if op == "call_at":
                target = max(arg, engine.now)
                handles.append(engine.call_at(
                    target, lambda t=target: log.append(("fire", t))))
            elif op == "call_after":
                handles.append(engine.call_after(
                    arg, lambda e=engine: log.append(("after", e.now))))
            elif op == "schedule":
                target = max(arg, engine.now)
                engine.schedule(target,
                                lambda t=target: log.append(("sched", t)))
            elif op == "cancel" and handles:
                handle = handles[arg % len(handles)]
                if isinstance(engine, Simulator):
                    handle.cancel()
                else:
                    engine.cancel(handle)
            elif op == "step":
                log.append(("step", engine.step()))
            elif op == "run_until":
                if arg >= engine.now:
                    engine.run_until(arg)
            log.append(("obs", engine.now, engine.peek_next_time(),
                        engine.pending_events(), engine.events_executed))
        engine.run()
        log.append(("final", engine.now, engine.events_executed,
                    engine.pending_events(), engine.peek_next_time()))
        observed.append(log)
    assert observed[0] == observed[1]


def test_fast_heap_compaction_spares_schedule_entries():
    sim = Simulator()
    fired = []
    # Enough cancellable timers to trigger compaction (>= 64 queued,
    # cancelled majority), with bare schedule() entries interleaved.
    handles = [sim.call_at(100 + i, lambda: fired.append("timer"))
               for i in range(80)]
    for i in range(10):
        sim.schedule(50 + i, lambda i=i: fired.append(i))
    for h in handles:
        h.cancel()
    sim.run()
    assert fired == list(range(10))

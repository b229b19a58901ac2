"""Tests for the discrete-event simulator."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.simnet.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(3.0, lambda: order.append("middle"))
        sim.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_events_run(self):
        sim = Simulator()
        hits = []
        sim.schedule(0.0, lambda: hits.append(1))
        sim.run_until_idle()
        assert hits == [1]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def chain(depth: int) -> None:
            hits.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run_until_idle()
        assert hits == [1.0, 2.0, 3.0, 4.0]


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, lambda: hits.append("no"))
        sim.schedule(2.0, lambda: hits.append("yes"))
        assert handle.time == 1.0
        assert not handle.cancelled
        handle.cancel()
        sim.run_until_idle()
        assert hits == ["yes"]
        assert handle.cancelled
        assert handle.time == 1.0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run_until_idle()
        handle = sim.schedule(1.5, lambda: None)
        assert handle.time == 3.5  # absolute: scheduled at now + delay
        sim.run_until_idle()
        handle.cancel()  # should not raise
        assert not handle.cancelled


class TestCallbackRelease:
    """A handle holds its callback only until the event fires or is cancelled."""

    @staticmethod
    def _schedule(sim, delay_ms, hits):
        def callback():
            hits.append(delay_ms)

        return sim.schedule(delay_ms, callback), weakref.ref(callback)

    def test_fired_handle_releases_its_callback(self):
        sim = Simulator()
        hits = []
        handle, callback = self._schedule(sim, 1.0, hits)
        assert callback() is not None  # held while pending
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert hits == [1.0]
        assert callback() is None
        assert handle.time == 1.0
        assert not handle.cancelled
        assert sim.pending_events == 0
        handle.cancel()  # after firing: still a no-op
        assert not handle.cancelled
        assert sim.pending_events == 0

    def test_cancelled_handle_releases_its_callback(self):
        sim = Simulator()
        hits = []
        handle, callback = self._schedule(sim, 1.0, hits)
        sim.schedule(2.0, lambda: hits.append(2.0))
        handle.cancel()
        assert callback() is None
        assert handle.cancelled
        assert handle.time == 1.0
        assert sim.pending_events == 1
        handle.cancel()  # twice: still counted once
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert hits == [2.0]
        assert handle.cancelled
        assert sim.pending_events == 0

    def test_timer_cycle_is_freed_without_the_collector(self):
        class Owner:
            timer = None

        sim = Simulator()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            owners = []
            for delay_ms in (1.0, 5.0):
                owner = Owner()
                # owner -> handle -> closure -> owner, as with _Wait timers.
                owner.timer = sim.schedule(delay_ms, lambda owner=owner: owner.timer)
                owners.append(weakref.ref(owner))
            del owner
            sim.run(until_ms=2.0)
            owners[1]().timer.cancel()
            assert [ref() for ref in owners] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestRunLimits:
    def test_run_until_time_stops_and_advances_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(2))
        sim.run(until_ms=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        sim.run_until_idle()
        assert hits == [1, 2]

    def test_run_max_events(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: hits.append(i))
        processed = sim.run(max_events=4)
        assert processed == 4
        assert hits == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 3

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_pending_events_counter_tracks_fire_and_cancel(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[0].cancel()  # double-cancel must not decrement twice
        assert sim.pending_events == 4
        sim.run(max_events=2)
        assert sim.pending_events == 2
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until_ms=1.5)
        handle.cancel()  # already fired: must be a no-op
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_pending_events_counts_events_scheduled_during_run(self):
        sim = Simulator()
        observed = []

        def first():
            sim.schedule(1.0, lambda: None)
            observed.append(sim.pending_events)

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert observed == [1]
        assert sim.pending_events == 0

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run_until_idle()

    def test_run_until_idle_backstop(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)



class _ReferenceEvent:
    def __init__(self, time, callback):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True


class _ReferenceScheduler:
    """The specification: live events in a list sorted by (time, insertion)."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._inserted = 0
        self._queue = []  # (time, insertion index, event), kept sorted

    @property
    def pending_events(self):
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def schedule(self, delay_ms, callback):
        return self.schedule_at(self.now + delay_ms, callback)

    def schedule_at(self, time_ms, callback):
        event = _ReferenceEvent(time_ms, callback)
        self._queue.append((time_ms, self._inserted, event))
        self._inserted += 1
        self._queue.sort(key=lambda entry: entry[:2])
        return event

    def run(self, until_ms=None, max_events=None):
        processed = 0
        while True:
            live = [entry for entry in self._queue if not entry[2].cancelled]
            if not live:
                break
            if until_ms is not None and live[0][0] > until_ms:
                break
            if max_events is not None and processed >= max_events:
                break
            self._queue.remove(live[0])
            time_ms, _, event = live[0]
            event.fired = True
            self.now = time_ms
            event.callback()
            processed += 1
            self.events_processed += 1
        if until_ms is not None and until_ms > self.now:
            self.now = until_ms
        return processed


_DELAYS = (0.0, 0.5, 1.0, 1.0, 2.5)  # repeats force same-time ties


def _drive(scheduler, seed):
    """Run one seeded random program on ``scheduler`` and return its trace.

    Every decision comes from ``seed`` and the event's id, never from the
    scheduler, so two correct schedulers produce identical traces.  Events
    fire callbacks that schedule more events and cancel others: pending
    ones, already fired ones and the firing event itself.
    """
    trace = []
    handles = []

    def state(label):
        trace.append(
            (label, scheduler.now, scheduler.pending_events, scheduler.events_processed)
        )

    def add(time_ms, at):
        eid = len(handles)
        callback = lambda: fire(eid)  # noqa: E731
        if at:
            handle = scheduler.schedule_at(time_ms, callback)
        else:
            handle = scheduler.schedule(time_ms, callback)
        handles.append(handle)
        trace.append(("scheduled", eid, handle.time))

    def cancel(eid):
        handles[eid].cancel()
        state(("cancel", eid, handles[eid].cancelled))

    def fire(eid):
        state(("fire", eid))
        rng = random.Random(seed * 1_000_003 + eid)
        for _ in range(rng.randrange(4)):
            action = rng.random()
            if action < 0.45 and len(handles) < 400:
                add(rng.choice(_DELAYS), at=False)
            elif action < 0.6 and len(handles) < 400:
                add(scheduler.now + rng.choice(_DELAYS), at=True)
            elif action < 0.7:
                cancel(eid)  # during its own firing: a no-op
            else:
                cancel(rng.randrange(len(handles)))

    rng = random.Random(seed)
    for _ in range(60):
        step = rng.random()
        if step < 0.35:
            add(rng.choice(_DELAYS) * rng.randrange(1, 4), at=False)
        elif step < 0.5:
            add(scheduler.now + rng.uniform(0.0, 6.0), at=True)
        elif step < 0.65 and handles:
            cancel(rng.randrange(len(handles)))
        elif step < 0.85:
            until = scheduler.now + rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 4.0)))
            state(("run-until", scheduler.run(until_ms=until)))
        else:
            state(("run-max", scheduler.run(max_events=rng.randrange(0, 6))))
    state(("drain", scheduler.run()))
    return trace


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sorted_list_reference(self, seed):
        expected = _drive(_ReferenceScheduler(), seed)
        assert _drive(Simulator(), seed) == expected
        fired = sum(1 for entry in expected if entry[0][0] == "fire")
        assert fired > 20  # the program really exercised the queue

    def test_reference_catches_a_broken_tie_break(self):
        class LifoTies(_ReferenceScheduler):
            def schedule_at(self, time_ms, callback):
                event = _ReferenceEvent(time_ms, callback)
                self._queue.append((time_ms, -self._inserted, event))
                self._inserted += 1
                self._queue.sort(key=lambda entry: entry[:2])
                return event

        assert any(_drive(LifoTies(), seed) != _drive(Simulator(), seed) for seed in range(4))

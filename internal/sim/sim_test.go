package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, "c", func() { got = append(got, 3) })
	e.Schedule(1, "a", func() { got = append(got, 1) })
	e.Schedule(2, "b", func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.Schedule(5, name, func() { got = append(got, name) })
	}
	e.RunAll()
	if got[0] != "first" || got[1] != "second" || got[2] != "third" {
		t.Fatalf("same-time events fired out of scheduling order: %v", got)
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, "outer", func() {
		e.After(5, "inner", func() { at = e.Now() })
	})
	e.RunAll()
	if at != 15 {
		t.Fatalf("inner fired at %v, want 15", at)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(4, "outer", func() {
		e.After(-3, "inner", func() { fired = true })
	})
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 4 {
		t.Fatalf("Now = %v, want 4", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, "late", func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, "past", func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, "x", func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	victim = e.Schedule(2, "victim", func() { fired = true })
	e.Schedule(1, "killer", func() { e.Cancel(victim) })
	e.RunAll()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, "t", func() { got = append(got, at) })
	}
	end := e.Run(3.5)
	if len(got) != 3 {
		t.Fatalf("fired %d events before until, want 3", len(got))
	}
	if end != 3.5 {
		t.Fatalf("Run returned %v, want 3.5", end)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunAll()
	if len(got) != 5 {
		t.Fatalf("after RunAll fired %d, want 5", len(got))
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), "n", func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 4 {
		t.Fatalf("fired %d events after Stop, want 4", count)
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), "n", func() {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// the order they were scheduled in.
func TestQuickFiringOrderSorted(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.Schedule(at, "q", func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set of fired events equals the multiset scheduled, after
// random cancellations are excluded.
func TestQuickCancelExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(times []uint8) bool {
		e := NewEngine()
		firedCount := 0
		canceled := 0
		events := make([]*Event, 0, len(times))
		for _, raw := range times {
			events = append(events, e.Schedule(Time(raw), "q", func() { firedCount++ }))
		}
		for _, ev := range events {
			if rng.Intn(2) == 0 {
				e.Cancel(ev)
				canceled++
			}
		}
		e.RunAll()
		return firedCount == len(times)-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth > 3 {
				return
			}
			for i := 0; i < 3; i++ {
				d := Time(rng.Float64() * 10)
				e.After(d, "r", func() {
					fired = append(fired, e.Now())
					schedule(depth + 1)
				})
			}
		}
		schedule(0)
		e.Run(100)
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d fired at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStepDebugObserves(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, "watched", func() {})
	canceled := e.Schedule(2, "canceled", func() {})
	e.Cancel(canceled)
	var names []string
	for e.StepDebug(func(name string, at Time) { names = append(names, name) }) {
	}
	if len(names) != 1 || names[0] != "watched" {
		t.Fatalf("StepDebug observed %v", names)
	}
	if e.StepDebug(nil) {
		t.Fatal("StepDebug on empty queue returned true")
	}
}

func TestStepSkipsCanceled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, "a", func() {})
	fired := false
	e.Schedule(2, "b", func() { fired = true })
	e.Cancel(a)
	// Cancel removes from the heap, but exercise the canceled-skip path
	// via an event canceled after a same-heap reorder: cancel flag set
	// without removal is simulated by cancelling mid-queue order.
	if !e.Step() || !fired {
		t.Fatal("Step did not fire the surviving event")
	}
}

func TestRescheduleMatchesCancelAndAfter(t *testing.T) {
	// Re-arming an event orders it exactly like cancelling it and
	// scheduling a fresh one: same time, next sequence number.
	run := func(reuse bool) []string {
		e := NewEngine()
		var got []string
		fire := func() { got = append(got, "re") }
		ev := e.After(1, "re", fire)
		e.After(2, "a", func() { got = append(got, "a") })
		e.Schedule(0.5, "move", func() {
			if reuse {
				e.Reschedule(ev, 1.5)
			} else {
				e.Cancel(ev)
				e.After(1.5, "re", fire)
			}
			e.After(1.5, "b", func() { got = append(got, "b") })
		})
		e.RunAll()
		return got
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) || len(got) != 3 {
		t.Fatalf("reschedule fired %v, cancel+after %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reschedule fired %v, cancel+after %v", got, want)
		}
	}
}

func TestRescheduleFiredEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	var ev *Event
	ev = e.After(1, "tick", func() {
		fired++
		if fired < 3 {
			e.Reschedule(ev, 1)
		}
	})
	e.RunAll()
	if fired != 3 || e.Now() != 3 {
		t.Fatalf("re-armed from its own callback: fired %d, now %v; want 3, 3", fired, e.Now())
	}
	if n := testing.AllocsPerRun(100, func() { e.Reschedule(ev, 1); e.Cancel(ev) }); n != 0 {
		t.Fatalf("Reschedule allocated %v times per call", n)
	}
}

// oracleEngine is the container/heap engine the typed heap replaced,
// kept as a test oracle: the same (At, seq) order, Cancel and Reschedule
// semantics, driven through heap.Interface.
type oracleEngine struct {
	now     Time
	queue   oracleHeap
	nextSeq uint64
}

type oracleEvent struct {
	at       Time
	fn       func()
	seq      uint64
	index    int
	canceled bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func (e *oracleEngine) queued(ev *oracleEvent) bool {
	return ev.index >= 0 && ev.index < len(e.queue) && e.queue[ev.index] == ev
}

func (e *oracleEngine) schedule(at Time, fn func()) *oracleEvent {
	ev := &oracleEvent{at: at, fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *oracleEngine) cancel(ev *oracleEvent) {
	if ev.canceled {
		return
	}
	ev.canceled = true
	if e.queued(ev) {
		heap.Remove(&e.queue, ev.index)
	}
}

func (e *oracleEngine) reschedule(ev *oracleEvent, delay Time) {
	if e.queued(ev) {
		heap.Remove(&e.queue, ev.index)
	}
	ev.at = e.now + delay
	ev.canceled = false
	ev.seq = e.nextSeq
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

func (e *oracleEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// TestHeapMatchesContainerHeapOracle: over random Schedule, Cancel,
// Reschedule and Step sequences with many tied times — including events
// that re-arm or cancel others from their callbacks — the typed heap
// fires exactly the oracle's events in the oracle's order, with the same
// clock and Pending count after every operation.
func TestHeapMatchesContainerHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		e, o := NewEngine(), &oracleEngine{}
		var evs []*Event
		var oevs []*oracleEvent
		var got, want []int
		// chain is an event's follow-up, drawn up front so both engines
		// see the same one: re-arm or cancel another event, or nothing.
		type chain struct{ op, target, delay int }
		add := func(delay Time) {
			id := len(evs)
			c := chain{op: r.Intn(4), target: r.Intn(id + 1), delay: r.Intn(3)}
			evs = append(evs, e.After(delay, "ev", func() {
				got = append(got, id)
				switch c.op {
				case 0:
					e.Reschedule(evs[c.target], Time(c.delay))
				case 1:
					e.Cancel(evs[c.target])
				}
			}))
			oevs = append(oevs, o.schedule(o.now+delay, func() {
				want = append(want, id)
				switch c.op {
				case 0:
					o.reschedule(oevs[c.target], Time(c.delay))
				case 1:
					o.cancel(oevs[c.target])
				}
			}))
		}
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < 4 || len(evs) == 0:
				add(Time(r.Intn(4)))
			case k < 5:
				i := r.Intn(len(evs))
				e.Cancel(evs[i])
				o.cancel(oevs[i])
			case k < 7:
				i, d := r.Intn(len(evs)), Time(r.Intn(3))
				e.Reschedule(evs[i], d)
				o.reschedule(oevs[i], d)
			default:
				if a, b := e.Step(), o.step(); a != b {
					t.Fatalf("seed %d op %d: Step = %v, oracle %v", seed, op, a, b)
				}
			}
			if e.Pending() != len(o.queue) || e.Now() != o.now || len(got) != len(want) {
				t.Fatalf("seed %d op %d: pending %d now %v fired %d; oracle %d %v %d",
					seed, op, e.Pending(), e.Now(), len(got), len(o.queue), o.now, len(want))
			}
		}
		// Drain, bounded: events that re-arm each other never run dry.
		for i := 0; i < 5000 && e.Step(); i++ {
			o.step()
		}
		if e.Pending() != len(o.queue) {
			t.Fatalf("seed %d: %d events left, oracle %d", seed, e.Pending(), len(o.queue))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d, oracle %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleStepZeroAllocs: re-arming one event with Reschedule and
// firing it with Step allocates nothing, with other events queued around
// it so every sift moves.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(1e6+i%7), "far", func() {})
	}
	fired, settled := 0, 0
	ev := NewEvent("tick", func() { fired++ })
	settle := func() { settled++ } // bound once, like netsim's
	cycle := func() {
		e.Reschedule(ev, Time(fired%3))
		e.Reschedule(ev, 1) // re-arm while queued: sifted in place
		e.AtEndOfInstant(settle)
		if !e.Step() {
			t.Fatal("nothing to step")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("Reschedule + AtEndOfInstant + Step allocates %v times, want 0", n)
	}
	if fired != 202 || settled != 202 || e.Pending() != 64 {
		t.Fatalf("fired %d, settled %d, pending %d; want 202, 202, 64", fired, settled, e.Pending())
	}
}

// endOfInstantScript queues a dirty-flag settle (once per instant, as
// netsim does) from three events at t=1 and one at t=2, with a quiet
// event at t=4, and returns the engine and a log of what ran when.
func endOfInstantScript() (*Engine, *[]string) {
	e := NewEngine()
	var log []string
	dirty := false
	settle := func() {
		dirty = false
		log = append(log, fmt.Sprintf("settle@%v", e.Now()))
	}
	touch := func(name string) func() {
		return func() {
			log = append(log, fmt.Sprintf("%s@%v", name, e.Now()))
			if !dirty {
				dirty = true
				e.AtEndOfInstant(settle)
			}
		}
	}
	e.Schedule(1, "a", touch("a"))
	e.Schedule(1, "b", func() {
		touch("b")()
		e.After(0, "b0", touch("b0")) // zero delay: still this instant
	})
	e.Schedule(1, "c", touch("c"))
	e.Schedule(2, "d", touch("d"))
	e.Schedule(4, "quiet", func() { log = append(log, fmt.Sprintf("quiet@%v", e.Now())) })
	return e, &log
}

// TestEndOfInstantOncePerInstant: callbacks queued during an instant run
// once, after its last event (zero-delay ones included) and before the
// clock moves on — under Step, StepDebug and Run alike.
func TestEndOfInstantOncePerInstant(t *testing.T) {
	want := "[a@1 b@1 c@1 b0@1 settle@1 d@2 settle@2 quiet@4]"
	for name, drive := range map[string]func(*Engine){
		"Step": func(e *Engine) {
			for e.Step() {
			}
		},
		"StepDebug": func(e *Engine) {
			for e.StepDebug(nil) {
			}
		},
		"Run": func(e *Engine) { e.RunAll() },
	} {
		e, log := endOfInstantScript()
		drive(e)
		if got := fmt.Sprint(*log); got != want {
			t.Fatalf("%s: %s, want %s", name, got, want)
		}
	}
}

// TestEndOfInstantBeforeRunHorizon: Run(until) settles the last instant
// before it stops at its horizon, and Step settles before it reports an
// empty queue — also when the settle schedules the next event.
func TestEndOfInstantBeforeRunHorizon(t *testing.T) {
	e, log := endOfInstantScript()
	if end := e.Run(3); end != 3 {
		t.Fatalf("Run(3) ended at %v", end)
	}
	if got, want := fmt.Sprint(*log), "[a@1 b@1 c@1 b0@1 settle@1 d@2 settle@2]"; got != want {
		t.Fatalf("Run(3): %s, want %s", got, want)
	}

	e = NewEngine()
	fired := 0
	e.AtEndOfInstant(func() { e.After(1, "next", func() { fired++ }) })
	if !e.Step() || fired != 1 || e.Now() != 1 {
		t.Fatalf("settle-scheduled event: fired %d at %v", fired, e.Now())
	}
	settled := false
	e.AtEndOfInstant(func() { settled = true })
	if e.Step() || !settled {
		t.Fatalf("Step on an empty queue: settled %v", settled)
	}
}

// TestRescheduleReservedMatchesReschedule: an event re-armed with a
// sequence number reserved earlier breaks ties exactly as a Reschedule
// at the moment of the reservation would have.
func TestRescheduleReservedMatchesReschedule(t *testing.T) {
	order := func(reserved bool) string {
		e := NewEngine()
		var log []string
		mark := func(s string) func() { return func() { log = append(log, s) } }
		ev := NewEvent("completion", mark("completion"))
		e.Schedule(5, "early", mark("early"))
		e.Schedule(2, "work", func() {
			e.After(3, "before", mark("before"))
			var seq uint64
			if reserved {
				seq = e.ReserveSeq()
			} else {
				e.Reschedule(ev, 3)
			}
			e.After(3, "after", mark("after"))
			e.After(0, "same-instant", mark("same-instant"))
			if reserved {
				e.AtEndOfInstant(func() { e.RescheduleReserved(ev, 3, seq) })
			}
		})
		e.RunAll()
		return fmt.Sprint(log)
	}
	want := "[same-instant early before completion after]"
	if got := order(false); got != want {
		t.Fatalf("Reschedule order %s, want %s", got, want)
	}
	if got := order(true); got != want {
		t.Fatalf("RescheduleReserved order %s, want %s", got, want)
	}
}

// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally small: a virtual clock, an event heap with
// deterministic tie-breaking, and a handful of scheduling helpers. All the
// cluster, network and pipeline machinery in this repository is built on
// top of it.
//
// Determinism: two events scheduled for the same virtual time fire in the
// order they were scheduled (FIFO by sequence number). Given identical
// inputs, a simulation always produces identical output.
//
// The queue is a binary min-heap on (At, seq), sifted by typed code
// rather than container/heap's interface calls. (At, seq) is a strict
// total order — no two events share a sequence number — so the pop
// sequence is fixed by the events alone, whatever the heap's internal
// layout. A caller that keeps one Event and re-arms it with Reschedule
// (NewEvent builds one unscheduled) schedules without allocating.
//
// End of instant: AtEndOfInstant queues a callback that runs once no
// live event is left at the current time, before the clock advances —
// the place for work whose intermediate results within one instant are
// never read (netsim settles its fair-share rates there). A caller that
// defers the arming of an event that far reserves its sequence number
// with ReserveSeq at the moment it would have armed it, then arms it
// with RescheduleReserved: ties then order exactly as an eager
// Reschedule at the reservation point would have ordered them.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback. Fields are read-only once scheduled.
type Event struct {
	// At is the virtual time the event fires.
	At Time
	// Name is an optional label used in traces and error messages.
	Name string
	// Fn is invoked when the event fires. It may schedule further events.
	Fn func()

	seq      uint64
	index    int // heap index; -1 when not queued
	canceled bool
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// NewEvent returns an unscheduled event with the given label and
// callback, for a caller that arms it with Reschedule, possibly many
// times: one Event serves every firing.
func NewEvent(name string, fn func()) *Event {
	return &Event{Name: name, Fn: fn, index: -1}
}

// before orders events by (At, seq).
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   []*Event // binary min-heap on (At, seq)
	nextSeq uint64
	fired   uint64
	stopped bool
	// atEnd holds the end-of-instant callbacks queued so far; spare is
	// the other half of the double buffer they run from.
	atEnd, spare []func()
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently queued (including
// canceled events that have not yet been popped).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: it always indicates a modelling bug.
func (e *Engine) Schedule(at Time, name string, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, at, e.now))
	}
	ev := &Event{At: at, Name: name, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	e.push(ev)
	return ev
}

// After queues fn to run delay seconds after the current time. Negative
// delays are clamped to zero.
func (e *Engine) After(delay Time, name string, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, name, fn)
}

// Cancel removes ev from the queue if it has not fired. It is safe to
// cancel an event twice or to cancel an already-fired event (no-op).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if e.queued(ev) {
		e.remove(ev.index)
	}
}

// Reschedule re-arms ev to fire delay from now. It is Cancel followed by
// After with the same name and callback — ev takes the next sequence
// number, so ties order exactly as they would for a fresh event — but
// reuses ev instead of allocating one. ev may be pending, cancelled,
// already fired or fresh from NewEvent.
func (e *Engine) Reschedule(ev *Event, delay Time) {
	e.RescheduleReserved(ev, delay, e.ReserveSeq())
}

// ReserveSeq takes the next sequence number for an event the caller
// arms later in the same instant with RescheduleReserved.
func (e *Engine) ReserveSeq() uint64 {
	seq := e.nextSeq
	e.nextSeq++
	return seq
}

// RescheduleReserved re-arms ev like Reschedule, but with the sequence
// number seq reserved earlier by ReserveSeq instead of a fresh one, so
// ev breaks ties with other events exactly as if it had been re-armed
// when seq was reserved.
func (e *Engine) RescheduleReserved(ev *Event, delay Time, seq uint64) {
	if delay < 0 {
		delay = 0
	}
	ev.At = e.now + delay
	ev.canceled = false
	ev.seq = seq
	if e.queued(ev) {
		// Its key changed in place: restore the heap order around it.
		if !e.down(ev.index) {
			e.up(ev.index)
		}
		return
	}
	e.push(ev)
}

// AtEndOfInstant queues fn to run once no live event is left at the
// current time, before the clock advances: Step, StepDebug and Run run
// the queued callbacks before they move the clock, before Run stops at
// its horizon and before Step reports an empty queue. Callbacks run in
// the order they were queued; one may schedule events (at the current
// time too, which then fire before any later callback batch) or queue
// further callbacks.
func (e *Engine) AtEndOfInstant(fn func()) {
	e.atEnd = append(e.atEnd, fn)
}

// endInstant runs the queued end-of-instant callbacks while no live
// event is left at the current time.
func (e *Engine) endInstant() {
	for len(e.atEnd) > 0 {
		for len(e.queue) > 0 && e.queue[0].canceled {
			e.remove(0)
		}
		if len(e.queue) > 0 && e.queue[0].At <= e.now {
			return // the instant is not over yet
		}
		fns := e.atEnd
		e.atEnd = e.spare[:0]
		for _, fn := range fns {
			fn()
		}
		clear(fns)
		e.spare = fns[:0]
	}
}

// queued reports whether ev sits in the queue.
func (e *Engine) queued(ev *Event) bool {
	return ev.index >= 0 && ev.index < len(e.queue) && e.queue[ev.index] == ev
}

// push adds ev to the heap.
func (e *Engine) push(ev *Event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// remove takes the event at heap index i out of the queue.
func (e *Engine) remove(i int) *Event {
	q := e.queue
	last := len(q) - 1
	ev := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	e.queue = q[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
	return ev
}

// up sifts the event at index j towards the root.
func (e *Engine) up(j int) {
	q := e.queue
	ev := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !before(ev, q[i]) {
			break
		}
		q[j] = q[i]
		q[j].index = j
		j = i
	}
	q[j] = ev
	ev.index = j
}

// down sifts the event at index i0 towards the leaves and reports
// whether it moved.
func (e *Engine) down(i0 int) bool {
	q := e.queue
	n := len(q)
	ev := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event and advances the clock to
// its timestamp. It returns false when the queue is empty. The current
// instant's end-of-instant callbacks run first if no live event is left
// at the current time.
func (e *Engine) Step() bool {
	e.endInstant()
	for len(e.queue) > 0 {
		ev := e.remove(0)
		if ev.canceled {
			continue
		}
		e.now = ev.At
		e.fired++
		ev.Fn()
		return true
	}
	return false
}

// Run fires events until the queue drains, Stop is called, or the clock
// passes until. Pass Infinity for an unbounded run. It returns the time
// the run ended at.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for !e.stopped {
		e.endInstant()
		if len(e.queue) == 0 {
			break
		}
		// Peek: the heap root is the earliest event.
		if e.queue[0].At > until {
			e.now = until
			break
		}
		e.Step()
	}
	return e.now
}

// RunAll fires events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(Infinity) }

// StepDebug is Step with an observer callback receiving the fired event's
// name and time. Test/diagnostic use only.
func (e *Engine) StepDebug(obs func(name string, at Time)) bool {
	e.endInstant()
	for len(e.queue) > 0 {
		ev := e.remove(0)
		if ev.canceled {
			continue
		}
		e.now = ev.At
		e.fired++
		if obs != nil {
			obs(ev.Name, ev.At)
		}
		ev.Fn()
		return true
	}
	return false
}

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
package sim

import (
	"container/heap"
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

// eventHeap orders events by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
	fired   uint64
	stopped bool
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
	heap.Push(&e.queue, ev)
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
	if ev.index >= 0 && ev.index < len(e.queue) && e.queue[ev.index] == ev {
		heap.Remove(&e.queue, ev.index)
	}
}

// Reschedule re-arms ev to fire delay from now. It is Cancel followed by
// After with the same name and callback — ev takes the next sequence
// number, so ties order exactly as they would for a fresh event — but
// reuses ev instead of allocating one. ev may be pending, cancelled or
// already fired.
func (e *Engine) Reschedule(ev *Event, delay Time) {
	if delay < 0 {
		delay = 0
	}
	if ev.index >= 0 && ev.index < len(e.queue) && e.queue[ev.index] == ev {
		heap.Remove(&e.queue, ev.index)
	}
	ev.At = e.now + delay
	ev.canceled = false
	ev.seq = e.nextSeq
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event and advances the clock to
// its timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
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
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
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

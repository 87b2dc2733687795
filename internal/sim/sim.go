// Package sim provides a deterministic discrete-event simulation engine.
//
// All ERASMUS experiments run on virtual time: devices, timers, networks and
// adversaries are processes that schedule events on a shared Engine. Time is
// measured in Ticks (one tick = one nanosecond of virtual time), which maps
// cleanly onto both the 8 MHz MCU model (125 ns/cycle) and the 1 GHz
// application-processor model (1 ns/cycle).
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Ticks is a point in (or duration of) virtual time, in nanoseconds.
type Ticks int64

// Common durations, in Ticks.
const (
	Nanosecond  Ticks = 1
	Microsecond       = 1000 * Nanosecond
	Millisecond       = 1000 * Microsecond
	Second            = 1000 * Millisecond
	Minute            = 60 * Second
	Hour              = 60 * Minute
)

// MaxTicks is the largest representable virtual time.
const MaxTicks Ticks = math.MaxInt64

// Seconds returns the duration as floating-point seconds.
func (t Ticks) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the duration as floating-point milliseconds.
func (t Ticks) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit.
func (t Ticks) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts floating-point seconds to Ticks.
func FromSeconds(s float64) Ticks { return Ticks(s * float64(Second)) }

// Event is a scheduled callback.
type Event struct {
	when Ticks
	seq  uint64 // tie-breaker: FIFO among equal-time events
	fn   func()

	index     int // heap index, -1 when popped or cancelled
	cancelled bool
}

// When returns the virtual time at which the event fires.
func (e *Event) When() Ticks { return e.when }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use at virtual time 0.
type Engine struct {
	now   Ticks
	seq   uint64
	queue eventQueue
	fired uint64
}

// NewEngine returns an engine at virtual time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Ticks { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at absolute virtual time when. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(when Ticks, fn func()) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", when, e.now))
	}
	ev := &Event{fn: fn}
	e.push(ev, when)
	return ev
}

// push queues ev at when with the next FIFO sequence number. ev must not
// be queued already.
func (e *Engine) push(ev *Event, when Ticks) {
	ev.when, ev.seq = when, e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// After schedules fn delay ticks from now.
func (e *Engine) After(delay Ticks, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Step executes the single next event. It reports false if the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		e.now = ev.when
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Ticks) {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.when > deadline {
			break
		}
		e.Step()
	}
	e.now = deadline
}

// peek returns the next non-cancelled event without popping it, discarding
// cancelled heads along the way.
func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		head := e.queue[0]
		if !head.cancelled {
			return head
		}
		heap.Pop(&e.queue)
	}
	return nil
}

// Ticker fires fn every interval starting at start (absolute). It returns a
// stop function. Interval must be positive. A ticker allocates its closure
// and its event once and re-queues that event for every tick.
func (e *Engine) Ticker(start, interval Ticks, fn func()) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	if start < e.now {
		start = e.now
	}
	stopped := false
	ev := &Event{}
	ev.fn = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.push(ev, e.now+interval)
		}
	}
	e.push(ev, start)
	return func() { stopped = true }
}

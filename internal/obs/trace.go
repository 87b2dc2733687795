package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Span is one collection's life through the verifier: launched at the
// device's scheduled tick, resolved by the transport, verified, and its
// verdict applied to fleet state. LaunchTick is virtual time (the same
// tick the alert stream stamps); the wall-clock fields are process
// nanoseconds (time.Now().UnixNano()), usable to measure real pipeline
// lag even when the engine's virtual clock outruns the wall clock.
type Span struct {
	Device string `json:"device"`
	// LaunchTick is the virtual time the collection was launched.
	LaunchTick int64 `json:"launch_tick"`
	// SubmitWall/ApplyWall bracket the verification pipeline: transport
	// callback (history in hand) to verdict folded into device state.
	SubmitWall int64 `json:"submit_wall_ns"`
	ApplyWall  int64 `json:"apply_wall_ns"`
	// VerifyNanos is this collection's share of its verification batch's
	// wall time (batch time / batch size — per-job attribution inside the
	// worker pool lives in the per-shard latency histograms instead).
	VerifyNanos int64 `json:"verify_ns"`
	// Delta marks an incremental (since-watermark) round.
	Delta bool `json:"delta"`
	// Records is the number of records the device shipped.
	Records int `json:"records"`
	// Outcome classifies the applied verdict: ok, infection, tamper, or
	// failed (transport error, no history collected).
	Outcome string `json:"outcome"`
	// Err carries the transport error for failed collections.
	Err string `json:"err,omitempty"`
	// AggFallback is why an aggregate collection's verdict came from the
	// per-record audit tier (core.FallbackReason); empty otherwise.
	AggFallback string `json:"agg_fallback,omitempty"`
}

// Tracer is a bounded ring buffer of collection spans: the most recent
// capacity spans survive, older ones are overwritten. One mutex-guarded
// append per applied collection — collections are scheduled at TC
// granularity, so contention is negligible next to verification cost.
// All methods are nil-safe.
type Tracer struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewTracer builds a tracer retaining the last capacity spans
// (default 4096 when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{buf: make([]Span, 0, capacity)}
}

// Record appends one completed span, overwriting the oldest at capacity.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, sp)
	} else {
		t.buf[t.next] = sp
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Total returns the number of spans ever recorded (retained or not).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// SpansFor filters the retained spans by device, oldest first.
func (t *Tracer) SpansFor(device string) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, sp := range t.Spans() {
		if sp.Device == device {
			out = append(out, sp)
		}
	}
	return out
}

// WriteJSON dumps the retained spans as one JSON document — the
// post-mortem artifact for any fleet run.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		t = &Tracer{} // a nil tracer writes the empty document
	}
	doc := struct {
		Total uint64 `json:"total_spans"`
		Spans []Span `json:"spans"`
	}{Total: t.Total(), Spans: t.Spans()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Event is one structured operational event — the replacement for ad-hoc
// stderr notes: machine-readable, bounded, and visible over /eventz while
// the process is alive.
type Event struct {
	// Seq is the log-assigned monotone sequence number (1, 2, 3, … in
	// emission order): the resumable cursor for /watch/events. Emit
	// assigns it; caller-set values are overwritten.
	Seq uint64 `json:"seq"`
	// Tick is the virtual time of the event (0 when outside engine time).
	Tick int64 `json:"tick"`
	// Subsystem names the emitter (fleet, popsim, store, serve).
	Subsystem string `json:"subsystem"`
	// Device is the affected device address, when the event has one.
	Device string `json:"device,omitempty"`
	// Kind is a stable machine-matchable event type.
	Kind string `json:"kind"`
	// Detail is the human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded ring of structured events; nil-safe like Tracer.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
	brk   *Broker[Event] // lazily created on first Watch
}

// NewEventLog builds an event log retaining the last capacity events
// (default 1024 when capacity ≤ 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Emit appends one event, overwriting the oldest at capacity, assigns
// its sequence number (total emissions, 1-based), and fans it out to
// watchers.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.total++
	ev.Seq = l.total
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.next] = ev
		l.next = (l.next + 1) % cap(l.buf)
	}
	// Published under l.mu so watchers receive in seq order (the broker
	// never blocks, so this costs one try-send per subscriber).
	l.brk.Publish(ev)
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Total returns the number of events ever emitted.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// EventsSince returns the retained events with Seq > since, oldest
// first. gap reports whether events in (since, first-retained) have been
// overwritten by the ring: the consumer missed history it cannot read
// back and should be told explicitly. A since at or beyond the newest
// seq returns (nil, false).
func (l *EventLog) EventsSince(since uint64) (events []Event, gap bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.total - uint64(len(l.buf)) // seq of last overwritten event
	if since < oldest {
		gap = true
		since = oldest
	}
	if since >= l.total {
		return nil, gap
	}
	ordered := make([]Event, 0, len(l.buf))
	ordered = append(ordered, l.buf[l.next:]...)
	ordered = append(ordered, l.buf[:l.next]...)
	return append([]Event(nil), ordered[since-oldest:]...), gap
}

// Watch subscribes to live events with a buffer of buf items; cancel via
// Subscription.Cancel. Returns nil on a nil log.
func (l *EventLog) Watch(buf int) *Subscription[Event] {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.brk == nil {
		l.brk = NewBroker[Event]()
	}
	brk := l.brk
	l.mu.Unlock()
	return brk.Subscribe(buf)
}

// WriteJSON dumps the retained events as one JSON document.
func (l *EventLog) WriteJSON(w io.Writer) error {
	if l == nil {
		l = &EventLog{} // a nil log writes the empty document
	}
	doc := struct {
		Total  uint64  `json:"total_events"`
		Events []Event `json:"events"`
	}{Total: l.Total(), Events: l.Events()}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

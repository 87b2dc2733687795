// Package cpu provides the single-core occupancy tracker and the
// access-violation log shared by both device models (MSP430/SMART+ and
// i.MX6/HYDRA).
//
// Both platforms have a single CPU: a running self-measurement occupies it
// for the full modeled duration (the availability concern of §5), and
// application tasks contend with measurements for the core. On request
// (EnableHistory) the tracker records every occupation interval so
// experiments can compute busy fractions and concurrency; by default it
// keeps only the running occupation, so a long-lived device holds O(1)
// state however many measurements it takes.
package cpu

import (
	"fmt"

	"erasmus/internal/sim"
)

// Kind classifies an occupation interval.
type Kind string

// Occupation kinds used across the repository.
const (
	KindMeasurement Kind = "measurement"
	KindTask        Kind = "task"
	KindCollection  Kind = "collection"
	KindAuth        Kind = "auth"
)

// Occupation is one contiguous interval of CPU use.
type Occupation struct {
	Kind    Kind
	Start   sim.Ticks
	End     sim.Ticks // scheduled end; equals AbortedAt if aborted
	Aborted bool
}

// Duration returns the interval's length.
func (o Occupation) Duration() sim.Ticks { return o.End - o.Start }

// Tracker serializes occupations on a single core.
type Tracker struct {
	engine  *sim.Engine
	freeAt  sim.Ticks
	active  *Occupation // last occupation if still running
	history bool
	log     []Occupation // every occupation, oldest first, when history is on
}

// NewTracker creates a tracker bound to the simulation engine. It keeps no
// occupation history until EnableHistory is called.
func NewTracker(e *sim.Engine) *Tracker {
	if e == nil {
		panic("cpu: nil engine")
	}
	return &Tracker{engine: e}
}

// EnableHistory makes the tracker record every occupation from now on, for
// Log and BusyTime. Call it before the first Occupy to cover the device's
// whole life.
func (t *Tracker) EnableHistory() { t.history = true }

// Busy reports whether the CPU is occupied right now.
func (t *Tracker) Busy() bool { return t.engine.Now() < t.freeAt }

// FreeAt returns the earliest time the CPU becomes idle (never earlier
// than now).
func (t *Tracker) FreeAt() sim.Ticks {
	if ft := t.freeAt; ft > t.engine.Now() {
		return ft
	}
	return t.engine.Now()
}

// Occupy reserves the CPU for dur, starting as soon as the core is free
// (possibly immediately). It returns the scheduled interval; the returned
// pointer stays live, so callers can observe Aborted after an Abort. dur
// must be non-negative.
func (t *Tracker) Occupy(kind Kind, dur sim.Ticks) *Occupation {
	if dur < 0 {
		panic(fmt.Sprintf("cpu: negative occupation %v", dur))
	}
	start := t.FreeAt()
	occ := &Occupation{Kind: kind, Start: start, End: start + dur}
	t.freeAt = occ.End
	if t.history {
		t.log = append(t.log, *occ)
	}
	t.active = occ
	return occ
}

// Abort truncates the currently-running occupation at the present time,
// freeing the CPU. It reports whether anything was aborted (false when the
// core is idle, or when the active occupation already finished).
func (t *Tracker) Abort() bool {
	now := t.engine.Now()
	if t.active == nil || t.active.End <= now || t.active.Start > now {
		return false
	}
	t.active.End = now
	t.active.Aborted = true
	if t.history {
		// The active occupation is always the newest one logged.
		t.log[len(t.log)-1] = *t.active
	}
	t.freeAt = now
	t.active = nil
	return true
}

// ActiveKind returns the kind of the occupation running now, or "" if idle.
func (t *Tracker) ActiveKind() Kind {
	now := t.engine.Now()
	if t.active != nil && t.active.Start <= now && now < t.active.End {
		return t.active.Kind
	}
	return ""
}

// Log returns a copy of all recorded occupations. It panics unless
// EnableHistory was called: an empty log would be indistinguishable from
// an idle core.
func (t *Tracker) Log() []Occupation {
	t.mustHaveHistory()
	return append([]Occupation(nil), t.log...)
}

// BusyTime sums occupied time of the given kind within [from, to),
// clipping intervals at the window edges. An empty kind sums everything.
// Like Log, it needs EnableHistory.
func (t *Tracker) BusyTime(kind Kind, from, to sim.Ticks) sim.Ticks {
	t.mustHaveHistory()
	var total sim.Ticks
	for _, o := range t.log {
		if kind != "" && o.Kind != kind {
			continue
		}
		s, e := o.Start, o.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			total += e - s
		}
	}
	return total
}

func (t *Tracker) mustHaveHistory() {
	if !t.history {
		panic("cpu: occupation history is off; call EnableHistory before the first Occupy")
	}
}

// BusyFraction returns BusyTime / window length.
func (t *Tracker) BusyFraction(kind Kind, from, to sim.Ticks) float64 {
	if to <= from {
		return 0
	}
	return float64(t.BusyTime(kind, from, to)) / float64(to-from)
}

// ViolationKind classifies an access-control violation.
type ViolationKind string

// Violation kinds raised by device models.
const (
	ViolationKeyAccess    ViolationKind = "key-access"     // key read outside attestation code
	ViolationClockWrite   ViolationKind = "clock-write"    // write attempt on the RROC
	ViolationROMWrite     ViolationKind = "rom-write"      // write attempt on ROM
	ViolationAtomicity    ViolationKind = "atomicity"      // jump into the middle of attestation code
	ViolationCapability   ViolationKind = "capability"     // seL4 capability check failed
	ViolationBootIntegrty ViolationKind = "boot-integrity" // secure-boot hash mismatch
)

// Violation is one logged access-control event. On real SMART+ hardware a
// violation resets the MCU; device models log it and return an error so
// experiments can count attack attempts.
type Violation struct {
	Time   sim.Ticks
	Kind   ViolationKind
	Detail string
}

func (v Violation) Error() string {
	return fmt.Sprintf("hw violation at %v: %s (%s)", v.Time, v.Kind, v.Detail)
}

// ViolationLog accumulates violations.
type ViolationLog struct {
	engine *sim.Engine
	events []Violation
}

// NewViolationLog creates a log bound to the engine clock.
func NewViolationLog(e *sim.Engine) *ViolationLog {
	if e == nil {
		panic("cpu: nil engine")
	}
	return &ViolationLog{engine: e}
}

// Record logs and returns a violation error.
func (l *ViolationLog) Record(kind ViolationKind, detail string) error {
	v := Violation{Time: l.engine.Now(), Kind: kind, Detail: detail}
	l.events = append(l.events, v)
	return v
}

// Events returns a copy of all recorded violations.
func (l *ViolationLog) Events() []Violation {
	return append([]Violation(nil), l.events...)
}

// Count returns the number of violations of the given kind ("" = all).
func (l *ViolationLog) Count(kind ViolationKind) int {
	if kind == "" {
		return len(l.events)
	}
	n := 0
	for _, v := range l.events {
		if v.Kind == kind {
			n++
		}
	}
	return n
}

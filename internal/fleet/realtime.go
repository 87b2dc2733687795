package fleet

import (
	"sync"
	"time"

	"erasmus/internal/sim"
)

// PumpRealTime advances an engine against the wall clock — one virtual
// nanosecond per elapsed wall nanosecond — until the engine reaches
// horizon, then returns. This is how a Manager runs over a real-time
// transport (UDPCollector): its collection tickers fire at their exact
// virtual times while the responses arrive on real sockets. step bounds
// the pacing granularity (default 2 ms).
//
// The caller should follow with Manager.Stop and Manager.Flush so
// in-flight round trips resolve before the alert stream is read.
//
// Pacing is relative to the engine's time at entry, so a manager resumed
// from a durable store can pre-position its fresh engine (RunUntil to the
// crash point — instant, nothing is queued) and pump on to the original
// horizon: virtual time continues where the predecessor stopped. horizon
// stays absolute; a horizon at or before e.Now() returns immediately.
func PumpRealTime(e *sim.Engine, horizon sim.Ticks, step time.Duration) {
	PumpRealTimeLocked(e, horizon, step, nopLocker{})
}

// PumpRealTimeLocked is PumpRealTime holding mu while the engine runs and
// releasing it while the pump sleeps, so other goroutines can read state
// the engine owns (under mu) between steps.
//
//erasmus:wallpaced wall-pacing is this function's purpose: it maps one wall nanosecond to one virtual tick
func PumpRealTimeLocked(e *sim.Engine, horizon sim.Ticks, step time.Duration, mu sync.Locker) {
	if step <= 0 {
		step = 2 * time.Millisecond
	}
	base := e.Now()
	if horizon <= base {
		return
	}
	start := time.Now()
	for {
		now := base + sim.Ticks(time.Since(start))
		if now >= horizon {
			break
		}
		mu.Lock()
		e.RunUntil(now)
		mu.Unlock()
		if remaining := time.Duration(horizon - now); remaining < step {
			time.Sleep(remaining)
		} else {
			time.Sleep(step)
		}
	}
	mu.Lock()
	e.RunUntil(horizon)
	mu.Unlock()
}

type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

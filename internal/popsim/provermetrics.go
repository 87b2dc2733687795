package popsim

import (
	"sync"

	"erasmus/internal/obs"
)

// Label values of erasmus_prover_measurements_total.
var (
	measurementArchs    = [...]string{"msp430", "imx6"}
	measurementOutcomes = [...]string{"committed", "aborted", "missed"}
)

// proverMetrics mirrors the simulated provers' ProverStats into
// erasmus_prover_measurements_total{arch,outcome}. The counters are
// brought up to date when the registry is scraped, under the lock that
// owns the provers, so the measurement loop never touches the registry.
type proverMetrics struct {
	mu       sync.Mutex
	counters [len(measurementArchs)][len(measurementOutcomes)]*obs.Counter
	last     [len(measurementArchs)][len(measurementOutcomes)]uint64
}

// registerProverMetrics installs the measurement counters and their
// scrape hook on reg.
func (r *ManagedRun) registerProverMetrics(reg *obs.Registry) {
	pm := &proverMetrics{}
	for a, arch := range measurementArchs {
		for o, outcome := range measurementOutcomes {
			pm.counters[a][o] = reg.Counter("erasmus_prover_measurements_total",
				"Prover self-measurements by architecture and outcome: committed to the buffer, aborted mid-flight, or missed (window lost).",
				obs.Label{Name: "arch", Value: arch}, obs.Label{Name: "outcome", Value: outcome})
		}
	}
	reg.OnScrape(func() {
		pm.mu.Lock()
		defer pm.mu.Unlock()
		var now [len(measurementArchs)][len(measurementOutcomes)]uint64
		r.withProvers(func() {
			for _, md := range r.devices {
				a := 0
				if md.plan.imx6 {
					a = 1
				}
				st := md.prv.Stats()
				now[a][0] += uint64(st.Measurements)
				now[a][1] += uint64(st.Aborted)
				now[a][2] += uint64(st.Missed)
			}
		})
		for a := range now {
			for o := range now[a] {
				pm.counters[a][o].Add(now[a][o] - pm.last[a][o])
			}
		}
		pm.last = now
	})
}

// withProvers runs fn while no goroutine advances the provers' engine: on
// udp under the prover server's lock, on sim under the run's engine lock.
func (r *ManagedRun) withProvers(fn func()) {
	if r.srv != nil {
		r.srv.Do(fn)
		return
	}
	r.engineMu.Lock()
	defer r.engineMu.Unlock()
	fn()
}

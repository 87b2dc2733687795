package popsim

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/sim"
)

// scrapeSeries renders reg and returns the value of every series whose
// exposition line starts with prefix, keyed by the full series name.
func scrapeSeries(t *testing.T, reg *obs.Registry, prefix string) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("unparsable series %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// The prover-side and aggregate-fallback series agree with the run's own
// accounting, and scraping while a sim-transport run is pumped is
// race-free: the measurement counters are read under the engine lock.
func TestProverAndFallbackMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 16)
	run, err := StartManaged(ManagedConfig{
		Population: 40, Seed: 3, Transport: "sim",
		QoA:          core.QoA{TM: 20 * sim.Millisecond, TC: 80 * sim.Millisecond},
		Duration:     400 * sim.Millisecond,
		IMX6Fraction: 0.5, MSP430Memory: 64,
		Latency:   sim.Millisecond,
		Aggregate: true,
		Obs:       reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.WritePrometheus(io.Discard) // runs the scrape hooks
				time.Sleep(time.Millisecond)
			}
		}
	}()
	run.Pump(run.cfg.Duration, time.Millisecond)
	close(stop)
	wg.Wait()
	res, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}

	var want [2]uint64
	for _, md := range run.devices {
		a := 0
		if md.plan.imx6 {
			a = 1
		}
		want[a] += uint64(md.prv.Stats().Measurements)
	}
	got := scrapeSeries(t, reg, "erasmus_prover_measurements_total")
	for a, arch := range measurementArchs {
		name := fmt.Sprintf(`erasmus_prover_measurements_total{arch=%q,outcome="committed"}`, arch)
		if got[name] != want[a] || want[a] == 0 {
			t.Errorf("%s = %d, provers committed %d", name, got[name], want[a])
		}
	}

	fallbacks := scrapeSeries(t, reg, "erasmus_verify_aggregate_fallbacks_total")
	if len(fallbacks) != len(core.FallbackReasons()) {
		t.Fatalf("fallback series %v, want one per reason", fallbacks)
	}
	var total uint64
	for _, v := range fallbacks {
		total += v
	}
	spans := 0
	for _, sp := range tracer.Spans() {
		if sp.AggFallback != "" {
			spans++
		}
	}
	if res.AggregateFallbacks == 0 || total != uint64(res.AggregateFallbacks) || spans != res.AggregateFallbacks {
		t.Fatalf("fallbacks: run %d, metric %d, spans %d", res.AggregateFallbacks, total, spans)
	}
	if fallbacks[`erasmus_verify_aggregate_fallbacks_total{reason="bootstrap"}`] == 0 {
		t.Errorf("no bootstrap fallbacks counted: %v", fallbacks)
	}
}

// A benign managed aggregate run — an infection wave, late joiners, both
// architectures, but no tampering and no loss — closes every anchored
// round on the aggregate tier: the only audit-tier rounds are bootstraps,
// whose response is not the device's whole history. Before the i.MX6
// re-fire burst was fixed, most i.MX6 rounds fell back as walk_diverged.
func TestBenignAggregateFallbacksAreBootstrapOnly(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunManaged(ManagedConfig{
		Population: 200, Seed: 5, Transport: "sim",
		QoA:              core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
		Duration:         4 * sim.Hour,
		IMX6Fraction:     0.5,
		Latency:          10 * sim.Millisecond,
		LateJoinFraction: 0.1,
		Wave:             WaveConfig{Coverage: 0.3, Start: sim.Hour, Spread: 30 * sim.Minute},
		Aggregate:        true,
		Obs:              reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := scrapeSeries(t, reg, "erasmus_verify_aggregate_fallbacks_total")
	bootstrap := fallbacks[`erasmus_verify_aggregate_fallbacks_total{reason="bootstrap"}`]
	var other uint64
	for _, v := range fallbacks {
		other += v
	}
	other -= bootstrap
	if other != 0 || bootstrap == 0 || res.AggregateRounds == 0 {
		t.Fatalf("aggregate rounds %d, fallbacks by reason %v: want bootstrap fallbacks only",
			res.AggregateRounds, fallbacks)
	}
	if res.AlertCounts[fleet.AlertTamper] != 0 {
		t.Fatalf("tamper alerts in a benign run: %d", res.AlertCounts[fleet.AlertTamper])
	}
}

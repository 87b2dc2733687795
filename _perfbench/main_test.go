package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"erasmus/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at a tiny scale in both modes and checks
// that the run is correct and prints exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.name, seed: 3, seconds: 1, trace: trace,
					workdir: t.TempDir(), population: 200}
				if w.udp {
					// Three collection periods (TC=8s): the wave starts a
					// quarter in and spreads over one period, which leaves
					// every infected device a collection after it.
					o.population, o.horizon = 50, 24*sim.Second
				}
				out, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				res := out.result
				if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
					t.Fatalf("result %+v; report:\n%v", res, out.report)
				}
				var got []string
				share := 0.0
				for k, m := range res.Metrics {
					got = append(got, k)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", k, m.Value)
					}
					if strings.HasSuffix(k, "cpu_share") {
						if m.Value < 0 {
							t.Errorf("%s = %v < 0", k, m.Value)
						}
						share += m.Value
					}
				}
				sort.Strings(got)
				if want := metricNames(trace); !slices.Equal(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if share > 100+1e-9 {
					t.Errorf("layer CPU shares sum to %.3f %% > 100 %%", share)
				}
				if !trace {
					for _, k := range got {
						if res.Metrics[k].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", k, res.Metrics[k].Value)
						}
					}
				}
			})
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, n := range metricNames(trace) {
			if !metricName.MatchString(n) || len(n) > 64 {
				t.Errorf("metric name %q", n)
			}
		}
	}
	for _, w := range append(workloads, extraWorkloads...) {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against perfbench:
// the same workloads, and the same metric names and units per mode.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in perfbench", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, perfbench %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		list  []named
		units map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("%d metrics in BENCHMARK.json, perfbench prints %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s): perfbench unit %q, printed %v", m.Name, m.Unit, u, ok)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestParseRaw attributes a hand-written `pprof -raw` profile: the
// innermost layer frame wins, shared crypto goes to its caller, collector
// frames go to gc, and a stack with no layer frame to "".
func TestParseRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          5   50000000: 1 2 3
          3   30000000: 1 4 3
          2   20000000: 5 6
          7   70000000: 7 4 3
          1   10000000: 8
Locations
     1: 0x1 M=1 erasmus/internal/crypto/blake2s.compress /src/blake2s.go:10:0 s=1
     2: 0x2 M=1 erasmus/internal/hw/mcu.(*Device).Measure /src/mcu.go:20:0 s=1
             erasmus/internal/core.(*Prover).measure /src/prover.go:30:0 s=1
     3: 0x3 M=1 erasmus/internal/sim.(*Engine).RunUntil /src/sim.go:40:0 s=1
     4: 0x4 M=1 erasmus/internal/core.(*Verifier).verifyMAC /src/verifier.go:50:0 s=1
     5: 0x5 M=1 runtime.scanobject /src/mgcmark.go:60:0 s=1
     6: 0x6 M=1 runtime.gcBgMarkWorker /src/mgc.go:70:0 s=1
     7: 0x7 M=1 container/heap.up /src/heap.go:80:0 s=1
     8: 0x8 M=1 runtime.futex /src/sys.s:90:0 s=1
Mappings
1: 0x0/0x1/0x0 /bin/x
`
	got, err := parseRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := profileSamples{"prover": 5, "verify": 3, "gc": 2, "sim": 7, "": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%q: got %d, want %d (all %v)", k, got[k], v, got)
		}
	}
}

// metricNames lists the names a run prints for the given trace mode.
func metricNames(trace bool) []string {
	units := endToEndUnits
	if trace {
		units = layerUnits
	}
	names := make([]string, 0, len(units))
	for k := range units {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

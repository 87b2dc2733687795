package main

import (
	"fmt"
	"time"

	"erasmus/internal/obs"
)

// endToEndUnits names every end-to-end metric and its unit; BENCHMARK.json
// lists the same names (TestBenchmarkJSONMatches).
var endToEndUnits = map[string]string{
	"device_s_per_s":            "1/s",
	"collections_per_s":         "1/s",
	"collection_latency_p50_ms": "ms",
	"collection_latency_p99_ms": "ms",
	"cpu_ms_per_collection":     "ms",
	"allocs_per_collection":     "count",
	"peak_heap_mb":              "MiB",
	"setup_s":                   "s",
}

// layerUnits names every per-layer metric and its unit.
var layerUnits = map[string]string{
	"sim.events_per_collection":                "count",
	"sim.cpu_share":                            "%",
	"prover.cpu_share":                         "%",
	"prover.cpu_us_per_device_hour":            "us",
	"netsim.cpu_share":                         "%",
	"udp.rtt_ms_p50":                           "ms",
	"udp.rtt_ms_p99":                           "ms",
	"udp.cpu_share":                            "%",
	"fleet.cpu_share":                          "%",
	"fleet.pipeline_wait_ms_p99":               "ms",
	"fleet.queue_depth_max":                    "count",
	"fleet.watermark_fallbacks_per_collection": "count",
	"verify.cpu_share":                         "%",
	"verify.us_per_collection":                 "us",
	"verify.records_per_collection":            "count",
	"verify.agg_accept_ratio":                  "ratio",
	"store.cpu_share":                          "%",
	"store.appends_per_collection":             "count",
	"store.append_us_p50":                      "us",
	"store.bytes_per_collection":               "B",
	"store.snapshot_s":                         "s",
	"gc.cpu_share":                             "%",
	"gc.cycles":                                "count",
	"trace.overhead_pct":                       "%",
}

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	m := make(map[string]metric, len(values))
	for k, v := range values {
		m[k] = metric{Value: v, Unit: units[k]}
	}
	return m
}

// latencyWindow is the span of due time one latency window covers.
const latencyWindow = 2 * time.Second

// addLatency files one wall-paced collection's latency in ms into the
// window of its due time.
//
// A collection's latency is its due time (the launch tick mapped to wall
// time) to its applied verdict, so a stall counts against every
// collection queued behind it; a failed collection counts until its
// failure is applied. A full window holds about 1250 collections, so a
// p99 has a dozen samples beyond it. The run's tail drifts upward over
// a run, and a percentile per window with the median over windows is
// far steadier from run to run than one percentile over the whole run.
func addLatency(windows [][]float64, sp obs.Span, due int64) [][]float64 {
	i := int(sp.LaunchTick / int64(latencyWindow))
	for len(windows) <= i {
		windows = append(windows, nil)
	}
	windows[i] = append(windows[i], float64(sp.ApplyWall-due)/1e6)
	return windows
}

// verifyLatency is a sim repetition's collection latency in ms at
// quantile q. Virtual time has no wall due time, and a virtual-time engine
// produces collections as fast as the pipeline accepts them, so queue
// waits there measure the simulator, not the verifier. The latency is the
// verifier's service time instead: the per-collection verification wall
// time the registry records in erasmus_verify_latency_seconds.
func verifyLatency(sc scrape, q float64) float64 {
	return 1e3 * sc.histQuantile("erasmus_verify_latency_seconds", q)
}

// windowQuantile is the median over the reps' windows of each window's
// q-quantile. Windows with fewer than half the samples of the fullest
// one — the first collection period of a udp run, before every
// device's first collection is due — are left out.
func windowQuantile(reps []*rep, q float64) float64 {
	var windows [][]float64
	most := 0
	for _, r := range reps {
		for _, w := range r.latWindows {
			windows = append(windows, w)
			most = max(most, len(w))
		}
	}
	var xs []float64
	for _, w := range windows {
		if 2*len(w) >= most {
			xs = append(xs, quantile(w, q))
		}
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics from untraced repetitions:
// each is the median over repetitions of the per-repetition value.
func endToEnd(w workload, reps []*rep, setups []float64) (map[string]metric, []string) {
	per := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	latency := func(q float64) float64 {
		if w.udp {
			return windowQuantile(reps, q)
		}
		return per(func(r *rep) float64 {
			if q == 0.5 {
				return r.verifyP50
			}
			return r.verifyP99
		})
	}
	v := map[string]float64{
		"device_s_per_s":            per(func(r *rep) float64 { return r.deviceSeconds / r.run.Seconds() }),
		"collections_per_s":         per(func(r *rep) float64 { return float64(r.verdicts) / r.run.Seconds() }),
		"collection_latency_p50_ms": latency(0.5),
		"collection_latency_p99_ms": latency(0.99),
		"cpu_ms_per_collection": per(func(r *rep) float64 {
			return ratio(float64(r.cpu.Microseconds())/1e3, float64(r.verdicts))
		}),
		"allocs_per_collection": per(func(r *rep) float64 { return ratio(float64(r.allocs), float64(r.verdicts)) }),
		"peak_heap_mb":          per(func(r *rep) float64 { return float64(r.peakHeap) / (1 << 20) }),
		"setup_s":               median(setups),
	}
	m := withUnits(v, endToEndUnits)
	lines := reportLines(m)

	// The error metrics are reported here, not in the result line: they
	// are 0 on some workloads, and the result carries them as the
	// failed/attempted operation counts instead.
	var attempted, failed, tampers, falseInf, verdicts, seeded, detected int
	for _, r := range reps {
		attempted += r.attempted
		failed += r.failed
		tampers += r.tampers
		falseInf += r.res.FalseInfections
		verdicts += r.verdicts
		seeded += r.res.InfectionsSeeded
		detected += r.res.InfectionsDetected
	}
	if w.udp {
		var all []float64
		for _, r := range reps {
			for _, win := range r.latWindows {
				all = append(all, win...)
			}
		}
		lines = append(lines,
			fmt.Sprintf("%-44s %14d %s", "latency_samples", len(all), "count"),
			fmt.Sprintf("%-44s %14.6g %s", "latency_p99_all_samples_ms", quantile(all, 0.99), "ms"),
			fmt.Sprintf("%-44s %14.6g %s", "latency_max_ms", quantile(all, 1), "ms"))
	}
	failedRatio := ratio(float64(failed), float64(attempted))
	falseAlarm := ratio(float64(tampers+falseInf), float64(verdicts))
	lines = append(lines,
		fmt.Sprintf("%-44s %14.6g %s", "failed_ratio", failedRatio, "ratio"),
		fmt.Sprintf("%-44s %14.6g %s", "false_alarm_ratio", falseAlarm, "ratio"),
		fmt.Sprintf("%-44s %14d %s", "missed_infections", seeded-detected, "count"),
		fmt.Sprintf("%-44s %14.6g %s", "error_ratio", ratio(float64(failed+tampers+falseInf), float64(attempted)), "ratio"),
	)
	return m, lines
}

// layerMetrics computes the per-layer metrics from traced repetitions,
// with the untraced ones as the reference for the tracing overhead.
//
// CPU shares: gc.cpu_share comes from runtime/metrics (GC CPU without idle
// mark workers, over busy CPU without them); the CPU profile apportions
// the rest among the layers by innermost layer frame, so the shares sum
// to at most 100 % and the remainder is runtime and unattributed code.
func layerMetrics(w workload, untraced, traced []*rep) (map[string]metric, []string, error) {
	if len(traced) == 0 {
		return nil, nil, fmt.Errorf("no traced repetition ran")
	}
	var profiles []string
	var rt runtimeCPU
	var cpuSec, deviceHours float64
	var verdicts, attempted, aggOK, aggFallback int
	var fired uint64
	var queueMax int64
	var records, waits, rtts []float64
	sc := scrape{series: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	for _, r := range traced {
		profiles = append(profiles, r.profile)
		rt = rt.add(r.rt)
		cpuSec += r.cpu.Seconds()
		deviceHours += r.deviceSeconds / 3600
		verdicts += r.verdicts
		attempted += r.attempted
		aggOK += r.res.AggregateRounds
		aggFallback += r.res.AggregateFallbacks
		fired += r.fired
		if r.queueMax > queueMax {
			queueMax = r.queueMax
		}
		sc.merge(r.scrape)
		records = append(records, r.records...)
		waits = append(waits, r.waits...)
		rtts = append(rtts, r.rtts...)
	}
	samples, err := attributeProfiles(profiles)
	if err != nil {
		return nil, nil, err
	}
	gcShare := 100 * ratio(rt.gc-rt.gcIdle, rt.total-rt.idle-rt.gcIdle)
	nonGC := float64(samples.total() - samples["gc"])
	share := func(layer string) float64 {
		return ratio(float64(samples[layer]), nonGC) * (100 - gcShare)
	}
	layerCPU := func(layer string) float64 { return share(layer) / 100 * cpuSec } // seconds
	v := map[string]float64{
		"sim.events_per_collection":                ratio(float64(fired), float64(attempted)),
		"prover.cpu_us_per_device_hour":            ratio(layerCPU("prover")*1e6, deviceHours),
		"udp.rtt_ms_p50":                           quantile(rtts, 0.5),
		"udp.rtt_ms_p99":                           quantile(rtts, 0.99),
		"fleet.pipeline_wait_ms_p99":               quantile(waits, 0.99),
		"fleet.queue_depth_max":                    float64(queueMax),
		"fleet.watermark_fallbacks_per_collection": ratio(sc.family("erasmus_fleet_watermark_fallbacks_total"), float64(verdicts)),
		"verify.us_per_collection":                 ratio(layerCPU("verify")*1e6, float64(verdicts)),
		"verify.records_per_collection":            mean(records),
		"verify.agg_accept_ratio":                  ratio(float64(aggOK), float64(aggOK+aggFallback)),
		"store.appends_per_collection":             ratio(sc.family("erasmus_wal_appends_total"), float64(verdicts)),
		"store.append_us_p50":                      1e6 * sc.histQuantile("erasmus_wal_append_seconds", 0.5),
		"store.bytes_per_collection":               ratio(sc.family("erasmus_wal_append_bytes_total"), float64(verdicts)),
		"store.snapshot_s":                         ratio(sc.series["erasmus_store_snapshot_seconds_sum"], sc.series["erasmus_store_snapshot_seconds_count"]),
		"gc.cpu_share":                             gcShare,
		"gc.cycles":                                float64(rt.cycles) / float64(len(traced)),
		"trace.overhead_pct":                       overheadPct(untraced, traced),
	}
	for _, l := range layers {
		if l != "gc" {
			v[l+".cpu_share"] = share(l)
		}
	}
	m := withUnits(v, layerUnits)
	lines := reportLines(m)
	line := fmt.Sprintf("# cpu profile samples: %d total", samples.total())
	for _, l := range layers {
		line += fmt.Sprintf(", %s %d", l, samples[l])
	}
	lines = append(lines, line+fmt.Sprintf(", outside every layer %d", samples[""]))
	return m, lines, nil
}

// overheadPct compares process CPU per collection, traced against
// untraced, as medians over repetitions (0 without an untraced one).
func overheadPct(untraced, traced []*rep) float64 {
	perColl := func(reps []*rep) float64 {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			xs = append(xs, ratio(r.cpu.Seconds(), float64(r.verdicts)))
		}
		return median(xs)
	}
	base := perColl(untraced)
	if base == 0 {
		return 0
	}
	return 100 * (perColl(traced)/base - 1)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

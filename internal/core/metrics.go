package core

import (
	"fmt"

	"erasmus/internal/obs"
)

// VerifyMetrics instruments the verification hot path: per-shard latency
// histograms (shard = FNV of the device address, so one slow shard is
// visible instead of averaged away), MAC-cache effectiveness, watermark
// outcomes and batch sizes. A nil *VerifyMetrics is fully inert — every
// observation is one nil-check — so instrumented and uninstrumented
// verification are byte-identical in outcome (enforced by the fleet
// equivalence tests).
type VerifyMetrics struct {
	shardMask uint32

	// latency[mode][shard]: mode 0 = full history, 1 = delta,
	// 2 = aggregate (chain walk + one MAC).
	latency [3][]*obs.Histogram

	// BatchSize observes how many histories each BatchVerifier.Verify call
	// carried — the dispatcher's effective batching under load.
	BatchSize *obs.Histogram

	// RecordsVerified counts individual records validated.
	RecordsVerified *obs.Counter

	// CacheHits / CacheMisses count MAC-cache consultations on verifiers
	// with a cache configured; hits skip the MAC recomputation entirely.
	CacheHits, CacheMisses *obs.Counter

	// TamperReports / InfectionReports count collections whose report
	// flagged tamper or infection.
	TamperReports, InfectionReports *obs.Counter

	// DeltaRounds counts collections that genuinely verified
	// incrementally (Report.DeltaApplied); FullRounds counts stateless
	// full-history verifications.
	DeltaRounds, FullRounds *obs.Counter

	// WatermarkGaps / WatermarkTampered count the two incremental-path
	// anchor outcomes: the watermark record was absent (buffer rollover —
	// resets to full collection) or was modified in place (always tamper).
	WatermarkGaps, WatermarkTampered *obs.Counter

	// AggregateRounds counts collections accepted by the O(1) aggregate
	// tier.
	AggregateRounds *obs.Counter
	// AggregateFallbacks counts rounds where aggregate evidence was
	// present but the verdict came from the per-record audit tier, by
	// reason (one counter per FallbackReasons entry).
	AggregateFallbacks map[FallbackReason]*obs.Counter
}

// NewVerifyMetrics registers the verification metric set on r across the
// given number of latency shards (rounded up to a power of two, default
// 8). A nil registry yields a nil *VerifyMetrics, which is valid and
// inert everywhere one is accepted.
func NewVerifyMetrics(r *obs.Registry, shards int) *VerifyMetrics {
	if r == nil {
		return nil
	}
	if shards <= 0 {
		shards = 8
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &VerifyMetrics{shardMask: uint32(n - 1)}
	// A fixed array, not a map literal: registration order shapes the
	// exposition, so it must not depend on map iteration order.
	for mode, name := range [...]string{0: "full", 1: "delta", 2: "aggregate"} {
		m.latency[mode] = make([]*obs.Histogram, n)
		for i := 0; i < n; i++ {
			m.latency[mode][i] = r.Histogram(
				"erasmus_verify_latency_seconds",
				"Wall time to validate one collected history, by device shard and collection mode.",
				obs.LatencyBuckets,
				obs.Label{Name: "shard", Value: fmt.Sprintf("%d", i)},
				obs.Label{Name: "mode", Value: name},
			)
		}
	}
	m.BatchSize = r.Histogram("erasmus_verify_batch_size",
		"Histories per BatchVerifier.Verify call.", obs.SizeBuckets)
	m.RecordsVerified = r.Counter("erasmus_verify_records_total",
		"Measurement records validated.")
	m.CacheHits = r.Counter("erasmus_mac_cache_hits_total",
		"MAC verifications skipped by the record cache.")
	m.CacheMisses = r.Counter("erasmus_mac_cache_misses_total",
		"MAC-cache lookups that fell through to recomputation.")
	m.TamperReports = r.Counter("erasmus_verify_tamper_reports_total",
		"Collections whose report flagged tampering.")
	m.InfectionReports = r.Counter("erasmus_verify_infection_reports_total",
		"Collections whose report flagged an infection.")
	m.DeltaRounds = r.Counter("erasmus_verify_delta_rounds_total",
		"Collections verified incrementally against a watermark.")
	m.FullRounds = r.Counter("erasmus_verify_full_rounds_total",
		"Collections verified as stateless full histories.")
	m.WatermarkGaps = r.Counter("erasmus_watermark_gaps_total",
		"Delta rounds whose watermark anchor was absent (reset to full collection).")
	m.WatermarkTampered = r.Counter("erasmus_watermark_tampered_total",
		"Delta rounds whose already-verified overlap was modified in place.")
	m.AggregateRounds = r.Counter("erasmus_verify_aggregate_rounds_total",
		"Collections accepted by the aggregate tier (one MAC + chain walk).")
	m.AggregateFallbacks = make(map[FallbackReason]*obs.Counter)
	for _, reason := range FallbackReasons() {
		m.AggregateFallbacks[reason] = r.Counter("erasmus_verify_aggregate_fallbacks_total",
			"Aggregate collections whose verdict came from the per-record audit tier, by reason.",
			obs.Label{Name: "reason", Value: string(reason)})
	}
	return m
}

// shardOf buckets a device address (FNV-1a, same hash discipline as the
// AttestationService shards).
func (m *VerifyMetrics) shardOf(device string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(device); i++ {
		h ^= uint32(device[i])
		h *= 16777619
	}
	return h & m.shardMask
}

// cacheHit / cacheMiss count MAC-cache consultations.
func (m *VerifyMetrics) cacheHit() {
	if m != nil {
		m.CacheHits.Inc()
	}
}

func (m *VerifyMetrics) cacheMiss() {
	if m != nil {
		m.CacheMisses.Inc()
	}
}

// observeBatch records one BatchVerifier.Verify call's size.
func (m *VerifyMetrics) observeBatch(n int) {
	if m == nil {
		return
	}
	m.BatchSize.Observe(float64(n))
}

// observeReport folds one verification outcome into the metric set.
// device routes the latency histogram; secs is the wall time the
// validation took.
func (m *VerifyMetrics) observeReport(device string, secs float64, rep *Report) {
	if m == nil {
		return
	}
	mode := 0
	if rep.DeltaApplied {
		mode = 1
		m.DeltaRounds.Inc()
	} else {
		m.FullRounds.Inc()
	}
	if rep.AggregateApplied {
		mode = 2
		m.AggregateRounds.Inc()
	}
	if rep.AggregateFallback {
		m.AggregateFallbacks[rep.AggregateFallbackReason].Inc()
	}
	m.latency[mode][m.shardOf(device)].Observe(secs)
	m.RecordsVerified.Add(uint64(len(rep.Records)))
	if rep.TamperDetected {
		m.TamperReports.Inc()
	}
	if rep.InfectionDetected {
		m.InfectionReports.Inc()
	}
	if rep.WatermarkGap {
		m.WatermarkGaps.Inc()
	}
	if rep.WatermarkTampered {
		m.WatermarkTampered.Inc()
	}
}

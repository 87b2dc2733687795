package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// aggFixture is a synthesized anchored aggregate round: history[0:new]
// are the new records, history[new] is the anchor the verifier holds as
// its watermark (chain state included), and agg is the evidence an
// honest prover would ship for the challenge (since=anchor.T, nonce).
type aggFixture struct {
	recs []Record // new records + anchor, newest first
	wm   Watermark
	agg  AggregateEvidence
	now  uint64
}

// mkAggFixture builds a clean fixture with n new records after an
// anchored history of pre older ones (absorbed into the chain but not
// shipped).
func mkAggFixture(t testing.TB, n, pre int, memory []byte) aggFixture {
	t.Helper()
	tm := sim.Hour
	endT := uint64(1000 * sim.Hour)
	total := n + pre + 1 // new + older + anchor between them
	hist := history(total, endT, tm, memory)
	anchor := hist[n]
	anchorState, err := ChainOf(nil, hist[n:])
	if err != nil {
		t.Fatal(err)
	}
	head, err := ChainOf(anchorState, hist[:n])
	if err != nil {
		t.Fatal(err)
	}
	wm := Watermark{T: anchor.T, Hash: anchor.Hash, MAC: anchor.MAC, Chain: anchorState}
	agg := AggregateEvidence{Since: anchor.T, Nonce: 99, AnchorHash: anchor.Hash, State: head}
	agg.MAC = mac.Sum(alg, testKey, AggMACInput(agg.Since, agg.Nonce, agg.AnchorHash, agg.State))
	return aggFixture{
		recs: hist[:n+1], // new records + anchor
		wm:   wm,
		agg:  agg,
		now:  endT + uint64(30*sim.Minute),
	}
}

// stripAggFields zeroes the fields that legitimately differ between the
// aggregate and audit tiers, so the remainder can be compared for the
// equivalence guarantee.
func stripAggFields(rep Report) Report {
	rep.AggregateApplied = false
	rep.AggregateFallback = false
	rep.AggregateFallbackReason = ""
	rep.ChainState = nil
	return rep
}

// wantEquivalent asserts the aggregate report matches the audit tier's
// on every shared field, including per-record verdicts and issue order.
func wantEquivalent(t *testing.T, aggRep, delRep Report) {
	t.Helper()
	a, d := stripAggFields(aggRep), stripAggFields(delRep)
	if !reflect.DeepEqual(a, d) {
		t.Fatalf("aggregate diverges from audit tier:\nagg:   %+v\ndelta: %+v", a, d)
	}
}

func TestAggregateAnchoredClean(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 4, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))

	rep, next := v.VerifyDeltaAggregate(fx.recs, fx.now, 0, fx.wm, fx.agg)
	if !rep.AggregateApplied || rep.AggregateFallback {
		t.Fatalf("clean round did not take the fast path: %+v", rep)
	}
	if !rep.Healthy() || !rep.DeltaApplied || rep.OverlapTrusted != 1 {
		t.Fatalf("clean round unhealthy: %+v", rep)
	}
	if len(rep.Records) != 4 {
		t.Fatalf("graded %d records, want 4", len(rep.Records))
	}
	//erasmus:allow(ctcompare) chain equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if next.T != fx.recs[0].T || !bytes.Equal(next.Chain, fx.agg.State) {
		t.Fatalf("watermark did not adopt the verified chain head: %+v", next)
	}
	delRep, delNext := v.VerifyDelta(fx.recs, fx.now, 0, fx.wm)
	wantEquivalent(t, rep, delRep)
	//erasmus:allow(ctcompare) hash equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if next.T != delNext.T || !bytes.Equal(next.Hash, delNext.Hash) {
		t.Fatalf("watermark anchor diverges: agg %+v, delta %+v", next, delNext)
	}
}

func TestAggregateBootstrapMatchesFull(t *testing.T) {
	memory := []byte("clean image")
	tm := sim.Hour
	endT := uint64(50 * sim.Hour)
	recs := history(5, endT, tm, memory)
	head, err := ChainOf(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateEvidence{Since: 0, Nonce: 3, State: head}
	agg.MAC = mac.Sum(alg, testKey, AggMACInput(0, 3, nil, head))
	v := newTestVerifier(t, goldenFor(memory))
	now := endT + uint64(30*sim.Minute)

	rep, wm := v.VerifyDeltaAggregate(recs, now, 5, Watermark{}, agg)
	if !rep.AggregateApplied || rep.AggregateFallback || !rep.Healthy() {
		t.Fatalf("bootstrap did not close on the fast path: %+v", rep)
	}
	full := v.VerifyHistory(recs, now, 5)
	if full.Healthy() != rep.Healthy() || full.MissingRecords != rep.MissingRecords ||
		full.ScheduleGaps != rep.ScheduleGaps || full.Freshness != rep.Freshness ||
		len(full.Records) != len(rep.Records) {
		t.Fatalf("bootstrap diverges from full:\nfull: %+v\nagg:  %+v", full, rep)
	}
	//erasmus:allow(ctcompare) chain equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if wm.IsZero() || wm.T != endT || !bytes.Equal(wm.Chain, head) {
		t.Fatalf("bootstrap watermark wrong: %+v", wm)
	}

	// Shortfall versus the schedule is still flagged on the fast path.
	short, err := ChainOf(nil, recs[:3])
	if err != nil {
		t.Fatal(err)
	}
	aggShort := AggregateEvidence{Since: 0, Nonce: 4, State: short}
	aggShort.MAC = mac.Sum(alg, testKey, AggMACInput(0, 4, nil, short))
	repShort, _ := v.VerifyDeltaAggregate(recs[:3], now, 5, Watermark{}, aggShort)
	if !repShort.AggregateApplied || repShort.MissingRecords != 2 || !repShort.TamperDetected {
		t.Fatalf("shortfall not flagged on fast path: %+v", repShort)
	}
}

// A forged aggregate MAC must drop the round to the audit tier, whose
// verdicts are authoritative — and because the per-record MACs are
// intact, the round still verifies and the chain is NOT adopted (no
// authenticated head), forcing audit-tier rounds until a genuine
// aggregate MAC appears.
func TestAggregateForgedMACFallsBack(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 4, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))

	forged := fx.agg
	forged.MAC = append([]byte(nil), fx.agg.MAC...)
	forged.MAC[0] ^= 0x01

	rep, next := v.VerifyDeltaAggregate(fx.recs, fx.now, 0, fx.wm, forged)
	if rep.AggregateApplied || !rep.AggregateFallback {
		t.Fatalf("forged MAC accepted by fast path: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("audit tier rejected honest records: %+v", rep)
	}
	delRep, _ := v.VerifyDelta(fx.recs, fx.now, 0, fx.wm)
	wantEquivalent(t, rep, delRep)
	if len(next.Chain) != 0 {
		t.Fatalf("unauthenticated chain head adopted: %+v", next)
	}
	if len(rep.ChainState) != 0 {
		t.Fatalf("forged evidence exposed as verified chain state")
	}
}

// Replaying a previous round's evidence under a fresh nonce must fail
// the MAC check: the nonce is bound into the MAC input.
func TestAggregateNonceReplayRejected(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 4, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))

	replayed := fx.agg
	replayed.Nonce = fx.agg.Nonce + 1 // verifier's fresh challenge; MAC is from the old one
	rep, _ := v.VerifyDeltaAggregate(fx.recs, fx.now, 0, fx.wm, replayed)
	if rep.AggregateApplied || !rep.AggregateFallback {
		t.Fatalf("replayed evidence accepted: %+v", rep)
	}
}

// Tampering a shipped record's attested content (t or hash bytes) makes
// the walk diverge; the audit tier then grades the records and its
// verdicts carry through unchanged.
func TestAggregateInteriorTamperFallsBack(t *testing.T) {
	memory := []byte("clean image")
	for _, tamper := range []struct {
		name string
		mut  func(r *Record)
	}{
		{"timestamp", func(r *Record) { r.T ^= 0x10 }},
		{"hash", func(r *Record) { r.Hash = append([]byte(nil), r.Hash...); r.Hash[0] ^= 0x40 }},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			fx := mkAggFixture(t, 4, 3, memory)
			v := newTestVerifier(t, goldenFor(memory))
			recs := append([]Record(nil), fx.recs...)
			tamper.mut(&recs[2]) // interior new record

			rep, _ := v.VerifyDeltaAggregate(recs, fx.now, 0, fx.wm, fx.agg)
			if rep.AggregateApplied || !rep.AggregateFallback {
				t.Fatalf("tampered content accepted by fast path: %+v", rep)
			}
			if !rep.TamperDetected {
				t.Fatalf("audit tier missed the tamper: %+v", rep)
			}
			delRep, _ := v.VerifyDelta(recs, fx.now, 0, fx.wm)
			wantEquivalent(t, rep, delRep)
		})
	}
}

// The documented asymmetry: vandalizing only a non-anchor record's MAC
// bytes (t and hash intact) is invisible to the chain — the aggregate
// tier accepts, the audit tier would flag VerdictBadMAC. This test
// pins the caveat so a change in either direction is deliberate.
func TestAggregateMACVandalismCaveat(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 4, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))
	recs := append([]Record(nil), fx.recs...)
	recs[2].MAC = append([]byte(nil), recs[2].MAC...)
	recs[2].MAC[0] ^= 0x80

	rep, _ := v.VerifyDeltaAggregate(recs, fx.now, 0, fx.wm, fx.agg)
	if !rep.AggregateApplied || !rep.Healthy() {
		t.Fatalf("MAC-byte vandalism unexpectedly surfaced on the fast path: %+v", rep)
	}
	delRep, _ := v.VerifyDelta(recs, fx.now, 0, fx.wm)
	if !delRep.TamperDetected {
		t.Fatalf("audit tier should flag the vandalized MAC: %+v", delRep)
	}
}

// Rewriting the anchor record itself IS caught: the watermark comparison
// covers every byte, including the MAC.
func TestAggregateAnchorForgeryFallsBack(t *testing.T) {
	memory := []byte("clean image")
	for _, tamper := range []struct {
		name string
		mut  func(r *Record)
	}{
		{"hash", func(r *Record) { r.Hash = append([]byte(nil), r.Hash...); r.Hash[0] ^= 0x01 }},
		{"mac", func(r *Record) { r.MAC = append([]byte(nil), r.MAC...); r.MAC[0] ^= 0x01 }},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			fx := mkAggFixture(t, 4, 3, memory)
			v := newTestVerifier(t, goldenFor(memory))
			recs := append([]Record(nil), fx.recs...)
			tamper.mut(&recs[len(recs)-1]) // the anchor

			rep, next := v.VerifyDeltaAggregate(recs, fx.now, 0, fx.wm, fx.agg)
			if rep.AggregateApplied || !rep.AggregateFallback {
				t.Fatalf("forged anchor accepted by fast path: %+v", rep)
			}
			if !rep.WatermarkTampered || !rep.TamperDetected {
				t.Fatalf("audit tier missed the anchor forgery: %+v", rep)
			}
			delRep, _ := v.VerifyDelta(recs, fx.now, 0, fx.wm)
			wantEquivalent(t, rep, delRep)
			if !next.IsZero() {
				t.Fatalf("watermark survived anchor forgery: %+v", next)
			}
		})
	}
}

// Truncation — the response missing records the chain committed —
// diverges the walk and falls back; the audit tier's gap detection then
// applies unchanged.
func TestAggregateTruncationFallsBack(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 6, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))
	// Drop two interior new records but keep the anchor.
	recs := append(append([]Record(nil), fx.recs[:2]...), fx.recs[4:]...)

	rep, _ := v.VerifyDeltaAggregate(recs, fx.now, 0, fx.wm, fx.agg)
	if rep.AggregateApplied || !rep.AggregateFallback {
		t.Fatalf("truncated response accepted by fast path: %+v", rep)
	}
	delRep, _ := v.VerifyDelta(recs, fx.now, 0, fx.wm)
	wantEquivalent(t, rep, delRep)
	if delRep.ScheduleGaps == 0 {
		t.Fatalf("audit tier missed the truncation gap: %+v", delRep)
	}
}

// Every way the aggregate tier can fail to close names its reason, and a
// round the fast path accepts names none.
func TestAggregateFallbackReasons(t *testing.T) {
	memory := []byte("clean image")
	type round struct {
		recs []Record
		wm   Watermark
		agg  AggregateEvidence
	}
	cases := []struct {
		name string
		mut  func(fx aggFixture) round
		want FallbackReason
	}{
		{"clean", func(fx aggFixture) round { return round{fx.recs, fx.wm, fx.agg} }, ""},
		{"bad_mac", func(fx aggFixture) round {
			agg := fx.agg
			agg.MAC = append([]byte(nil), agg.MAC...)
			agg.MAC[0] ^= 1
			return round{fx.recs, fx.wm, agg}
		}, FallbackBadMAC},
		{"bootstrap", func(fx aggFixture) round {
			// No watermark, and the records are not the whole history.
			return round{fx.recs, Watermark{}, fx.agg}
		}, FallbackBootstrap},
		{"no_chain_state", func(fx aggFixture) round {
			wm := fx.wm
			wm.Chain = nil
			return round{fx.recs, wm, fx.agg}
		}, FallbackNoChainState},
		{"anchor_missing", func(fx aggFixture) round {
			return round{fx.recs[:len(fx.recs)-1], fx.wm, fx.agg}
		}, FallbackAnchorMissing},
		{"anchor_modified", func(fx aggFixture) round {
			recs := append([]Record(nil), fx.recs...)
			a := &recs[len(recs)-1]
			a.MAC = append([]byte(nil), a.MAC...)
			a.MAC[0] ^= 1
			return round{recs, fx.wm, fx.agg}
		}, FallbackAnchorModified},
		{"walk_diverged", func(fx aggFixture) round {
			recs := append(append([]Record(nil), fx.recs[:1]...), fx.recs[2:]...)
			return round{recs, fx.wm, fx.agg}
		}, FallbackWalkDiverged},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := mkAggFixture(t, 4, 3, memory)
			v := newTestVerifier(t, goldenFor(memory))
			r := c.mut(fx)
			rep, _ := v.VerifyDeltaAggregate(r.recs, fx.now, 0, r.wm, r.agg)
			if rep.AggregateFallbackReason != c.want || rep.AggregateFallback != (c.want != "") {
				t.Fatalf("fallback %v reason %q, want %q", rep.AggregateFallback, rep.AggregateFallbackReason, c.want)
			}
		})
	}
	if len(FallbackReasons()) != len(cases)-1 {
		t.Fatalf("%d reasons listed, %d exercised", len(FallbackReasons()), len(cases)-1)
	}
}

// An anchored-empty response past MaxGap+skew means measurements were
// withheld, lost, or stopped — the aggregate tier must flag it exactly
// like the audit tier (PR 3 semantics), byte-identical message included.
func TestAggregateStaleAnchorStillFlagged(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 0, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))
	// Evidence for "nothing new": head == anchor state.
	agg := AggregateEvidence{Since: fx.wm.T, Nonce: 5, AnchorHash: fx.wm.Hash, State: fx.wm.Chain}
	agg.MAC = mac.Sum(alg, testKey, AggMACInput(agg.Since, agg.Nonce, agg.AnchorHash, agg.State))
	late := fx.wm.T + uint64(sim.Hour+sim.Minute) + uint64(10*sim.Minute)

	rep, _ := v.VerifyDeltaAggregate(fx.recs, late, 0, fx.wm, agg)
	if !rep.AggregateApplied {
		t.Fatalf("anchored-empty round should close on the fast path: %+v", rep)
	}
	if !rep.TamperDetected {
		t.Fatalf("stale anchor not flagged: %+v", rep)
	}
	found := false
	for _, is := range rep.Issues {
		if strings.Contains(is, "withheld, lost, or stopped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("staleness message missing: %+v", rep.Issues)
	}
	delRep, _ := v.VerifyDelta(fx.recs, late, 0, fx.wm)
	wantEquivalent(t, rep, delRep)
}

// After a fallback round the authenticated chain head is still adopted
// (the MAC was genuine even though the walk failed), so the NEXT round
// closes on the fast path again — and a watermark predating the
// aggregate tier upgrades in place the same way.
func TestAggregateChainAdoptionAfterFallbackAndUpgrade(t *testing.T) {
	memory := []byte("clean image")
	fx := mkAggFixture(t, 4, 3, memory)
	v := newTestVerifier(t, goldenFor(memory))

	// A pre-aggregate watermark: same anchor, no chain state.
	legacy := fx.wm
	legacy.Chain = nil
	rep, next := v.VerifyDeltaAggregate(fx.recs, fx.now, 0, legacy, fx.agg)
	if rep.AggregateApplied || !rep.AggregateFallback {
		t.Fatalf("chain-less watermark cannot take the fast path: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("audit tier rejected honest records: %+v", rep)
	}
	// The genuine aggregate MAC authenticated the head: adopted on advance.
	//erasmus:allow(ctcompare) chain equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if !bytes.Equal(next.Chain, fx.agg.State) || next.T != fx.recs[0].T {
		t.Fatalf("chain head not adopted after fallback: %+v", next)
	}

	// Anchored-empty keep-prev round: the watermark upgrades in place.
	emptyAgg := AggregateEvidence{Since: fx.wm.T, Nonce: 8, AnchorHash: fx.wm.Hash, State: fx.wm.Chain}
	emptyAgg.MAC = mac.Sum(alg, testKey, AggMACInput(emptyAgg.Since, emptyAgg.Nonce, emptyAgg.AnchorHash, emptyAgg.State))
	soon := fx.wm.T + uint64(30*sim.Minute)
	anchorOnly := []Record{{T: fx.wm.T, Hash: fx.wm.Hash, MAC: fx.wm.MAC}}
	repEmpty, upgraded := v.VerifyDeltaAggregate(anchorOnly, soon, 0, legacy, emptyAgg)
	if !repEmpty.AggregateFallback {
		t.Fatalf("chain-less watermark cannot walk: %+v", repEmpty)
	}
	//erasmus:allow(ctcompare) chain equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if upgraded.T != legacy.T || !bytes.Equal(upgraded.Chain, fx.wm.Chain) {
		t.Fatalf("keep-prev watermark did not upgrade with the verified head: %+v", upgraded)
	}
}

// Randomized equivalence sweep: across clean rounds and every tamper
// class that changes attested content, the aggregate tier's shared
// report fields are identical to the audit tier's.
func TestAggregateEquivalenceRandomized(t *testing.T) {
	memory := []byte("clean image")
	infected := []byte("implanted image")
	rng := rand.New(rand.NewSource(1707))
	v := newTestVerifier(t, goldenFor(memory))

	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(6)
		pre := rng.Intn(4)
		mem := memory
		if rng.Intn(4) == 0 {
			mem = infected
		}
		fx := mkAggFixture(t, n, pre, mem)
		recs := append([]Record(nil), fx.recs...)
		agg := fx.agg
		scenario := rng.Intn(6)
		switch scenario {
		case 1: // tamper a record's timestamp
			recs[rng.Intn(len(recs))].T ^= 1 << uint(rng.Intn(8))
		case 2: // tamper a record's hash
			j := rng.Intn(len(recs))
			recs[j].Hash = append([]byte(nil), recs[j].Hash...)
			recs[j].Hash[rng.Intn(len(recs[j].Hash))] ^= 0xFF
		case 3: // truncate from the middle (keep anchor when possible)
			if len(recs) > 2 {
				j := 1 + rng.Intn(len(recs)-2)
				recs = append(recs[:j], recs[j+1:]...)
			}
		case 4: // forge the aggregate MAC
			agg.MAC = append([]byte(nil), agg.MAC...)
			agg.MAC[rng.Intn(len(agg.MAC))] ^= 1 << uint(rng.Intn(8))
		case 5: // stale nonce
			agg.Nonce++
		}
		aggRep, _ := v.VerifyDeltaAggregate(recs, fx.now, 0, fx.wm, agg)
		delRep, _ := v.VerifyDelta(recs, fx.now, 0, fx.wm)
		a, d := stripAggFields(aggRep), stripAggFields(delRep)
		if !reflect.DeepEqual(a, d) {
			t.Fatalf("iteration %d (scenario %d): reports diverge:\nagg:   %+v\ndelta: %+v",
				i, scenario, a, d)
		}
	}
}

// The live prover↔verifier loop: bootstrap on the first collection,
// anchored fast-path rounds after, chain handed forward each time.
func TestAggregateProverVerifierLoop(t *testing.T) {
	e := sim.NewEngine()
	dev, p := newMCUPair(t, e, sim.Hour, 16)
	p.Start()
	e.RunUntil(5*sim.Hour + 30*sim.Minute)

	golden := mac.HashSum(mac.HMACSHA256, dev.Memory())
	v, err := NewVerifier(VerifierConfig{
		Alg: mac.HMACSHA256, Key: testKey, GoldenHashes: [][]byte{golden},
		MinGap: sim.Hour - sim.Minute, MaxGap: sim.Hour + sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap: everything so far, zero watermark.
	recs, state, aggMAC, _, err := p.HandleCollectDeltaAggregate(0, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, p.ChainHead()) {
		t.Fatal("shipped state is not the chain head")
	}
	agg := AggregateEvidence{Since: 0, Nonce: 1, State: state, MAC: aggMAC}
	rep, wm := v.VerifyDeltaAggregate(recs, dev.RROC(), 5, Watermark{}, agg)
	if !rep.AggregateApplied || !rep.Healthy() {
		t.Fatalf("bootstrap round failed: %+v", rep)
	}
	if len(wm.Chain) == 0 {
		t.Fatalf("bootstrap watermark missing chain: %+v", wm)
	}

	// Three more measurements; anchored aggregate round.
	e.RunUntil(8*sim.Hour + 30*sim.Minute)
	recs2, state2, aggMAC2, _, err := p.HandleCollectDeltaAggregate(wm.T, 2, 0, wm.Hash)
	if err != nil {
		t.Fatal(err)
	}
	agg2 := AggregateEvidence{Since: wm.T, Nonce: 2, AnchorHash: wm.Hash, State: state2, MAC: aggMAC2}
	rep2, wm2 := v.VerifyDeltaAggregate(recs2, dev.RROC(), 0, wm, agg2)
	if !rep2.AggregateApplied || rep2.AggregateFallback || !rep2.Healthy() {
		t.Fatalf("anchored round failed: %+v", rep2)
	}
	if rep2.OverlapTrusted != 1 || len(rep2.Records) != 3 {
		t.Fatalf("anchored round graded wrong set: %+v", rep2)
	}
	//erasmus:allow(ctcompare) chain equality assertion on test-known values; no prover-supplied operand, no timing oracle
	if wm2.T <= wm.T || !bytes.Equal(wm2.Chain, state2) {
		t.Fatalf("watermark did not advance with the chain: %+v", wm2)
	}
	p.Stop()
}

// Wire round-trips for the two new frames, including rejection of
// truncated input.
func TestAggregateWireRoundTrip(t *testing.T) {
	req := AggDeltaCollectRequest{Since: 77, Nonce: 12345, K: -1, AnchorHash: []byte{1, 2, 3, 4}}
	dec, err := DecodeAggDeltaCollectRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, dec) {
		t.Fatalf("request round-trip: %+v != %+v", dec, req)
	}
	if _, err := DecodeAggDeltaCollectRequest(req.Encode()[:10]); err == nil {
		t.Fatal("truncated request accepted")
	}

	memory := []byte("img")
	recs := history(3, uint64(9*sim.Hour), sim.Hour, memory)
	resp := AggCollectResponse{
		ChainState: []byte{9, 9, 9},
		AggMAC:     []byte{8, 8},
		Records:    recs,
	}
	enc := resp.Encode(alg)
	back, err := DecodeAggCollectResponse(alg, enc)
	if err != nil {
		t.Fatal(err)
	}
	//erasmus:allow(ctcompare) round-trip decode assertion on test-known values; no prover-supplied operand, no timing oracle
	if !bytes.Equal(back.ChainState, resp.ChainState) || !bytes.Equal(back.AggMAC, resp.AggMAC) {
		t.Fatalf("response fields lost: %+v", back)
	}
	if len(back.Records) != 3 || !reflect.DeepEqual(back.Records[0].Hash, recs[0].Hash) {
		t.Fatalf("records lost: %+v", back.Records)
	}
	for cut := 1; cut < 6; cut++ {
		if _, err := DecodeAggCollectResponse(alg, enc[:len(enc)-cut]); err == nil {
			t.Fatalf("truncated response (cut %d) accepted", cut)
		}
	}
}

// The steady-state fast path must not scale allocations with the record
// count — fixed per-call overhead only.
func TestAggregateVerifyAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; alloc counts jitter")
	}
	memory := []byte("clean image")
	v := newTestVerifier(t, goldenFor(memory))
	measure := func(n int) float64 {
		fx := mkAggFixture(t, n, 2, memory)
		return testing.AllocsPerRun(50, func() {
			rep, _ := v.VerifyDeltaAggregate(fx.recs, fx.now, 0, fx.wm, fx.agg)
			if !rep.AggregateApplied {
				t.Fatal("fast path not taken")
			}
		})
	}
	small, large := measure(16), measure(512)
	if large > small {
		t.Fatalf("allocations scale with record count: %v at k=16, %v at k=512", small, large)
	}
	t.Logf("allocs/op: %v at k=16, %v at k=512", small, large)
}

func TestAggMACInputDomainSeparated(t *testing.T) {
	in := AggMACInput(1, 2, []byte{3}, []byte{4, 5})
	if !bytes.HasPrefix(in, aggMACDomain) {
		t.Fatal("domain tag missing")
	}
	// Distinct challenges yield distinct inputs.
	if bytes.Equal(in, AggMACInput(1, 3, []byte{3}, []byte{4, 5})) {
		t.Fatal("nonce not bound")
	}
	if bytes.Equal(in, AggMACInput(1, 2, nil, []byte{3, 4, 5})) {
		t.Fatal("anchor length not bound")
	}
}

package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// oldMatches is the pre-fix Watermark.Matches: the variable-time
// bytes.Equal comparison the constant-time helper replaced. Kept here as
// the oracle for the verdict-equivalence regression.
func oldMatches(w Watermark, rec Record) bool {
	//erasmus:allow(ctcompare) this IS the deliberate variable-time pre-fix oracle the equivalence regression compares Matches against
	return rec.T == w.T && bytes.Equal(rec.Hash, w.Hash) && bytes.Equal(rec.MAC, w.MAC)
}

// TestConstantTimeMatchEquivalence proves the constant-time anchor match
// is decision-equivalent to the bytes.Equal version it replaced, over
// clean anchors and every single-byte corruption, truncation, and
// extension of the anchor's hash and MAC fields. Only the timing
// behavior changed; no verdict may.
func TestConstantTimeMatchEquivalence(t *testing.T) {
	key := []byte("ct-equivalence-key")
	rng := rand.New(rand.NewSource(41))
	for _, alg := range mac.Algorithms() {
		mem := make([]byte, 64)
		rng.Read(mem)
		rec := ComputeRecord(alg, key, 1_000_000, mem)
		wm := NewWatermark(rec)

		variants := []Record{rec} // the clean anchor
		for i := range rec.Hash {
			v := cloneRecord(rec)
			v.Hash[i] ^= 1 << uint(i%8)
			variants = append(variants, v)
		}
		for i := range rec.MAC {
			v := cloneRecord(rec)
			v.MAC[i] ^= 1 << uint(i%8)
			variants = append(variants, v)
		}
		trunc := cloneRecord(rec)
		trunc.MAC = trunc.MAC[:len(trunc.MAC)-1]
		ext := cloneRecord(rec)
		ext.MAC = append(ext.MAC, 0)
		shortHash := cloneRecord(rec)
		shortHash.Hash = shortHash.Hash[:len(shortHash.Hash)-1]
		wrongT := cloneRecord(rec)
		wrongT.T++
		variants = append(variants, trunc, ext, shortHash, wrongT, Record{})

		for i, v := range variants {
			if got, want := wm.Matches(v), oldMatches(wm, v); got != want {
				t.Fatalf("%s variant %d: Matches=%v, bytes.Equal oracle=%v", alg, i, got, want)
			}
		}
	}
}

// TestConstantTimeVerdictEquivalence runs full VerifyDelta reports over a
// clean anchored delta and a tampered-anchor delta, asserting the reports
// are field-identical to what the variable-time comparison yielded: the
// clean anchor is still consumed O(1) (OverlapTrusted), and an in-place
// anchor modification still surfaces as WatermarkTampered.
func TestConstantTimeVerdictEquivalence(t *testing.T) {
	key := []byte("ct-verdict-key")
	mem := []byte("golden image")
	tm := uint64(sim.Minute)
	v, err := NewVerifier(VerifierConfig{
		Alg: mac.HMACSHA256, Key: key,
		GoldenHashes: [][]byte{mac.HashSum(mac.HMACSHA256, mem)},
		MinGap:       sim.Ticks(tm - tm/10), MaxGap: sim.Ticks(tm + tm/2),
	})
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(100) * tm
	anchor := ComputeRecord(mac.HMACSHA256, key, base, mem)
	wm := NewWatermark(anchor)
	newer := []Record{
		ComputeRecord(mac.HMACSHA256, key, base+2*tm, mem),
		ComputeRecord(mac.HMACSHA256, key, base+tm, mem),
	}
	now := base + 2*tm + tm/4

	clean := append(append([]Record(nil), newer...), anchor)
	rep, next := v.VerifyDelta(clean, now, 0, wm)
	if rep.TamperDetected || rep.WatermarkTampered || rep.OverlapTrusted != 1 {
		t.Fatalf("clean anchored delta misjudged: %+v", rep)
	}
	if next.T != base+2*tm {
		t.Fatalf("watermark did not advance: %+v", next)
	}

	tampered := cloneRecord(anchor)
	tampered.MAC[0] ^= 0x80
	rep2, next2 := v.VerifyDelta(append(append([]Record(nil), newer...), tampered), now, 0, wm)
	if !rep2.WatermarkTampered || !rep2.TamperDetected {
		t.Fatalf("modified anchor not flagged: %+v", rep2)
	}
	if !next2.IsZero() {
		t.Fatalf("tampered round must reset the watermark, got %+v", next2)
	}
	// The verdicts on the new records themselves are unchanged between the
	// clean and tampered rounds: anchor equality only gates the O(1)
	// overlap shortcut, never the per-record checks. The tampered round
	// additionally keeps the modified anchor in the verify set, where the
	// ordinary MAC check convicts it.
	if len(rep2.Records) != len(rep.Records)+1 {
		t.Fatalf("tampered round should verify the anchor too: %+v", rep2.Records)
	}
	if !reflect.DeepEqual(rep.Records, rep2.Records[:len(rep.Records)]) {
		t.Fatalf("per-record verdicts diverged:\nclean:    %+v\ntampered: %+v", rep.Records, rep2.Records)
	}
	if last := rep2.Records[len(rep2.Records)-1]; last.Record.T != base || last.Verdict != VerdictBadMAC {
		t.Fatalf("modified anchor verdict: %+v", last)
	}
}

// TestConstantTimeChainWalkEquivalence pins walkChain's accept/reject
// decisions after the constant-time switch: the recomputed chain state
// still matches the prover's claimed head exactly when the shipped
// records are the committed stream, and any corruption of the claimed
// head bytes — including length changes — is still rejected.
func TestConstantTimeChainWalkEquivalence(t *testing.T) {
	d := newChain()
	recs := []Record{
		{T: 300, Hash: []byte("h3")},
		{T: 200, Hash: []byte("h2")},
		{T: 100, Hash: []byte("h1")},
	}
	var buf [8]byte
	for i := len(recs) - 1; i >= 0; i-- {
		chainAbsorb(d, buf[:], recs[i].T, recs[i].Hash)
	}
	head := marshalChain(d)
	if !walkChain(nil, recs, -1, head) {
		t.Fatal("genesis walk over the committed stream must close")
	}
	for i := range head {
		bad := append([]byte(nil), head...)
		bad[i] ^= 1
		if walkChain(nil, recs, -1, bad) {
			t.Fatalf("corrupted head byte %d accepted", i)
		}
	}
	if walkChain(nil, recs, -1, head[:len(head)-1]) {
		t.Fatal("truncated head accepted")
	}
	if walkChain(nil, recs, -1, append(append([]byte(nil), head...), 0)) {
		t.Fatal("extended head accepted")
	}
}

// TestConstantTimeEqualMatchesBytesEqual is the primitive-level property:
// mac.ConstantTimeEqual decides exactly as bytes.Equal on random pairs,
// equal pairs, prefixes, and nil/empty values.
func TestConstantTimeEqualMatchesBytesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(a, b []byte) {
		if got, want := mac.ConstantTimeEqual(a, b), bytes.Equal(a, b); got != want {
			t.Fatalf("ConstantTimeEqual(%x, %x)=%v, bytes.Equal=%v", a, b, got, want)
		}
	}
	check(nil, nil)
	check(nil, []byte{})
	check([]byte{1}, nil)
	for i := 0; i < 500; i++ {
		a := make([]byte, rng.Intn(40))
		rng.Read(a)
		b := append([]byte(nil), a...)
		switch rng.Intn(3) {
		case 0: // equal
		case 1: // one byte flipped
			if len(b) > 0 {
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
			}
		case 2: // prefix / extension
			b = b[:rng.Intn(len(b)+1)]
		}
		check(a, b)
		check(b, a)
	}
}

func cloneRecord(r Record) Record {
	return Record{
		T:    r.T,
		Hash: append([]byte(nil), r.Hash...),
		MAC:  append([]byte(nil), r.MAC...),
	}
}

package fleet

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/netsim"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/udptransport"
)

// ---- delta collection vs full re-verification ----------------------------
//
// ISSUE 3's acceptance criterion: with delta collection + incremental
// verification enabled, the fleet alert stream and per-collection verdicts
// must be field-identical to full re-verification, over both transports.
// (The record *lists* inside reports differ by design — a delta round
// verifies only the records newer than the watermark — so "verdicts" are
// the per-collection verdict fields, captured as verdictSummary.)

// verdictSummary is the per-collection verdict: every Report field that
// feeds device state and the alert stream.
type verdictSummary struct {
	Tamper, Infection bool
	Missing, Gaps     int
	Freshness         sim.Ticks
	Healthy           bool
	FirstIssue        string
}

func summarize(rep core.Report) verdictSummary {
	return verdictSummary{
		Tamper: rep.TamperDetected, Infection: rep.InfectionDetected,
		Missing: rep.MissingRecords, Gaps: rep.ScheduleGaps,
		Freshness: rep.Freshness, Healthy: rep.Healthy(),
		FirstIssue: firstIssue(rep),
	}
}

// runDeltaEqSim drives the transport-equivalence scenario over the
// simulated network with or without delta collection, returning the alert
// stream, each device's verdict sequence in collection order, and the
// number of rounds that genuinely verified incrementally. Verification
// runs inline (Synchronous): on a virtual-time engine the async
// pipeline's verdicts would lag the instantly-advancing clock, and every
// round would fall back to a full collection — equivalent in outcome, but
// then the incremental path would be exercised by nothing.
func runDeltaEqSim(t *testing.T, delta bool) ([]Alert, map[string][]verdictSummary, int) {
	t.Helper()
	e := sim.NewEngine()
	nw, err := netsim.New(e, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	provers, goldens := buildEqProvers(t, e)
	for addr, p := range provers {
		if _, err := session.AttachProver(nw, e, addr, p, alg); err != nil {
			t.Fatal(err)
		}
	}
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(e.Now()) }
	col, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string][]verdictSummary)
	deltaRounds := 0
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col, Clock: clock, Delta: delta, Synchronous: true,
		OnReport: func(addr string, rep core.Report) {
			verdicts[addr] = append(verdicts[addr], summarize(rep))
			if rep.DeltaApplied {
				deltaRounds++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	e.RunUntil(eqHorizon)
	mgr.Stop()
	mgr.Flush()
	defer mgr.Close()
	return mgr.Alerts(), verdicts, deltaRounds
}

// runDeltaEqUDP drives the same scenario over real UDP sockets with delta
// collection enabled.
func runDeltaEqUDP(t *testing.T) ([]Alert, map[string][]verdictSummary) {
	t.Helper()
	proverEngine := sim.NewEngine()
	provers, goldens := buildEqProvers(t, proverEngine)
	serveStart := time.Now()
	srv, err := udptransport.ServeFleet("127.0.0.1:0", proverEngine, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for addr, p := range provers {
		if err := srv.Host(addr, p); err != nil {
			t.Fatal(err)
		}
	}

	col, err := NewUDPCollector(srv.Addr().String(), len(provers))
	if err != nil {
		t.Fatal(err)
	}
	mgrEngine := sim.NewEngine()
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(mgrEngine.Now()) }
	var mu sync.Mutex
	verdicts := make(map[string][]verdictSummary)
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: mgrEngine, Collector: col, Clock: clock, Delta: true,
		OnReport: func(addr string, rep core.Report) {
			mu.Lock()
			verdicts[addr] = append(verdicts[addr], summarize(rep))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	pumpFromServeStart(mgrEngine, serveStart, eqHorizon)
	mgr.Stop()
	mgr.Flush()
	defer mgr.Close()
	return mgr.Alerts(), verdicts
}

// Delta collection must be invisible in outcomes on the simulated
// network: alert streams and per-device verdict sequences field-identical
// to stateless full re-verification.
func TestDeltaEquivalenceSim(t *testing.T) {
	fullAlerts, fullVerdicts, fullRounds := runDeltaEqSim(t, false)
	deltaAlerts, deltaVerdicts, deltaRounds := runDeltaEqSim(t, true)

	if len(fullAlerts) == 0 {
		t.Fatal("scenario produced no alerts; it exercises nothing")
	}
	if !reflect.DeepEqual(fullAlerts, deltaAlerts) {
		t.Errorf("alert streams diverge:\nfull:  %+v\ndelta: %+v", fullAlerts, deltaAlerts)
	}
	if !reflect.DeepEqual(fullVerdicts, deltaVerdicts) {
		t.Errorf("verdict sequences diverge:\nfull:  %+v\ndelta: %+v", fullVerdicts, deltaVerdicts)
	}
	// Sanity: the delta run genuinely verified incrementally. The clean
	// and infected devices advance watermarks after their first clean (or
	// authentic-infected) round; only the wrong-key device — whose every
	// round is tampered — stays on stateless full collection. 4 devices ×
	// ~4 rounds in the horizon, minus each device's first (stateless)
	// round and eq-02's permanent fallback ⇒ well over half the rounds.
	if fullRounds != 0 {
		t.Errorf("stateless run reported %d delta rounds", fullRounds)
	}
	if deltaRounds < 6 {
		t.Errorf("delta run verified incrementally only %d rounds; the incremental path is not being exercised", deltaRounds)
	}
	for _, d := range eqFleet() {
		if len(deltaVerdicts[d.addr]) == 0 {
			t.Errorf("device %s never verified", d.addr)
		}
	}
}

// The same holds across transports: delta over real UDP sockets is
// field-identical to delta over the simulated network.
func TestDeltaEquivalenceUDP(t *testing.T) {
	simAlerts, simVerdicts, _ := runDeltaEqSim(t, true)
	udpAlerts, udpVerdicts := runDeltaEqUDP(t)

	if !reflect.DeepEqual(canonicalAlerts(simAlerts), canonicalAlerts(udpAlerts)) {
		t.Errorf("alert streams diverge across transports:\nsim: %+v\nudp: %+v",
			canonicalAlerts(simAlerts), canonicalAlerts(udpAlerts))
	}
	if !reflect.DeepEqual(simVerdicts, udpVerdicts) {
		t.Errorf("verdict sequences diverge across transports:\nsim: %+v\nudp: %+v",
			simVerdicts, udpVerdicts)
	}
}

// Tamper inserted into the already-verified overlap region — the record
// the verifier's watermark points at, modified in the device's store
// after it was verified — must still raise a tamper alert in delta mode,
// through the O(1) anchor equality check.
func TestDeltaFleetOverlapTamperDetected(t *testing.T) {
	e := sim.NewEngine()
	nw, err := netsim.New(e, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("overlap-device-key")
	dev, err := imx6.New(imx6.Config{
		Engine: e, MemorySize: eqMemory,
		StoreSize: eqSlots * core.RecordSize(alg),
		Key:       key,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := mac.HashSum(alg, dev.Memory())
	sched, err := core.NewRegularWithPhase(eqTM, eqPhase)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: eqSlots})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if _, err := session.AttachProver(nw, e, "ov-00", p, alg); err != nil {
		t.Fatal(err)
	}
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(e.Now()) }
	col, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col, Clock: clock, Delta: true, Synchronous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Register(DeviceConfig{
		Addr: "ov-00", Key: key, Alg: alg,
		QoA:          core.QoA{TM: eqTM, TC: eqTC},
		GoldenHashes: [][]byte{golden},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// The first collection (launched at TC) verifies cleanly and leaves
	// the watermark at the then-newest record. Between rounds, malware
	// flips one byte of exactly that record in the insecure store.
	e.At(eqTC+eqTM, func() {
		anchorT := p.LastMeasurementTime() - uint64(eqTM) // newest at round 1
		slot := p.Buffer().SlotForTime(anchorT, eqTM)
		store := dev.Store()
		off := slot*core.RecordSize(alg) + 8 + alg.HashSize() // first MAC byte
		store[off] ^= 0x40
	})

	e.RunUntil(3*eqTC + eqTM)
	mgr.Stop()
	mgr.Flush()
	defer mgr.Close()

	// Note the contrast with a stateless verifier: by the second
	// collection the tampered record has rotated out of the k newest, so
	// full re-verification would never re-ship it and the manipulation
	// would go entirely unnoticed. The watermark equality check is what
	// detects it.
	alerts := mgr.Alerts()
	sort.Slice(alerts, func(i, j int) bool { return alerts[i].Time < alerts[j].Time })
	var tamper *Alert
	for i := range alerts {
		if alerts[i].Kind == AlertTamper {
			tamper = &alerts[i]
			break
		}
	}
	if tamper == nil {
		t.Fatalf("overlap tamper raised no alert: %+v", alerts)
	}
	if tamper.Time != 2*eqTC {
		t.Errorf("tamper alert at %v, want the second collection (%v)", tamper.Time, 2*eqTC)
	}
	if !strings.Contains(tamper.Detail, "modified since last verification") {
		t.Errorf("alert detail %q does not name the watermark equality check", tamper.Detail)
	}

	// The fallback then re-establishes state: the tamper reset the
	// watermark, the third round is a stateless full collection of four
	// younger (clean) records, and the device recovers.
	want := []AlertKind{AlertTamper, AlertRecovered}
	got := make([]AlertKind, len(alerts))
	for i, a := range alerts {
		got[i] = a.Kind
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("alert kinds %v, want %v", got, want)
	}
}

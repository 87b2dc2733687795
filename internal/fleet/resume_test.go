package fleet

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/netsim"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/store"
	"erasmus/internal/udptransport"
)

// ---- kill-and-resume equivalence ------------------------------------------
//
// ISSUE 5's acceptance criterion: a fleet run interrupted mid-stream and
// recovered from internal/store must produce an alert stream (and verdict
// sequences) field-identical to an uninterrupted run, with zero spurious
// re-alerts and zero forced full-collection fallbacks after recovery. The
// manager process "dies" between rounds — tickers stopped, in-flight
// verdicts applied and synced, store closed without a snapshot so
// recovery replays the write-ahead log — while the prover devices keep
// running, exactly the deployment reality the store exists for.

// resumeAt is mid-stream: after eq-01's third-round collection (launched
// at 540 ms) and before eq-02's (600 ms), so the crash lands between two
// devices' rounds of the same sweep.
const resumeAt = 550 * sim.Millisecond

// killAndResumeSim runs the delta-equivalence scenario over the simulated
// network, killing the manager at resumeAt and recovering a fresh one from
// the store. Returns the recovered manager's full alert stream (prefix +
// resumed run), the concatenated per-device verdict sequences, and the
// count of post-recovery rounds that fell back to a stateless full
// collection on devices that held a watermark at the crash.
func killAndResumeSim(t *testing.T) ([]Alert, map[string][]verdictSummary, int) {
	t.Helper()
	dir := t.TempDir()
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
	verdicts := make(map[string][]verdictSummary)
	onReport := func(addr string, rep core.Report) {
		verdicts[addr] = append(verdicts[addr], summarize(rep))
	}

	// Run A: the manager that will die.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col, Clock: clock,
		Delta: true, Synchronous: true, Store: st,
		OnReport: onReport,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	e.RunUntil(resumeAt)
	mgr.Stop()
	mgr.Flush()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: a brand-new manager over the reopened store — no snapshot
	// was ever taken, so this is a pure WAL replay.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ri := st2.Recovery(); ri.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed no WAL records: %+v", ri)
	}
	col2, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	mgr2, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col2, Clock: clock,
		Delta: true, Synchronous: true, Store: st2,
		OnReport: func(addr string, rep core.Report) {
			onReport(addr, rep)
			// eq-02's wrong key makes every round tamper + watermark reset,
			// so it is legitimately stateless forever; everything else must
			// resume incrementally from the recovered watermark.
			if addr != "eq-02" && !rep.DeltaApplied {
				fallbacks++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr2, goldens)
	mgr2.Start()
	e.RunUntil(eqHorizon)
	mgr2.Stop()
	mgr2.Flush()
	defer mgr2.Close()
	return mgr2.Alerts(), verdicts, fallbacks
}

// TestKillAndResumeSim: the recovered run's alert stream and verdict
// sequences are field-identical to an uninterrupted run over the
// simulated network, with zero post-recovery full-collection fallbacks.
func TestKillAndResumeSim(t *testing.T) {
	wantAlerts, wantVerdicts, _ := runDeltaEqSim(t, true)
	gotAlerts, gotVerdicts, fallbacks := killAndResumeSim(t)

	if len(wantAlerts) == 0 {
		t.Fatal("scenario produced no alerts; it exercises nothing")
	}
	if !reflect.DeepEqual(wantAlerts, gotAlerts) {
		t.Errorf("alert streams diverge:\nuninterrupted: %+v\nresumed:       %+v", wantAlerts, gotAlerts)
	}
	if !reflect.DeepEqual(wantVerdicts, gotVerdicts) {
		t.Errorf("verdict sequences diverge:\nuninterrupted: %+v\nresumed:       %+v", wantVerdicts, gotVerdicts)
	}
	if fallbacks != 0 {
		t.Errorf("%d post-recovery rounds fell back to full collection; recovered watermarks are not being used", fallbacks)
	}
}

// TestKillAndResumeUDP: the same interruption over real UDP sockets —
// the prover-side fleet server stays up while the manager dies and a
// recovered one re-dials it — matches the uninterrupted simulated-network
// stream (the deterministic reference, as in TestDeltaEquivalenceUDP).
func TestKillAndResumeUDP(t *testing.T) {
	refAlerts, refVerdicts, _ := runDeltaEqSim(t, true)

	dir := t.TempDir()
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

	var mu sync.Mutex
	verdicts := make(map[string][]verdictSummary)
	onReport := func(addr string, rep core.Report) {
		mu.Lock()
		verdicts[addr] = append(verdicts[addr], summarize(rep))
		mu.Unlock()
	}

	// Run A.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewUDPCollector(srv.Addr().String(), len(provers))
	if err != nil {
		t.Fatal(err)
	}
	mgrEngine := sim.NewEngine()
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(mgrEngine.Now()) }
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: mgrEngine, Collector: col, Clock: clock,
		Delta: true, Store: st, OnReport: onReport,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	pumpFromServeStart(mgrEngine, serveStart, resumeAt)
	mgr.Stop()
	mgr.Flush()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: fresh engine pre-positioned at the crash point, fresh
	// sockets to the same server, watermarks and anchors from the store.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	col2, err := NewUDPCollector(srv.Addr().String(), len(provers))
	if err != nil {
		t.Fatal(err)
	}
	mgrEngine2 := sim.NewEngine()
	mgrEngine2.RunUntil(resumeAt)
	clock2 := func() uint64 { return imx6.DefaultEpoch + uint64(mgrEngine2.Now()) }
	mgr2, err := NewManagerWith(ManagerConfig{
		Engine: mgrEngine2, Collector: col2, Clock: clock2,
		Delta: true, Store: st2, OnReport: onReport,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr2, goldens)
	mgr2.Start()
	pumpFromServeStart(mgrEngine2, serveStart, eqHorizon)
	mgr2.Stop()
	mgr2.Flush()
	defer mgr2.Close()

	if !reflect.DeepEqual(canonicalAlerts(refAlerts), canonicalAlerts(mgr2.Alerts())) {
		t.Errorf("alert streams diverge:\nuninterrupted sim: %+v\nresumed udp:       %+v",
			canonicalAlerts(refAlerts), canonicalAlerts(mgr2.Alerts()))
	}
	if !reflect.DeepEqual(refVerdicts, verdicts) {
		t.Errorf("verdict sequences diverge:\nuninterrupted sim: %+v\nresumed udp:       %+v",
			refVerdicts, verdicts)
	}
}

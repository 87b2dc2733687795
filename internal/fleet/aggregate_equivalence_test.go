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

// ---- aggregate tier vs per-record delta verification -----------------------
//
// ISSUE 8's acceptance criterion: with the aggregate tier enabled, the
// fleet alert stream and per-collection verdicts must be field-identical
// to per-record delta verification, over both transports, including after
// a mid-stream crash and store recovery — and mismatching evidence must
// drop to the audit tier without producing any extra alert.

// runAggEqSim drives the delta-equivalence scenario over the simulated
// network with the aggregate tier on, returning the alert stream, verdict
// sequences, the number of rounds closed by the aggregate fast path, and
// the number that fell back to the audit tier.
func runAggEqSim(t *testing.T) ([]Alert, map[string][]verdictSummary, int, int) {
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
	aggRounds, fallbacks := 0, 0
	mgr, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col, Clock: clock, Aggregate: true, Synchronous: true,
		OnReport: func(addr string, rep core.Report) {
			verdicts[addr] = append(verdicts[addr], summarize(rep))
			if rep.AggregateApplied {
				aggRounds++
			}
			if rep.AggregateFallback {
				fallbacks++
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
	return mgr.Alerts(), verdicts, aggRounds, fallbacks
}

// The aggregate tier must be invisible in outcomes: alert streams and
// verdict sequences field-identical to per-record delta verification,
// with the fast path doing the bulk of the work and the wrong-key device
// (whose evidence can never authenticate) falling back every round
// without raising anything beyond its usual tamper alerts.
func TestAggregateEquivalenceSim(t *testing.T) {
	deltaAlerts, deltaVerdicts, _ := runDeltaEqSim(t, true)
	aggAlerts, aggVerdicts, aggRounds, fallbacks := runAggEqSim(t)

	if len(deltaAlerts) == 0 {
		t.Fatal("scenario produced no alerts; it exercises nothing")
	}
	if !reflect.DeepEqual(deltaAlerts, aggAlerts) {
		t.Errorf("alert streams diverge:\ndelta:     %+v\naggregate: %+v", deltaAlerts, aggAlerts)
	}
	if !reflect.DeepEqual(deltaVerdicts, aggVerdicts) {
		t.Errorf("verdict sequences diverge:\ndelta:     %+v\naggregate: %+v", deltaVerdicts, aggVerdicts)
	}
	// Sanity: the run genuinely verified through the aggregate tier. Three
	// healthy-key devices × ~4 rounds each inside the horizon.
	if aggRounds < 6 {
		t.Errorf("only %d rounds closed on the aggregate fast path; the tier is not being exercised", aggRounds)
	}
	// eq-02's wrong registration key makes its evidence MAC unverifiable,
	// so each of its rounds is an audit-tier fallback — and nothing else
	// should be falling back in a loss-free scenario.
	if fallbacks == 0 {
		t.Error("wrong-key device produced no audit-tier fallbacks; the fallback path is not being exercised")
	}
	for _, d := range eqFleet() {
		if len(aggVerdicts[d.addr]) == 0 {
			t.Errorf("device %s never verified", d.addr)
		}
	}
}

// runAggEqUDP drives the same scenario over real UDP sockets with the
// aggregate tier on.
func runAggEqUDP(t *testing.T) ([]Alert, map[string][]verdictSummary) {
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
		Engine: mgrEngine, Collector: col, Clock: clock, Aggregate: true,
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

// The same holds across transports: the aggregate tier over real UDP
// sockets is field-identical to the aggregate tier over the simulated
// network (and hence, transitively, to per-record delta verification).
func TestAggregateEquivalenceUDP(t *testing.T) {
	simAlerts, simVerdicts, _, _ := runAggEqSim(t)
	udpAlerts, udpVerdicts := runAggEqUDP(t)

	if !reflect.DeepEqual(canonicalAlerts(simAlerts), canonicalAlerts(udpAlerts)) {
		t.Errorf("alert streams diverge across transports:\nsim: %+v\nudp: %+v",
			canonicalAlerts(simAlerts), canonicalAlerts(udpAlerts))
	}
	if !reflect.DeepEqual(simVerdicts, udpVerdicts) {
		t.Errorf("verdict sequences diverge across transports:\nsim: %+v\nudp: %+v",
			simVerdicts, udpVerdicts)
	}
}

// TestKillAndResumeAggregateSim: a mid-stream crash and store recovery
// under the aggregate tier. The recovered watermarks carry the persisted
// chain state, so post-recovery rounds resume on the fast path — no
// re-alerts, no forced stateless collections, and no audit-tier rounds
// beyond the wrong-key device's permanent ones.
func TestKillAndResumeAggregateSim(t *testing.T) {
	wantAlerts, wantVerdicts, _, _ := runAggEqSim(t)

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
		Aggregate: true, Synchronous: true, Store: st,
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

	// Recovery: WAL replay must hand back watermarks WITH chain state.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ri := st2.Recovery(); ri.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed no WAL records: %+v", ri)
	}
	chained := 0
	for _, d := range eqFleet() {
		if wm, ok := st2.LoadWatermark(d.addr); ok && len(wm.Chain) > 0 {
			chained++
		}
	}
	if chained == 0 {
		t.Fatal("no recovered watermark carries chain state; the aggregate tier cannot resume")
	}
	col2, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	auditRounds := 0
	mgr2, err := NewManagerWith(ManagerConfig{
		Engine: e, Collector: col2, Clock: clock,
		Aggregate: true, Synchronous: true, Store: st2,
		OnReport: func(addr string, rep core.Report) {
			onReport(addr, rep)
			// Post-recovery, every healthy-key device must stay on the
			// fast path from its very first round: the recovered chain
			// state is what makes that possible.
			if addr != "eq-02" && !rep.AggregateApplied {
				auditRounds++
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

	if !reflect.DeepEqual(wantAlerts, mgr2.Alerts()) {
		t.Errorf("alert streams diverge:\nuninterrupted: %+v\nresumed:       %+v", wantAlerts, mgr2.Alerts())
	}
	if !reflect.DeepEqual(wantVerdicts, verdicts) {
		t.Errorf("verdict sequences diverge:\nuninterrupted: %+v\nresumed:       %+v", wantVerdicts, verdicts)
	}
	if auditRounds != 0 {
		t.Errorf("%d post-recovery rounds left the aggregate fast path; recovered chain state is not being used", auditRounds)
	}
}

package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/netsim"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/udptransport"
)

// ---- async pipeline vs inline verification -------------------------------

// runPipelineScenario drives one seeded lossy fleet scenario (infection,
// store wipe, dark device, 20% datagram loss) and returns the alert
// stream, every applied report in application order, and final statuses.
func runPipelineScenario(t *testing.T, synchronous bool, mutate ...func(*ManagerConfig)) ([]Alert, []core.Report, map[string]DeviceStatus) {
	t.Helper()
	e := sim.NewEngine()
	nw, err := netsim.New(e, netsim.Config{Latency: 2 * sim.Millisecond, LossRate: 0.2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	clock := func() uint64 { return mcu.DefaultEpoch + uint64(e.Now()) }
	col, err := NewSimCollector(nw, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.Report
	cfg := ManagerConfig{
		Engine: e, Collector: col, Clock: clock,
		Synchronous:   synchronous,
		VerifyWorkers: 4,
		BatchLimit:    8,
		OnReport:      func(addr string, rep core.Report) { reports = append(reports, rep) },
	}
	for _, f := range mutate {
		f(&cfg)
	}
	mgr, err := NewManagerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var devs []*mcu.Device
	var provers []*core.Prover
	for i := 0; i < 6; i++ {
		key := []byte(fmt.Sprintf("pipe-device-key-%02d", i))
		dev, err := mcu.New(mcu.Config{
			Engine: e, MemorySize: 1024,
			StoreSize: 16 * core.RecordSize(alg),
			Key:       key,
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, _ := core.NewRegular(sim.Hour)
		p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 16})
		if err != nil {
			t.Fatal(err)
		}
		addr := fmt.Sprintf("pipe-%02d", i)
		if _, err := session.AttachProver(nw, e, addr, p, alg); err != nil {
			t.Fatal(err)
		}
		err = mgr.Register(DeviceConfig{
			Addr: addr, Key: key, Alg: alg,
			QoA:          core.QoA{TM: sim.Hour, TC: 4 * sim.Hour},
			GoldenHashes: [][]byte{mac.HashSum(alg, dev.Memory())},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		devs = append(devs, dev)
		provers = append(provers, p)
	}

	e.At(6*sim.Hour, func() { devs[1].WriteMemory(0, []byte("persistent implant")) })
	e.At(9*sim.Hour, func() {
		store := devs[2].Store()
		for i := range store {
			store[i] = 0xFF
		}
	})
	e.At(5*sim.Hour, func() { nw.Attach("pipe-03", nil) })
	e.At(14*sim.Hour, func() {
		if _, err := session.AttachProver(nw, e, "pipe-03", provers[3], alg); err != nil {
			t.Error(err)
		}
	})

	mgr.Start()
	e.RunUntil(30 * sim.Hour)
	mgr.Stop()
	defer mgr.Close()

	statuses := make(map[string]DeviceStatus)
	for _, addr := range mgr.Addresses() {
		st, err := mgr.Status(addr)
		if err != nil {
			t.Fatal(err)
		}
		statuses[addr] = st
	}
	return mgr.Alerts(), reports, statuses
}

// The asynchronous batch-verified pipeline must be verdict-for-verdict and
// alert-for-alert identical to inline verification in the collection
// callback (the pre-pipeline code path): batching changes throughput,
// never outcomes — ISSUE 2's acceptance criterion.
func TestPipelineMatchesInlineVerification(t *testing.T) {
	inlineAlerts, inlineReports, inlineStatus := runPipelineScenario(t, true)
	asyncAlerts, asyncReports, asyncStatus := runPipelineScenario(t, false)

	if len(inlineAlerts) == 0 {
		t.Fatal("scenario produced no alerts; it exercises nothing")
	}
	if !reflect.DeepEqual(inlineAlerts, asyncAlerts) {
		t.Errorf("alert streams diverge:\ninline: %+v\nasync:  %+v", inlineAlerts, asyncAlerts)
	}
	if len(inlineReports) != len(asyncReports) {
		t.Fatalf("report counts diverge: inline %d, async %d", len(inlineReports), len(asyncReports))
	}
	for i := range inlineReports {
		if !reflect.DeepEqual(inlineReports[i], asyncReports[i]) {
			t.Fatalf("report %d diverges:\ninline: %+v\nasync:  %+v", i, inlineReports[i], asyncReports[i])
		}
	}
	if !reflect.DeepEqual(inlineStatus, asyncStatus) {
		t.Errorf("statuses diverge:\ninline: %+v\nasync:  %+v", inlineStatus, asyncStatus)
	}
}

// ---- netsim vs real UDP transport ----------------------------------------

// The transport-equivalence scenario: TM = 60 ms with a 30 ms measurement
// phase keeps every collection tick 30 ms away from every measurement
// tick, so wall-clock jitter on the UDP side can never change which
// records a collection observes. Virtual time is identical on both
// transports, so launch-stamped alerts match field for field.
const (
	eqTM      = 60 * sim.Millisecond
	eqPhase   = 30 * sim.Millisecond
	eqTC      = 240 * sim.Millisecond
	eqHorizon = 1100 * sim.Millisecond
	eqMemory  = 256
	eqSlots   = 8
)

type eqDevice struct {
	addr     string
	key      []byte
	regKey   []byte // key the manager is provisioned with (≠ key ⇒ tamper)
	infected bool   // implant written before the first measurement
}

func eqFleet() []eqDevice {
	mk := func(i int) []byte { return []byte(fmt.Sprintf("eq-device-key-%02d", i)) }
	return []eqDevice{
		{addr: "eq-00", key: mk(0), regKey: mk(0)},
		{addr: "eq-01", key: mk(1), regKey: mk(1), infected: true},
		{addr: "eq-02", key: mk(2), regKey: []byte("provisioning-mismatch")},
		{addr: "eq-03", key: mk(3), regKey: mk(3)},
	}
}

// buildEqProvers constructs the scenario's provers on the given engine and
// returns them with each device's golden (pre-infection) hash. The devices
// are i.MX6-class: at 1 GHz a measurement takes microseconds, so the
// millisecond-scale QoA (needed to wall-pace the UDP run in ~1 s) is
// comfortably feasible.
func buildEqProvers(t *testing.T, e *sim.Engine) (map[string]*core.Prover, map[string][]byte) {
	t.Helper()
	provers := make(map[string]*core.Prover)
	goldens := make(map[string][]byte)
	for _, d := range eqFleet() {
		dev, err := imx6.New(imx6.Config{
			Engine: e, MemorySize: eqMemory,
			StoreSize: eqSlots * core.RecordSize(alg),
			Key:       d.key,
		})
		if err != nil {
			t.Fatal(err)
		}
		goldens[d.addr] = mac.HashSum(alg, dev.Memory())
		if d.infected {
			if err := dev.WriteMemory(0, []byte("wave implant")); err != nil {
				t.Fatal(err)
			}
		}
		sched, err := core.NewRegularWithPhase(eqTM, eqPhase)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: eqSlots})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		provers[d.addr] = p
	}
	return provers, goldens
}

func registerEqFleet(t *testing.T, mgr *Manager, goldens map[string][]byte) {
	t.Helper()
	for _, d := range eqFleet() {
		err := mgr.Register(DeviceConfig{
			Addr: d.addr, Key: d.regKey, Alg: alg,
			QoA:          core.QoA{TM: eqTM, TC: eqTC},
			GoldenHashes: [][]byte{goldens[d.addr]},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func runEqOverSim(t *testing.T) []Alert {
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
	mgr, err := NewManager(e, nw, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	e.RunUntil(eqHorizon)
	mgr.Stop()
	mgr.Flush()
	defer mgr.Close()
	return mgr.Alerts()
}

func runEqOverUDP(t *testing.T) []Alert {
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
	mgr, err := NewManagerWith(ManagerConfig{Engine: mgrEngine, Collector: col, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	pumpFromServeStart(mgrEngine, serveStart, eqHorizon)
	mgr.Stop()
	mgr.Flush()
	defer mgr.Close()
	return mgr.Alerts()
}

// canonicalAlerts orders a stream for comparison: on the UDP transport the
// interleaving across devices follows socket completion order, but every
// alert's content — launch time, device, kind, detail — is deterministic.
func canonicalAlerts(alerts []Alert) []Alert {
	out := append([]Alert(nil), alerts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	return out
}

// The same seeded scenario must produce the identical alert stream over
// the in-process simulated network and over real UDP sockets — ISSUE 2's
// transport-equivalence acceptance criterion. The UDP run takes ~1.1 s of
// wall time (virtual time is wall-paced there).
func TestTransportEquivalence(t *testing.T) {
	simAlerts := canonicalAlerts(runEqOverSim(t))
	udpAlerts := canonicalAlerts(runEqOverUDP(t))

	// Sanity: the scenario must actually exercise both failure classes.
	kinds := map[string]int{}
	for _, a := range simAlerts {
		kinds[a.Device+"/"+string(a.Kind)]++
	}
	if kinds["eq-01/infection"] != 4 {
		t.Errorf("eq-01 infection alerts = %d, want 4 (one per collection)", kinds["eq-01/infection"])
	}
	if kinds["eq-02/tamper"] != 4 {
		t.Errorf("eq-02 tamper alerts = %d, want 4 (one per collection)", kinds["eq-02/tamper"])
	}
	if kinds["eq-00/infection"]+kinds["eq-00/tamper"]+kinds["eq-03/infection"]+kinds["eq-03/tamper"] != 0 {
		t.Errorf("clean devices alerted: %v", kinds)
	}

	if !reflect.DeepEqual(simAlerts, udpAlerts) {
		t.Errorf("alert streams diverge across transports:\nsim: %+v\nudp: %+v", simAlerts, udpAlerts)
	}
}

// eqProverLag is how far the UDP tests run the provers' clock behind the
// manager's. The i.MX6 epoch is 20 ms past a multiple of eqTM, so in
// engine time the measurement ticks (RROC ≡ eqPhase) fall 10 ms after
// each collection tick and 50 ms before it, not the 30 ms either way the
// scenario intends. Lagging the provers by the epoch's offset puts every
// request back in the middle of that gap, so wall-clock jitter under 30 ms
// cannot change which records a collection observes.
const eqProverLag = sim.Ticks(imx6.DefaultEpoch % uint64(eqTM))

// pumpFromServeStart drives a manager engine wall-paced to horizon on the
// prover server's time base: serveStart, taken just before ServeFleet, is
// the provers' virtual time zero and the manager's eqProverLag. Set-up
// spent before the first pump (store opens and fsyncs, registration) then
// does not make the manager lag the provers — a lag the verifier would
// otherwise count against its TM/10 clock-skew tolerance as records "in
// the future". Ticks that fell due during set-up fire at once.
func pumpFromServeStart(e *sim.Engine, serveStart time.Time, horizon sim.Ticks) {
	if now := eqProverLag + sim.Ticks(time.Since(serveStart)); now > e.Now() {
		e.RunUntil(min(now, horizon))
	}
	PumpRealTime(e, horizon, 2*time.Millisecond)
}

// Package fleet is the verifier-side operations layer for a population of
// unattended ERASMUS provers: per-device keys and QoA policies, staggered
// collection scheduling, report history, and an alert stream (infection,
// tampering, unreachable device).
//
// The paper's verifier is deliberately thin — ERASMUS moves all the state
// to the prover — but any real deployment needs exactly this bookkeeping:
// who to poll, when, with which key, and what to do with the verdicts.
//
// Collection is transport-pluggable: the Manager drives any Collector
// (the in-process simulated network via SimCollector, real UDP sockets
// via UDPCollector) and never blocks its scheduling goroutine on MAC
// recomputation — collected histories flow through a bounded asynchronous
// queue into a core.BatchVerifier worker pool, and verdicts are re-joined
// to per-device state in submission order. The alert stream is therefore
// identical for any transport driving the same scenario, and identical
// whether verification runs inline or batched (both enforced by tests).
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/netsim"
	"erasmus/internal/obs"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/store"
)

// AlertKind classifies fleet events.
type AlertKind string

// Alert kinds raised by the manager.
const (
	AlertInfection   AlertKind = "infection"
	AlertTamper      AlertKind = "tamper"
	AlertUnreachable AlertKind = "unreachable"
	AlertRecovered   AlertKind = "recovered"
)

// Alert is one fleet event. Time is the virtual time the triggering
// collection was launched — not when the verdict was computed — so the
// stream is deterministic regardless of transport latency or verification
// batching.
type Alert struct {
	Time   sim.Ticks `json:"time"`
	Device string    `json:"device"`
	Kind   AlertKind `json:"kind"`
	Detail string    `json:"detail"`
}

// StreamedAlert is one alert paired with its monotone sequence number —
// the streaming API's resumable cursor. Seq matches the durable store's
// numbering when the manager journals (the manager is the store's only
// alert writer), so a consumer's cursor survives verifier restarts. The
// Alert itself is unchanged from the in-memory stream: a streamed run and
// a polled run observe field-identical alerts.
type StreamedAlert struct {
	Seq uint64 `json:"seq"`
	Alert
}

// DeviceConfig registers one prover with the manager.
type DeviceConfig struct {
	// Addr is the device's network address (its device id on a fleet
	// transport).
	Addr string
	// Key is the device-unique secret shared at provisioning.
	Key []byte
	// Alg is the device's measurement MAC.
	Alg mac.Algorithm
	// QoA sets TM (the device's measurement period, needed to judge
	// schedule gaps and freshness) and TC (how often to collect).
	QoA core.QoA
	// GoldenHashes whitelists the device's sanctioned memory states.
	GoldenHashes [][]byte
}

// DeviceStatus summarizes one device for dashboards.
type DeviceStatus struct {
	Addr         string
	RegisteredAt sim.Ticks
	LastContact  sim.Ticks
	Healthy      bool
	Freshness    sim.Ticks
	Collections  int
	Failures     int // consecutive unanswered collections
}

type device struct {
	cfg          DeviceConfig
	verifier     *core.Verifier
	registeredAt sim.Ticks
	stop         func()
	// anchor is the virtual time of the device's first scheduled
	// collection; a manager recovering from a durable store resumes the
	// ticker at the next anchor + n×TC instead of re-staggering, so the
	// resumed collection times (and the launch-stamped alert times they
	// produce) are identical to an uninterrupted run's.
	anchor    sim.Ticks
	hasAnchor bool

	// Mutable state below is guarded by Manager.mu: verdicts are applied
	// by the pipeline goroutine while the scheduler keeps running.
	lastContact sim.Ticks
	healthy     bool
	unreachable bool
	freshness   sim.Ticks
	collections int
	failures    int
	// Adaptive scheduling state (ManagerConfig.AdaptiveSchedule): effTC is
	// the controller's current effective collection period (base TC when
	// the controller is off or has not adjusted), freshStreak counts
	// consecutive fresh verdicts toward a relax, adjustments/lastReason
	// audit the controller for /schedz. Ephemeral: not journaled, a
	// recovered manager resumes on the base-TC anchor grid.
	effTC       sim.Ticks
	freshStreak int
	adjustments int
	lastReason  string
	// verdictsPending counts launched collections whose verdicts have not
	// yet been applied. Delta mode must not launch against a watermark
	// that an in-flight verdict is about to supersede — a stale watermark
	// would re-ship records that were already verified and re-raise their
	// alerts. Such rounds fall back to a full collection instead, which
	// is outcome-identical to stateless mode by construction. A counter,
	// not a bool: a tick that fails immediately ("collection outstanding")
	// resolves before the slow round it collided with.
	verdictsPending int
}

// Collector is the transport a Manager drives. Implementations:
// SimCollector (the in-process simulated datagram network) and
// UDPCollector (real sockets against a udptransport fleet server).
type Collector interface {
	// Register provisions the transport for one device (address, key,
	// algorithm) before its first collection.
	Register(cfg DeviceConfig) error
	// Collect requests the k latest records from the device at addr. On a
	// nil return, cb is invoked exactly once — possibly on another
	// goroutine — with the outcome; on a non-nil return cb is never
	// invoked (e.g. a previous collection is still outstanding).
	Collect(addr string, k int, cb func(session.CollectResult, error)) error
	// CollectDelta requests the records measured at or after since (the
	// verifier's watermark for the device), capped at k (k ≤ 0 means
	// everything since, clamped to the prover's buffer). Same callback
	// contract as Collect.
	CollectDelta(addr string, since uint64, k int, cb func(session.CollectResult, error)) error
	// CollectDeltaAggregate is CollectDelta plus the aggregate tier's
	// evidence: the prover returns its chain head and one MAC binding it
	// to (since, nonce, anchorHash), delivered in CollectResult.AggState
	// and AggMAC. Same callback contract as Collect.
	CollectDeltaAggregate(addr string, since, nonce uint64, anchorHash []byte, k int, cb func(session.CollectResult, error)) error
}

// ManagerConfig parameterizes a Manager.
type ManagerConfig struct {
	// Engine schedules collections (virtual time). Required.
	Engine *sim.Engine
	// Collector is the collection transport. Required.
	Collector Collector
	// Clock is the verifier's time base (loosely synchronized with device
	// RROCs), used for freshness judgments. Required.
	Clock func() uint64
	// UnreachableAfter is the consecutive-failure threshold at which a
	// device is flagged unreachable and marked unhealthy (default 2).
	UnreachableAfter int
	// VerifyWorkers sizes the batch-verification pool (default GOMAXPROCS).
	VerifyWorkers int
	// QueueDepth bounds the asynchronous verification queue; submissions
	// beyond it exert backpressure on the collection callbacks
	// (default 256).
	QueueDepth int
	// BatchLimit caps how many queued histories one batch-verifier call
	// takes (default 64).
	BatchLimit int
	// Synchronous verifies each history inline in the collection callback
	// instead of through the asynchronous pipeline — the pre-pipeline
	// code path, kept for debugging and for the equivalence tests that
	// prove batching never changes verdicts.
	Synchronous bool
	// Delta enables incremental collection and verification: the manager
	// keeps a per-device watermark in a core.AttestationService, requests
	// only the records since it ("everything since t_last", healing missed
	// rounds automatically), and verifies O(new records) per round instead
	// of O(k). Tamper, a lost anchor, or any fallback condition resets the
	// device to a stateless full collection — correctness never depends on
	// the cached state (see core.VerifyDelta).
	//
	// A round launched while any previous verdict for the device is still
	// unapplied falls back to a full collection (a stale watermark would
	// re-verify, and re-alert on, records the queued verdict already
	// covers) — outcomes are identical either way, only the cost differs.
	// On wall-paced transports verdicts apply long before the next round;
	// on a virtual-time engine driven synchronously, combine with
	// Synchronous so watermark updates land before the next tick.
	Delta bool
	// Aggregate selects the O(1) aggregate tier on top of Delta (which it
	// implies): incremental collections additionally carry the prover's
	// hash-chain head under a single MAC, so the verifier re-walks the
	// chain from its watermark — hash-only, no per-record MAC — and checks
	// one MAC per collection regardless of record count. Any mismatch
	// (forged evidence, tampered records, lost anchor) falls back to the
	// per-record VerifyDelta audit tier on the same records, so verdicts
	// and alerts are identical to Delta mode; only the cost differs (see
	// core.VerifyDeltaAggregate). The verdictsPending discipline is
	// unchanged: an unsettled round still falls back to a stateless full
	// collection.
	Aggregate bool
	// WatermarkShards / WatermarkCapacity size the attestation service's
	// sharded per-device watermark store (defaults 16 shards, 1M devices
	// ≈ 150 MB); ignored unless Delta is set.
	WatermarkShards, WatermarkCapacity int
	// Store, when set, makes the manager's verifier state durable: every
	// watermark update (Delta mode), per-device status change and alert is
	// journaled to the store's write-ahead log in verdict-application
	// order. A manager built over a recovered store resumes where its
	// predecessor stopped — Register restores each device's status and
	// collection anchor, Start resumes tickers on the original stagger,
	// delta collection continues from the journaled watermarks (zero
	// re-alerts, zero forced full-collection fallbacks), and Alerts
	// returns the predecessor's stream followed by this run's. The caller
	// owns the store (Close does not close it; Stop and Close sync it).
	// Nil keeps today's purely in-memory behavior.
	Store *store.Store
	// OnReport, if set, observes every applied verification report in
	// application order. It runs with the manager's lock held and must
	// not call back into the Manager.
	OnReport func(addr string, rep core.Report)
	// Obs, when set, registers the fleet and verification metric families
	// on the registry (queue depth, verdict lag, per-shard verify latency,
	// watermark fallbacks, alert counters, …). Nil — the default — makes
	// instrumentation one nil-check per operation; metrics never change
	// verdicts or alerts (enforced by the equivalence tests).
	Obs *obs.Registry
	// Tracer, when set, records one Span per applied collection (launch
	// tick, pipeline wall-clock lag, verify time, outcome) into its
	// bounded ring — the /tracez post-mortem feed.
	Tracer *obs.Tracer
	// Events, when set, receives structured operational events (alerts,
	// fallback decisions) — the /eventz feed.
	Events *obs.EventLog
	// AdaptiveSchedule enables the per-device TC controller: each applied
	// verdict may tighten or relax the device's effective collection
	// period within [TC/2, 2·TC], driven by temporal-QoA age (aging toward
	// withheld tightens, a fresh streak relaxes), watermark-fallback
	// pressure, transport failures, and queue depth as the global
	// backpressure brake. Off — the default — keeps the fixed-TC ticker
	// and bit-identical pre-controller behavior (enforced by the
	// equivalence tests). Decisions are pure integer functions of verdict
	// state, so a seeded scenario adjusts identically run over run; every
	// decision is observable via erasmus_sched_* metrics, sched_adjust
	// events, and Manager.Schedule (/schedz).
	AdaptiveSchedule bool
}

// Manager runs the fleet.
type Manager struct {
	engine           *sim.Engine
	collector        Collector
	clock            func() uint64
	unreachableAfter int
	onReport         func(string, core.Report)

	// delta mode: svc holds per-device watermarks; nil when disabled.
	svc *core.AttestationService
	// aggregate mode: incremental rounds request chain-head evidence and
	// verify through the O(1) aggregate tier.
	aggregate bool
	// st is the durable state store; nil when the manager is in-memory.
	st *store.Store

	// Observability (all nil when disabled): metrics is the fleet's gauge
	// and counter set, vm routes verify latency/outcome observations from
	// the batch pool and MAC caches, tracer and events are bounded rings.
	metrics *fleetMetrics
	vm      *core.VerifyMetrics
	tracer  *obs.Tracer
	events  *obs.EventLog

	// Streaming fan-out: every alert appended to m.alerts is also
	// published (with its seq) to alertBrk's subscribers. Always present —
	// with no subscribers a publish is one mutex round trip — so WatchAlerts
	// needs no enable flag and cannot change verdict behavior.
	alertBrk *obs.Broker[StreamedAlert]
	// alertBase is the seq of the alert preceding m.alerts[0]: 0 for a
	// fresh manager, the store's trimmed-history count for one recovered
	// over a MaxAlerts-bounded store. m.alerts[i] has seq alertBase+i+1.
	alertBase uint64

	// adaptive enables the TC controller; queueCap is the verification
	// queue bound it brakes against; sched is its metric set (nil without
	// a registry).
	adaptive bool
	queueCap int
	sched    *schedMetrics

	pipe *pipeline

	mu      sync.Mutex
	devices map[string]*device
	alerts  []Alert
	// applied counts verdicts folded into device state — the readiness
	// signal: a manager with applied == 0 has not completed a collection
	// round yet, so gauges still read as empty, not as "healthy zero".
	applied uint64
	started bool
	// nonce numbers aggregate challenges (monotonic per manager): the
	// prover's aggregate MAC binds it, so a recorded response cannot
	// answer a later challenge.
	nonce uint64
	// stickySeen latches the first sink/store I/O failure so it is
	// surfaced (gauge + event) exactly once, as it happens — not only
	// when Close or a /healthz scrape finally looks.
	stickySeen bool
}

// NewManagerWith builds a fleet manager over an explicit transport.
func NewManagerWith(cfg ManagerConfig) (*Manager, error) {
	if cfg.Engine == nil {
		return nil, errors.New("fleet: engine required")
	}
	if cfg.Collector == nil {
		return nil, errors.New("fleet: collector required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("fleet: clock required")
	}
	if cfg.UnreachableAfter <= 0 {
		cfg.UnreachableAfter = 2
	}
	if cfg.VerifyWorkers <= 0 {
		cfg.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 64
	}
	if cfg.Aggregate {
		cfg.Delta = true
	}
	m := &Manager{
		engine:           cfg.Engine,
		collector:        cfg.Collector,
		clock:            cfg.Clock,
		unreachableAfter: cfg.UnreachableAfter,
		onReport:         cfg.OnReport,
		devices:          make(map[string]*device),
	}
	m.st = cfg.Store
	m.aggregate = cfg.Aggregate
	m.tracer, m.events = cfg.Tracer, cfg.Events
	m.alertBrk = obs.NewBroker[StreamedAlert]()
	m.adaptive = cfg.AdaptiveSchedule
	m.queueCap = cfg.QueueDepth
	if cfg.Obs != nil {
		m.metrics = newFleetMetrics(cfg.Obs)
		m.vm = core.NewVerifyMetrics(cfg.Obs, cfg.WatermarkShards)
		m.metrics.queueCapacity.Set(int64(cfg.QueueDepth))
		if m.adaptive {
			m.sched = newSchedMetrics(cfg.Obs)
		}
	}
	if cfg.Delta {
		sc := core.ServiceConfig{
			Shards: cfg.WatermarkShards, MaxDevices: cfg.WatermarkCapacity,
		}
		if m.st != nil {
			// Watermark updates journal through the service's sink in
			// verdict-application order; lookup misses (memory eviction)
			// re-hydrate from the store.
			sc.Sink, sc.Source = m.st, m.st
		}
		m.svc = core.NewAttestationService(sc)
	}
	if m.st != nil {
		// The predecessor's alert stream is this manager's prefix: a
		// recovered fleet's Alerts() reads as one uninterrupted history.
		// The store's retained alerts are the contiguous tail of its
		// numbering, so the seq preceding the prefix — the base this run's
		// alerts continue from — is head minus retained count.
		prefix := m.st.Alerts()
		m.alertBase = m.st.AlertHead() - uint64(len(prefix))
		for _, ev := range prefix {
			m.alerts = append(m.alerts, Alert{
				Time: sim.Ticks(ev.Time), Device: ev.Device,
				Kind: AlertKind(ev.Kind), Detail: ev.Detail,
			})
		}
	}
	m.pipe = newPipeline(m, cfg)
	return m, nil
}

// NewManager builds a fleet manager collecting over the simulated network
// from addr (one SimCollector per manager) — the transport the in-process
// experiments use. clock is the verifier's time base.
func NewManager(e *sim.Engine, n *netsim.Network, addr string, clock func() uint64) (*Manager, error) {
	if e == nil || n == nil {
		return nil, errors.New("fleet: nil engine or network")
	}
	if clock == nil {
		return nil, errors.New("fleet: clock required")
	}
	col, err := NewSimCollector(n, e, addr, clock)
	if err != nil {
		return nil, err
	}
	return NewManagerWith(ManagerConfig{Engine: e, Collector: col, Clock: clock})
}

// Register adds a device. Registration is allowed while the manager is
// running (fleet churn): a late-joining device starts collecting one TC
// from now, and its warm-up leniency is measured from this moment — not
// from the engine epoch — so a young device is never falsely flagged for
// the full history it cannot have yet.
func (m *Manager) Register(cfg DeviceConfig) error {
	if cfg.Addr == "" {
		return errors.New("fleet: device address required")
	}
	if err := cfg.QoA.Validate(); err != nil {
		return err
	}
	vrf, err := core.NewVerifier(core.VerifierConfig{
		Alg: cfg.Alg, Key: cfg.Key,
		GoldenHashes: cfg.GoldenHashes,
		MinGap:       cfg.QoA.TM - cfg.QoA.TM/10,
		MaxGap:       cfg.QoA.TM + cfg.QoA.TM/2,
		// Loose synchronization (§2): tolerate the prover's RROC leading
		// the verifier clock by a sliver of TM before crying tamper.
		ClockSkew: cfg.QoA.TM / 10,
		Metrics:   m.vm,
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	if _, dup := m.devices[cfg.Addr]; dup {
		m.mu.Unlock()
		return fmt.Errorf("fleet: device %q already registered", cfg.Addr)
	}
	m.mu.Unlock()
	if err := m.collector.Register(cfg); err != nil {
		return err
	}
	d := &device{
		cfg: cfg, verifier: vrf, healthy: true,
		registeredAt: m.engine.Now(),
		effTC:        cfg.QoA.TC,
	}
	restored := false
	if m.st != nil {
		if st, ok := m.st.State(cfg.Addr); ok && st.HasStatus {
			// The device is coming back from a durable store: resume its
			// predecessor's status — registration epoch (warm-up leniency),
			// health, failure streak, collection anchor — instead of
			// starting over, so no alert the predecessor already raised is
			// raised again and no already-earned leniency is re-granted.
			d.registeredAt = sim.Ticks(st.RegisteredAt)
			d.lastContact = sim.Ticks(st.LastContact)
			d.healthy = st.Healthy
			d.unreachable = st.Unreachable
			d.freshness = sim.Ticks(st.Freshness)
			d.failures = st.Failures
			d.collections = st.Collections
			if st.HasAnchor {
				d.anchor = sim.Ticks(st.ScheduleAnchor)
				d.hasAnchor = true
			}
			restored = true
		}
	}
	m.mu.Lock()
	// Recheck under the same critical section as the insert: a concurrent
	// Register of the same address must not silently replace a live
	// device (the Collector extension point need not dup-detect).
	if _, dup := m.devices[cfg.Addr]; dup {
		m.mu.Unlock()
		return fmt.Errorf("fleet: device %q already registered", cfg.Addr)
	}
	m.devices[cfg.Addr] = d
	m.metrics.deviceAdded(d.healthy, d.unreachable)
	started := m.started
	if !restored {
		// Journal the registration now: a crash before the first verdict
		// must not forget when the device joined (warm-up leniency).
		//erasmus:allow(lockflow) registration journals under m.mu so journal order matches membership order (crash before first verdict must not forget the join)
		m.journalStatus(d)
	}
	m.mu.Unlock()
	if started {
		m.mu.Lock()
		var first sim.Ticks
		if d.hasAnchor {
			first = nextFire(d.anchor, m.engine.Now(), d.cfg.QoA.TC)
		} else {
			d.anchor = m.engine.Now() + cfg.QoA.TC
			d.hasAnchor = true
			first = d.anchor
			//erasmus:allow(lockflow) restored-device anchors journal under m.mu; journal order must equal memory order for crash-resume equivalence
			m.journalStatus(d)
		}
		m.mu.Unlock()
		m.scheduleAt(d, first)
	}
	return nil
}

// scheduleAt starts a device's periodic collection, first firing at the
// absolute virtual time first. With the adaptive controller off this is a
// fixed-TC ticker (the pre-controller behavior, bit-for-bit); with it on,
// each collection re-arms the next one at the then-current effective TC.
func (m *Manager) scheduleAt(d *device, first sim.Ticks) {
	if !m.adaptive {
		d.stop = m.engine.Ticker(first, d.cfg.QoA.TC, func() {
			m.collect(d)
		})
		return
	}
	m.scheduleAdaptive(d, first)
}

// scheduleAdaptive arms one collection at when and, after it launches,
// re-arms at when + the device's effective TC as adjusted by whatever
// verdicts have applied since. The chain stops re-arming once the manager
// is stopped (Stop also cancels the pending event via d.stop).
func (m *Manager) scheduleAdaptive(d *device, when sim.Ticks) {
	ev := m.engine.At(when, func() {
		m.collect(d)
		m.mu.Lock()
		interval := d.effTC
		if interval <= 0 {
			interval = d.cfg.QoA.TC
		}
		stopped := !m.started
		m.mu.Unlock()
		if stopped {
			return
		}
		m.scheduleAdaptive(d, when+interval)
	})
	m.mu.Lock()
	d.stop = ev.Cancel
	m.mu.Unlock()
}

// nextFire returns the first tick of the series anchor + n×tc that is
// strictly after now (or anchor itself when it is still ahead). Fires at
// or before now are assumed to have happened already — a recovering
// manager resumes its predecessor's ticker, it does not replay it.
func nextFire(anchor, now, tc sim.Ticks) sim.Ticks {
	if anchor >= now {
		return anchor
	}
	n := (now-anchor)/tc + 1
	return anchor + n*tc
}

// Start schedules collections: device i of n is polled every TC with phase
// i×TC/n, spreading verifier traffic (and prover buffer pressure) evenly.
// Devices registered after Start are not restaggered. Devices restored
// from a durable store keep their original anchors — their collections
// resume on the predecessor's stagger, at the next anchor + n×TC.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	devs := make([]*device, 0, len(m.devices))
	for _, d := range m.devices {
		devs = append(devs, d)
	}
	m.mu.Unlock()
	sort.Slice(devs, func(i, j int) bool { return devs[i].cfg.Addr < devs[j].cfg.Addr })
	now := m.engine.Now()
	firsts := make([]sim.Ticks, len(devs))
	m.mu.Lock()
	for i, dev := range devs {
		if dev.hasAnchor {
			firsts[i] = nextFire(dev.anchor, now, dev.cfg.QoA.TC)
			continue
		}
		phase := sim.Ticks(int64(dev.cfg.QoA.TC) * int64(i) / int64(len(devs)))
		dev.anchor = now + phase + dev.cfg.QoA.TC
		dev.hasAnchor = true
		firsts[i] = dev.anchor
		//erasmus:allow(lockflow) start-time anchors journal under m.mu; journal order must equal memory order for crash-resume equivalence
		m.journalStatus(dev)
	}
	m.mu.Unlock()
	for i, dev := range devs {
		m.scheduleAt(dev, firsts[i])
	}
}

// Stop cancels all scheduled collections, then waits for every history
// already handed to the verification pipeline to be applied. Collections
// still in flight on the transport are not waited for (their verdicts are
// applied whenever they complete); use Flush for full quiescence.
func (m *Manager) Stop() {
	m.mu.Lock()
	//erasmus:allow(maporder) per-device ticker teardown is order-free: stops are independent and emit nothing
	for _, d := range m.devices {
		if d.stop != nil {
			d.stop()
			d.stop = nil
		}
	}
	m.started = false
	m.mu.Unlock()
	m.pipe.waitQueued()
	if m.st != nil {
		// Everything applied so far becomes durable; the store latches the
		// error and Close returns it, but surface it immediately too.
		if err := m.st.Sync(); err != nil {
			m.mu.Lock()
			//erasmus:allow(lockflow) the sticky-error latch updates under m.mu so health-state order matches verdict order
			m.noteSticky(0) // tick 0: Stop runs outside engine time
			m.mu.Unlock()
		}
	}
}

// Flush blocks until every launched collection has fully resolved —
// response or timeout received, verdict computed and applied. On a
// real-time transport this may wait out the client's retry budget; on the
// simulated transport the engine must have run past the outstanding
// timeouts or Flush will wait forever.
func (m *Manager) Flush() { m.pipe.waitInflight() }

// Close stops the manager and shuts down the verification pipeline. The
// collector is closed too when it implements io.Closer. A configured
// state store is synced — not closed; the caller owns it — and the first
// durability failure, if any, is returned.
func (m *Manager) Close() error {
	m.Stop()
	m.pipe.close()
	// Terminate every streaming subscriber: their channels close, so a
	// /watch handler's receive loop ends instead of blocking forever.
	m.alertBrk.Close()
	var err error
	if m.st != nil {
		err = m.st.Sync()
	}
	if c, ok := m.collector.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (m *Manager) collect(d *device) {
	k := d.cfg.QoA.RecordsPerCollection()
	launched := m.engine.Now()
	now := m.clock()
	// Warm-up leniency, measured from registration (not the engine
	// epoch): demand only the measurements that must have committed by
	// the time the request is served, no matter when in the fleet's life
	// the device joined. A device registered at r has at least
	// ⌊(L−r)/TM⌋ schedule ticks in (r, L], but the newest may fall an
	// instant before L, its measurement (up to seconds on an MSP430) still
	// running when the request arrives. The ticks at least one TM before
	// L have committed, since a measurement ends within its period.
	expected := int((launched-d.registeredAt)/d.cfg.QoA.TM) - 1
	if expected > k {
		expected = k
	}
	if expected < 0 {
		expected = 0
	}
	// Delta mode: ask only for records since the device's watermark —
	// the prover ships (and the pipeline verifies) O(new records). A
	// device without a *current* watermark gets a stateless full
	// collection instead: first contact, reset after tamper or a
	// continuity gap, or — the async-pipeline case — the previous round's
	// verdict not yet applied, when the stored watermark is stale and
	// collecting against it would re-verify (and re-alert) records the
	// queued verdict already covers.
	var wm core.Watermark
	delta := false
	agg := false
	var nonce uint64
	m.mu.Lock()
	settled := d.verdictsPending == 0
	d.verdictsPending++
	if m.aggregate && settled {
		// Aggregate rounds run whenever the watermark is current — even a
		// zero one (bootstrap: since=0, k records, exactly the full
		// collection's record set, plus the chain head so the next round
		// can anchor). Unsettled rounds keep the delta-mode discipline and
		// fall back to a stateless full collection below.
		agg = true
		m.nonce++
		nonce = m.nonce
	}
	m.mu.Unlock()
	if m.svc != nil && settled {
		if w, ok := m.svc.Watermark(d.cfg.Addr); ok && !w.IsZero() {
			wm = w
			delta = !agg // the aggregate request carries the anchor itself
		}
	}
	unsettled := m.svc != nil && !settled
	if m.svc != nil && !delta && !agg {
		m.metrics.fallback(settled)
	}
	m.pipe.launched()
	cb := func(res session.CollectResult, err error) {
		m.pipe.submit(pipeJob{
			dev: d, res: res, err: err, now: now, expectedK: expected, at: launched,
			delta: delta, wm: wm, agg: agg, aggNonce: nonce,
			unsettledFallback: unsettled,
		})
	}
	var err error
	switch {
	case agg && !wm.IsZero():
		// Anchored aggregate: everything since the watermark (k ≤ 0 =
		// "everything since", healing lost rounds like the delta path)
		// plus the chain head MAC-bound to this challenge.
		err = m.collector.CollectDeltaAggregate(d.cfg.Addr, wm.T, nonce, wm.Hash, 0, cb)
	case agg:
		err = m.collector.CollectDeltaAggregate(d.cfg.Addr, 0, nonce, nil, k, cb)
	case delta:
		// k ≤ 0 = "everything since": after a lost round the next delta
		// ships the backlog too, so no record is ever silently dropped by
		// a fixed request size.
		err = m.collector.CollectDelta(d.cfg.Addr, wm.T, 0, cb)
	default:
		err = m.collector.Collect(d.cfg.Addr, k, cb)
	}
	if err != nil {
		// A previous collection is still outstanding (device very slow or
		// TC shorter than the timeout budget); count it as a failure.
		m.pipe.submit(pipeJob{dev: d, err: err, at: launched})
	}
}

// applyResult folds one resolved collection into per-device state and the
// alert stream. Called by the pipeline in submission order.
func (m *Manager) applyResult(j *pipeJob) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := j.dev
	d.verdictsPending--
	m.applied++
	if j.err != nil {
		wasHealthy, wasUnreach := d.healthy, d.unreachable
		d.failures++
		if d.failures == m.unreachableAfter {
			d.healthy = false
			d.unreachable = true
			//erasmus:allow(lockflow) alert journal order must match verdict application order under m.mu (bit-identical alert stream invariant)
			m.alertAt(j.at, d, AlertUnreachable,
				fmt.Sprintf("%d consecutive collections failed", d.failures))
		}
		m.metrics.transitions(wasHealthy, wasUnreach, d.healthy, d.unreachable)
		m.observeApply(j, outcomeFailed)
		m.adjustSchedule(d, j)
		//erasmus:allow(lockflow) status journals under m.mu so journal order equals memory order (single-writer discipline)
		m.journalStatus(d)
		//erasmus:allow(lockflow) the sticky-error latch updates under m.mu so health-state order matches verdict order
		m.noteSticky(j.at)
		return
	}
	rep := j.rep
	if m.svc != nil {
		// Watermark updates are applied here — in submission order, under
		// the same lock as device state — so the watermark a later launch
		// reads is always the last applied verdict's successor.
		//erasmus:allow(lockflow) the watermark journal shares m.mu so a later launch always reads the last applied verdict's successor
		m.svc.Set(d.cfg.Addr, core.NextWatermark(j.wm, rep))
	}
	wasUnreachable := d.unreachable
	d.unreachable = false
	d.failures = 0
	d.lastContact = j.at
	d.collections++
	d.freshness = rep.Freshness
	wasHealthy := d.healthy
	d.healthy = rep.Healthy()
	switch {
	case rep.InfectionDetected:
		//erasmus:allow(lockflow) alert journal order must match verdict application order under m.mu (bit-identical alert stream invariant)
		m.alertAt(j.at, d, AlertInfection, firstIssue(rep))
	case rep.TamperDetected:
		//erasmus:allow(lockflow) alert journal order must match verdict application order under m.mu (bit-identical alert stream invariant)
		m.alertAt(j.at, d, AlertTamper, firstIssue(rep))
	case wasUnreachable && d.healthy:
		//erasmus:allow(lockflow) alert journal order must match verdict application order under m.mu (bit-identical alert stream invariant)
		m.alertAt(j.at, d, AlertRecovered, "device reachable, history healthy")
	case !wasHealthy && d.healthy:
		//erasmus:allow(lockflow) alert journal order must match verdict application order under m.mu (bit-identical alert stream invariant)
		m.alertAt(j.at, d, AlertRecovered, "history healthy again")
	}
	m.metrics.transitions(wasHealthy, wasUnreachable, d.healthy, d.unreachable)
	switch {
	case rep.InfectionDetected:
		m.observeApply(j, outcomeInfection)
	case rep.TamperDetected:
		m.observeApply(j, outcomeTamper)
	default:
		m.observeApply(j, outcomeOK)
	}
	if m.onReport != nil {
		m.onReport(d.cfg.Addr, rep)
	}
	m.adjustSchedule(d, j)
	//erasmus:allow(lockflow) status journals under m.mu so journal order equals memory order (single-writer discipline)
	m.journalStatus(d)
	//erasmus:allow(lockflow) the sticky-error latch updates under m.mu so health-state order matches verdict order
	m.noteSticky(j.at)
}

// noteSticky surfaces the first durability failure (attestation-service
// sink or state store) the moment a verdict application trips it: a gauge
// flip plus a structured event, so operators are not left to discover the
// error at Close. Callers hold m.mu.
func (m *Manager) noteSticky(at sim.Ticks) {
	if m.stickySeen {
		return
	}
	var err error
	switch {
	case m.svc != nil && m.svc.SinkErr() != nil:
		err = m.svc.SinkErr()
	case m.st != nil && m.st.Err() != nil:
		err = m.st.Err()
	default:
		return
	}
	m.stickySeen = true
	if m.svc != nil && m.svc.SinkErr() != nil {
		// The store mirrors its own failure on erasmus_store_sticky_error.
		m.metrics.sinkFailed()
	}
	m.events.Emit(obs.Event{
		Tick:      int64(at),
		Subsystem: "fleet",
		Kind:      "durability_error",
		Detail:    err.Error(),
	})
}

// observeApply feeds one applied verdict into the metrics and the
// collection tracer. Callers hold m.mu; a manager without observability
// pays two nil-checks.
//
//erasmus:wallpaced verdict-lag metrics measure real pipeline wall time; the alert stream is stamped with virtual launch time
func (m *Manager) observeApply(j *pipeJob, outcome string) {
	if m.metrics == nil && m.tracer == nil {
		return
	}
	applyWall := time.Now().UnixNano()
	lag := -1.0
	if j.submitWall != 0 {
		lag = float64(applyWall-j.submitWall) / 1e9
	}
	m.metrics.observeCollection(outcome, lag)
	if m.tracer != nil {
		sp := obs.Span{
			Device:      j.dev.cfg.Addr,
			LaunchTick:  int64(j.at),
			SubmitWall:  j.submitWall,
			ApplyWall:   applyWall,
			VerifyNanos: j.verifyNanos,
			Delta:       j.delta,
			Records:     len(j.res.Records),
			Outcome:     outcome,
			AggFallback: string(j.rep.AggregateFallbackReason),
		}
		if j.err != nil {
			sp.Err = j.err.Error()
		}
		m.tracer.Record(sp)
	}
}

// journalStatus appends the device's current status to the durable store,
// if one is configured. Callers hold m.mu; errors are sticky in the store
// (verification continues) and are surfaced immediately through
// noteSticky rather than waiting for Close.
func (m *Manager) journalStatus(d *device) {
	if m.st == nil {
		return
	}
	err := m.st.PutStatus(store.DeviceState{
		Addr:           d.cfg.Addr,
		HasStatus:      true,
		Healthy:        d.healthy,
		Unreachable:    d.unreachable,
		HasAnchor:      d.hasAnchor,
		RegisteredAt:   int64(d.registeredAt),
		ScheduleAnchor: int64(d.anchor),
		LastContact:    int64(d.lastContact),
		Freshness:      int64(d.freshness),
		Failures:       d.failures,
		Collections:    d.collections,
	})
	if err != nil {
		m.noteSticky(d.lastContact)
	}
}

func firstIssue(rep core.Report) string {
	if len(rep.Issues) == 0 {
		return ""
	}
	return rep.Issues[0]
}

// alertAt records an alert (journaling it when a store is configured) and
// fans it out to streaming subscribers with its seq. Callers hold m.mu —
// publish order therefore equals memory and journal order, which is what
// makes the streamed sequence field-identical to a polled Alerts() read.
func (m *Manager) alertAt(at sim.Ticks, d *device, kind AlertKind, detail string) {
	a := Alert{Time: at, Device: d.cfg.Addr, Kind: kind, Detail: detail}
	m.alerts = append(m.alerts, a)
	m.metrics.observeAlert(kind)
	m.events.Emit(obs.Event{
		Tick: int64(at), Subsystem: "fleet", Device: d.cfg.Addr,
		Kind: string(kind), Detail: detail,
	})
	if m.st != nil {
		err := m.st.AppendAlert(store.AlertEvent{
			Time: int64(at), Device: d.cfg.Addr, Kind: string(kind), Detail: detail,
		})
		if err != nil {
			m.noteSticky(at)
		}
	}
	m.alertBrk.Publish(StreamedAlert{Seq: m.alertBase + uint64(len(m.alerts)), Alert: a})
}

// Alerts returns all recorded alerts in order.
func (m *Manager) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// AlertsSince returns the alerts with Seq > since, oldest first — the
// streaming API's resume read. gap reports whether alerts in (since,
// first-available) were trimmed from the durable store before this
// manager loaded (MaxAlerts): the consumer missed events it can never
// read back and must be told explicitly, not silently skipped. A since
// at or beyond the newest seq returns (nil, false).
func (m *Manager) AlertsSince(since uint64) (alerts []StreamedAlert, gap bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if since < m.alertBase {
		gap = true
		since = m.alertBase
	}
	head := m.alertBase + uint64(len(m.alerts))
	if since >= head {
		return nil, gap
	}
	out := make([]StreamedAlert, 0, head-since)
	for i := int(since - m.alertBase); i < len(m.alerts); i++ {
		out = append(out, StreamedAlert{Seq: m.alertBase + uint64(i) + 1, Alert: m.alerts[i]})
	}
	return out, gap
}

// WatchAlerts subscribes to the live alert stream with a bounded buffer
// of buf items (minimum 1). A subscriber that falls behind loses its
// oldest buffered alerts and has its gap flag latched — heal by
// re-reading AlertsSince from the last seq seen and deduplicating by
// seq. Cancel the subscription when done.
func (m *Manager) WatchAlerts(buf int) *obs.Subscription[StreamedAlert] {
	return m.alertBrk.Subscribe(buf)
}

// Ready reports whether the manager has completed its first collection
// round: scheduling has started and at least one verdict has applied.
// Before that, every fleet gauge legitimately reads zero — a scraper
// must not mistake "not yet collected" for "healthy and idle". This is
// the /readyz signal; Health covers liveness and durability.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started && m.applied > 0
}

// AlertsFor filters alerts by device address.
func (m *Manager) AlertsFor(addr string) []Alert {
	var out []Alert
	for _, a := range m.Alerts() {
		if a.Device == addr {
			out = append(out, a)
		}
	}
	return out
}

// Addresses lists registered devices, sorted.
func (m *Manager) Addresses() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.devices))
	for addr := range m.devices {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Status reports one device's dashboard line.
func (m *Manager) Status(addr string) (DeviceStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[addr]
	if !ok {
		return DeviceStatus{}, fmt.Errorf("fleet: unknown device %q", addr)
	}
	return DeviceStatus{
		Addr:         addr,
		RegisteredAt: d.registeredAt,
		LastContact:  d.lastContact,
		Healthy:      d.healthy,
		Freshness:    d.freshness,
		Collections:  d.collections,
		Failures:     d.failures,
	}, nil
}

// HealthyCount returns how many devices currently have healthy histories
// and are reachable.
func (m *Manager) HealthyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, d := range m.devices {
		if d.healthy {
			n++
		}
	}
	return n
}

// Statuses returns every device's dashboard line, sorted by address — the
// /statusz payload.
func (m *Manager) Statuses() []DeviceStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DeviceStatus, 0, len(m.devices))
	for addr, d := range m.devices {
		out = append(out, DeviceStatus{
			Addr:         addr,
			RegisteredAt: d.registeredAt,
			LastContact:  d.lastContact,
			Healthy:      d.healthy,
			Freshness:    d.freshness,
			Collections:  d.collections,
			Failures:     d.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Health summarizes the manager's liveness for a /healthz endpoint. OK is
// false exactly when durability is compromised: the watermark sink or the
// state store holds a sticky I/O error. Scheduling pressure (queue depth,
// in-flight collections) is reported but never fails the check — a full
// queue is backpressure working, not an outage.
type Health struct {
	OK          bool   `json:"ok"`
	Started     bool   `json:"started"`
	Devices     int    `json:"devices"`
	Healthy     int    `json:"healthy"`
	Unreachable int    `json:"unreachable"`
	QueueDepth  int    `json:"queue_depth"`
	Inflight    int    `json:"inflight"`
	SinkError   string `json:"sink_error,omitempty"`
	StoreError  string `json:"store_error,omitempty"`
}

// Health reports the manager's current health snapshot.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{OK: true, Started: m.started, Devices: len(m.devices)}
	for _, d := range m.devices {
		if d.healthy {
			h.Healthy++
		}
		if d.unreachable {
			h.Unreachable++
		}
	}
	m.mu.Unlock()
	h.QueueDepth, h.Inflight = m.pipe.depths()
	if m.svc != nil {
		if err := m.svc.SinkErr(); err != nil {
			h.OK = false
			h.SinkError = err.Error()
		}
	}
	if m.st != nil {
		if err := m.st.Err(); err != nil {
			h.OK = false
			h.StoreError = err.Error()
		}
	}
	return h
}

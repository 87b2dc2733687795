// Package swarm reproduces §6: collective attestation of a group of
// interconnected devices, comparing on-demand swarm RA (SEDA/LISA-style,
// which needs the topology to stay essentially static for the whole
// instance) against ERASMUS self-measurement with a LISA-α-style relay
// collection (which only needs links to live for a millisecond-scale
// relay).
//
// Nodes are full prover devices (MSP430-class models running real ERASMUS
// provers) placed on a plane with a random-waypoint mobility model; two
// nodes can exchange packets while within communication radius. An
// attestation instance floods a request down a BFS tree snapshotted at the
// start and relays responses back up; every hop requires the link to be
// alive at the moment the packet crosses it, so long-running instances
// break under mobility.
//
// Evidence brought back by an instance is validated with the same
// core.Verifier semantics the fleet pipeline uses — golden-hash
// whitelists, hash-chain ordering/spacing, and a freshness bound of
// MaxGap + clock skew — batched across the swarm through a
// core.BatchVerifier. Topology snapshots run on a spatial hash grid
// (grid.go), so collective instances scale to tens of thousands of
// mobile nodes.
package swarm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"erasmus/internal/core"
	"erasmus/internal/costmodel"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/cpu"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

// Config parameterizes a swarm.
type Config struct {
	// N is the number of devices (≥ 2).
	N int
	// Area is the side of the square deployment region, in meters.
	Area float64
	// Radius is the communication range, in meters.
	Radius float64
	// Speed is the node speed for random-waypoint mobility, in m/s
	// (0 = static).
	Speed float64
	// Seed drives placement and mobility deterministically.
	Seed int64
	// Engine is the shared simulation. Required.
	Engine *sim.Engine
	// Alg is the measurement MAC (default keyed BLAKE2s).
	Alg mac.Algorithm
	// TM is the self-measurement period (default 10 min).
	TM sim.Ticks
	// MemorySize is each device's attested memory (default 10 KB: ≈4.5 s
	// measurements at 8 MHz with BLAKE2s, the §6 pain point).
	MemorySize int
	// Slots is the per-node buffer size (default 16).
	Slots int
	// HopLatency is the one-hop packet latency (default 2 ms).
	HopLatency sim.Ticks
	// Stagger offsets each node's schedule by i×TM/N so only a bounded
	// fraction of the swarm measures concurrently (§6's availability
	// argument).
	Stagger bool
	// VerifyWorkers sizes the batch-verification worker pool used by the
	// collective instance evaluators (≤ 0 selects GOMAXPROCS).
	VerifyWorkers int
	// GridCell overrides the spatial-grid cell size in meters (0 = Radius).
	// Any positive value yields the identical topology; smaller cells trade
	// bucket density for a wider scan ring.
	GridCell float64
}

// Node is one swarm member.
type Node struct {
	ID     int
	Dev    *mcu.Device
	Prover *core.Prover
	Key    []byte

	golden   []byte // clean-state memory digest for QoSA verdicts
	verifier *core.Verifier
	segments []segment // mobility trail, generated lazily, pruned by instances
	rng      *rand.Rand
}

// segment is one straight random-waypoint leg.
type segment struct {
	t0, t1         sim.Ticks
	x0, y0, x1, y1 float64
}

// Swarm is the full group.
type Swarm struct {
	cfg   Config
	Nodes []*Node

	batch *core.BatchVerifier
	// Verifier-side schedule expectations shared by every node's verifier.
	minGap, maxGap, skew sim.Ticks

	// On-demand request issuance: a per-swarm monotonic treq floor (two
	// instances at the same engine instant must not reuse a timestamp) and
	// a seeded nonce stream, one fresh nonce per instance.
	odTreq uint64
	odRng  *rand.Rand

	// Per-instance scratch: position snapshot cache, BFS candidate buffer,
	// root-path buffer. The engine is single-threaded, so instance
	// evaluators may share them.
	pos     positionCache
	candBuf []int32
	pathBuf []int
}

type positionCache struct {
	t      sim.Ticks
	valid  bool
	xs, ys []float64
}

// New builds the swarm: places nodes uniformly, provisions per-device
// keys and verifiers, starts every prover's self-measurement loop
// (staggered if asked).
func New(cfg Config) (*Swarm, error) {
	if cfg.Engine == nil {
		return nil, errors.New("swarm: Engine required")
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("swarm: need ≥2 nodes, got %d", cfg.N)
	}
	if cfg.Area <= 0 || cfg.Radius <= 0 {
		return nil, fmt.Errorf("swarm: Area and Radius must be positive")
	}
	if cfg.Speed < 0 {
		return nil, fmt.Errorf("swarm: negative speed")
	}
	if cfg.GridCell < 0 {
		return nil, fmt.Errorf("swarm: negative grid cell size")
	}
	if !cfg.Alg.Valid() {
		cfg.Alg = mac.KeyedBLAKE2s
	}
	if cfg.TM <= 0 {
		cfg.TM = 10 * sim.Minute
	}
	if cfg.MemorySize <= 0 {
		cfg.MemorySize = 10 * 1024
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 16
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 2 * sim.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	master := rand.New(rand.NewSource(seed))

	s := &Swarm{
		cfg:   cfg,
		batch: core.NewBatchVerifier(cfg.VerifyWorkers),
		odRng: rand.New(rand.NewSource(seed ^ 0x6f6e6365)), // "nonce" stream
	}
	// The verifier-side schedule window mirrors the fleet pipeline: one
	// second of commit jitter below TM, half a period of slack above it,
	// and a TM/10 skew tolerance between the prover RROC and the
	// collector's clock.
	s.minGap = cfg.TM - sim.Second
	if s.minGap < 0 {
		s.minGap = 0
	}
	s.maxGap = cfg.TM + cfg.TM/2
	s.skew = cfg.TM / 10
	s.Nodes = make([]*Node, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		key := make([]byte, 32)
		master.Read(key)
		dev, err := mcu.New(mcu.Config{
			Engine:     cfg.Engine,
			MemorySize: cfg.MemorySize,
			StoreSize:  cfg.Slots * core.RecordSize(cfg.Alg),
			Key:        key,
		})
		if err != nil {
			return nil, err
		}
		// MaxConcurrentMeasuring sweeps every node's measurement
		// intervals, so swarm nodes keep their CPU history.
		dev.CPU().EnableHistory()
		// Staggering assigns node i the schedule phase i×TM/N, so at most
		// ⌈N×measurement/TM⌉ nodes measure concurrently (§6).
		phase := sim.Ticks(0)
		if cfg.Stagger {
			phase = staggerWindow(cfg.TM, i, cfg.N)
		}
		sched, err := core.NewRegularWithPhase(cfg.TM, phase)
		if err != nil {
			return nil, err
		}
		prv, err := core.NewProver(dev, core.ProverConfig{Alg: cfg.Alg, Schedule: sched, Slots: cfg.Slots})
		if err != nil {
			return nil, err
		}
		n := &Node{
			ID:     i,
			Dev:    dev,
			Prover: prv,
			Key:    key,
			rng:    rand.New(rand.NewSource(seed + int64(i)*7919)),
		}
		// Initial placement and first mobility leg.
		x, y := n.rng.Float64()*cfg.Area, n.rng.Float64()*cfg.Area
		n.segments = []segment{{t0: 0, t1: 0, x0: x, y0: y, x1: x, y1: y}}
		s.Nodes = append(s.Nodes, n)
		prv.Start()
	}
	s.captureGolden()
	if err := s.buildVerifiers(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildVerifiers provisions one core.Verifier per node: the node's key,
// its clean-state digest as the golden whitelist, the schedule's gap
// bounds, and a freshness bound of MaxGap + skew so evidence older than
// the schedule can possibly explain grades as withheld measurements
// instead of passing on stale-but-authentic records.
func (s *Swarm) buildVerifiers() error {
	for _, n := range s.Nodes {
		v, err := core.NewVerifier(core.VerifierConfig{
			Alg:            s.cfg.Alg,
			Key:            n.Key,
			GoldenHashes:   [][]byte{n.golden},
			MinGap:         s.minGap,
			MaxGap:         s.maxGap,
			FreshnessBound: s.maxGap + s.skew,
			ClockSkew:      s.skew,
		})
		if err != nil {
			return err
		}
		n.verifier = v
	}
	return nil
}

// Verifier returns node i's provisioned verifier (tests and experiment
// harnesses verify out-of-band evidence with it).
func (s *Swarm) Verifier(i int) *core.Verifier { return s.Nodes[i].verifier }

// Stop halts every prover.
func (s *Swarm) Stop() {
	for _, n := range s.Nodes {
		n.Prover.Stop()
	}
}

// extendTrail generates mobility legs until the trail covers t.
func (s *Swarm) extendTrail(n *Node, t sim.Ticks) {
	last := n.segments[len(n.segments)-1]
	for last.t1 < t {
		// Pick the next waypoint; travel at cfg.Speed.
		nx, ny := n.rng.Float64()*s.cfg.Area, n.rng.Float64()*s.cfg.Area
		dist := math.Hypot(nx-last.x1, ny-last.y1)
		var dur sim.Ticks
		if s.cfg.Speed > 0 {
			dur = sim.Ticks(dist / s.cfg.Speed * float64(sim.Second))
		} else {
			// Static swarm: one segment parked forever.
			dur = sim.MaxTicks - last.t1
			nx, ny = last.x1, last.y1
		}
		if dur <= 0 {
			dur = sim.Millisecond
		}
		next := segment{t0: last.t1, t1: last.t1 + dur, x0: last.x1, y0: last.y1, x1: nx, y1: ny}
		n.segments = append(n.segments, next)
		last = next
	}
}

// PruneTrails drops mobility segments that ended before cutoff, keeping at
// least the newest one per node. Instance evaluators prune at their
// snapshot time: engine time is monotonic and every link check within an
// instance happens at or after it, so long-horizon runs hold O(segments
// per instance window) memory instead of the whole mobility history.
// Position queries older than the earliest retained segment return that
// segment's start point.
func (s *Swarm) PruneTrails(cutoff sim.Ticks) {
	for _, n := range s.Nodes {
		segs := n.segments
		j := sort.Search(len(segs), func(k int) bool { return segs[k].t1 >= cutoff })
		if j >= len(segs) {
			j = len(segs) - 1
		}
		if j <= 0 {
			continue
		}
		copy(segs, segs[j:])
		n.segments = segs[:len(segs)-j]
	}
	s.pos.valid = false
}

// Position returns node i's coordinates at time t.
func (s *Swarm) Position(i int, t sim.Ticks) (x, y float64) {
	n := s.Nodes[i]
	s.extendTrail(n, t)
	// Binary search for the covering segment: the last one starting at or
	// before t (trails are pruned, so this stays O(log instance-window)).
	segs := n.segments
	j := sort.Search(len(segs), func(k int) bool { return segs[k].t0 > t }) - 1
	if j < 0 {
		first := segs[0]
		return first.x0, first.y0
	}
	seg := segs[j]
	if seg.t1 == seg.t0 {
		return seg.x1, seg.y1
	}
	frac := float64(t-seg.t0) / float64(seg.t1-seg.t0)
	if frac > 1 {
		frac = 1
	}
	return seg.x0 + (seg.x1-seg.x0)*frac, seg.y0 + (seg.y1-seg.y0)*frac
}

// Connected reports whether nodes a and b are within radio range at t.
func (s *Swarm) Connected(a, b int, t sim.Ticks) bool {
	ax, ay := s.Position(a, t)
	bx, by := s.Position(b, t)
	return withinRadius(ax, ay, bx, by, s.cfg.Radius)
}

// Tree is a BFS spanning forest snapshot rooted at Root.
type Tree struct {
	Root   int
	Parent []int // -1 for root and unreachable nodes
	Depth  []int // -1 for unreachable nodes
}

// Reachable reports whether node i was in the root's component.
func (t Tree) Reachable(i int) bool { return t.Depth[i] >= 0 }

// SnapshotTree builds the BFS tree over the topology as it stands at time
// t — the tree both protocols flood along. Positions are snapshotted once
// and neighbors come from the spatial hash grid, so the scan is
// O(N × density) rather than all-pairs; the result is bit-identical to
// the brute-force scan (same visit order, same parent tie-breaking).
func (s *Swarm) SnapshotTree(root int, t sim.Ticks) Tree {
	n := len(s.Nodes)
	xs, ys := s.positionsAt(t)
	g := buildGrid(s.cfg.Area, s.cfg.GridCell, s.cfg.Radius, xs, ys)

	tree := Tree{Root: root, Parent: make([]int, n), Depth: make([]int, n)}
	for i := range tree.Parent {
		tree.Parent[i] = -1
		tree.Depth[i] = -1
	}
	tree.Depth[root] = 0
	queue := make([]int, 0, 64)
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		s.candBuf = g.candidates(u, s.candBuf[:0])
		for _, v32 := range s.candBuf {
			v := int(v32)
			if v == u || tree.Depth[v] >= 0 {
				continue
			}
			if withinRadius(xs[u], ys[u], xs[v], ys[v], s.cfg.Radius) {
				tree.Parent[v] = u
				tree.Depth[v] = tree.Depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return tree
}

// InstanceResult reports one collective attestation instance.
type InstanceResult struct {
	// Reached counts nodes in the root's component at the snapshot.
	Reached int
	// Completed counts nodes whose response made it back to the root with
	// every hop's link alive at crossing time.
	Completed int
	// Verified counts completed nodes whose evidence passed full verifier
	// validation: authentic, whitelisted state, schedule-consistent and
	// fresh within MaxGap + skew.
	Verified int
	// Duration is the span from request injection to the last response.
	Duration sim.Ticks
	// BusyTime sums prover-side CPU time consumed by the instance.
	BusyTime sim.Ticks
}

// Coverage is Completed / swarm size.
func (r InstanceResult) Coverage(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.Completed) / float64(n)
}

// relayUp checks that each hop from node up to the root is alive at the
// successive instants a packet would cross it.
func (s *Swarm) relayUp(tree Tree, node int, start sim.Ticks) (sim.Ticks, bool) {
	t := start
	for u := node; tree.Parent[u] >= 0; u = tree.Parent[u] {
		t += s.cfg.HopLatency
		if !s.Connected(u, tree.Parent[u], t) {
			return t, false
		}
	}
	return t, true
}

// deliverRequest walks the request flood from the root down to node along
// the snapshot tree, checking every link at the instant the packet crosses
// it. It returns the arrival time and whether all links held.
func (s *Swarm) deliverRequest(tree Tree, node int, t0 sim.Ticks) (sim.Ticks, bool) {
	path := s.pathToRoot(tree, node)
	reqAt := t0
	for j := len(path) - 1; j >= 1; j-- {
		reqAt += s.cfg.HopLatency
		if !s.Connected(path[j], path[j-1], reqAt) {
			return reqAt, false
		}
	}
	return reqAt, true
}

// nextODRequest issues the verifier-side parameters of one on-demand
// instance: a treq strictly above every previously-issued one (so two
// instances at the same engine instant cannot collide with the provers'
// anti-replay floor) and a fresh nonce bound into every request MAC of the
// instance.
func (s *Swarm) nextODRequest() (treq uint64, nonce uint32) {
	treq = s.Nodes[0].Dev.RROC() + 1
	if treq <= s.odTreq {
		treq = s.odTreq + 1
	}
	s.odTreq = treq
	return treq, s.odRng.Uint32()
}

// RunOnDemand executes one SEDA-style collective on-demand instance at the
// current engine time: flood the authenticated request down the snapshot
// tree, every node computes a real-time measurement, responses relay up.
// Each node's measurement takes the full calibrated measurement time, so
// under mobility the topology has often changed before responses travel.
func (s *Swarm) RunOnDemand(root int) InstanceResult {
	e := s.cfg.Engine
	t0 := e.Now()
	s.PruneTrails(t0)
	tree := s.SnapshotTree(root, t0)
	res := InstanceResult{}
	measureDur := costmodel.MeasurementTime(costmodel.MSP430, s.cfg.Alg, s.cfg.MemorySize)
	treq, nonce := s.nextODRequest()

	for i, n := range s.Nodes {
		if !tree.Reachable(i) {
			continue
		}
		res.Reached++
		// Request arrives after depth hops; every downstream link must be
		// alive as the request crosses it.
		reqAt, ok := s.deliverRequest(tree, i, t0)
		if !ok {
			continue
		}
		// The node authenticates and measures: full real-time cost.
		rec, timing, err := n.Prover.HandleOnDemandNonce(treq, nonce,
			core.NewODRequestMAC(s.cfg.Alg, n.Key, treq, int(nonce)))
		if err != nil {
			continue
		}
		res.BusyTime += timing.Total()
		doneAt := reqAt + measureDur
		// The response relays back up; the topology has moved on by then.
		endAt, alive := s.relayUp(tree, i, doneAt)
		if !alive {
			continue
		}
		res.Completed++
		rep := n.verifier.VerifyHistory([]core.Record{rec}, n.Dev.RROC(), 0)
		if rep.Healthy() {
			res.Verified++
		}
		if endAt-t0 > res.Duration {
			res.Duration = endAt - t0
		}
	}
	return res
}

// RunErasmusCollection executes one ERASMUS + LISA-α-style collection at
// the current engine time: the request floods down, nodes answer from
// their buffers with no computation, responses relay straight back.
// Returned histories are validated through the batch verifier under each
// node's own key and golden state.
func (s *Swarm) RunErasmusCollection(root int, k int) InstanceResult {
	e := s.cfg.Engine
	t0 := e.Now()
	s.PruneTrails(t0)
	tree := s.SnapshotTree(root, t0)
	res := InstanceResult{}

	jobs := make([]core.VerifyJob, 0, len(s.Nodes))
	for i, n := range s.Nodes {
		if !tree.Reachable(i) {
			continue
		}
		res.Reached++
		reqAt, ok := s.deliverRequest(tree, i, t0)
		if !ok {
			continue
		}
		recs, timing := n.Prover.HandleCollect(k)
		res.BusyTime += timing.Total()
		doneAt := reqAt + timing.Total()
		endAt, alive := s.relayUp(tree, i, doneAt)
		if !alive {
			continue
		}
		res.Completed++
		jobs = append(jobs, core.VerifyJob{Verifier: n.verifier, Records: recs, Now: n.Dev.RROC(), Tag: i})
		if endAt-t0 > res.Duration {
			res.Duration = endAt - t0
		}
	}
	for jx, rep := range s.batch.Verify(jobs) {
		if len(jobs[jx].Records) > 0 && rep.Healthy() {
			res.Verified++
		}
	}
	return res
}

// pathToRoot returns the tree path node → … → root into a reused buffer.
func (s *Swarm) pathToRoot(tree Tree, node int) []int {
	path := append(s.pathBuf[:0], node)
	for u := node; tree.Parent[u] >= 0; u = tree.Parent[u] {
		path = append(path, tree.Parent[u])
	}
	s.pathBuf = path
	return path
}

// MaxConcurrentMeasuring returns the peak number of nodes measuring
// simultaneously within [from, to] — the §6 availability metric that
// staggered scheduling bounds. The peak is computed with one event sweep
// over every measurement interval (O(events log events)) instead of
// re-scanning each device's full CPU log per sample point, and is exact
// rather than sampled.
func (s *Swarm) MaxConcurrentMeasuring(from, to sim.Ticks) int {
	type edge struct {
		t sim.Ticks
		d int
	}
	var edges []edge
	for _, n := range s.Nodes {
		for _, occ := range n.Dev.CPU().Log() {
			if occ.Kind != cpu.KindMeasurement || occ.End <= from || occ.Start > to {
				continue
			}
			edges = append(edges, edge{occ.Start, +1}, edge{occ.End, -1})
		}
	}
	// Half-open intervals: at equal times the −1 edge sorts first.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	peak, cur := 0, 0
	for _, ed := range edges {
		cur += ed.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

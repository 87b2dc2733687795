package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/popsim"
)

// rep is everything measured around one StartManaged → RunToHorizon →
// Finish cycle. Only public observation inputs are used: the tracer (one
// span per resolved collection), the metrics registry, ManagedResult,
// Engine().Fired(), Manager().Statuses(), runtime/metrics and getrusage;
// a traced rep adds an event log and a CPU profile.
type rep struct {
	traced   bool
	setup    time.Duration // StartManaged
	run      time.Duration // RunToHorizon + Finish
	cpu      time.Duration // process user+sys CPU over the run phase
	allocs   uint64        // heap objects allocated over the run phase
	peakHeap uint64        // highest sampled live-heap bytes in the run phase
	// due0 is the wall time virtual tick 0 maps to on a wall-paced run.
	due0 time.Time

	// res is the run's result without its alert stream: the stream, the
	// spans and the registry are reduced to the summaries below as the
	// repetition ends, so that no repetition keeps the earlier ones' data
	// alive on the heap it measures.
	res           *popsim.ManagedResult
	fired         uint64
	deviceSeconds float64
	digest        [32]byte
	tamperCauses  map[string]int

	attempted, verdicts, failed, tampers int
	// latWindows (udp) holds the collection latencies in ms, one window
	// per second of due time; verifyP50/P99 (sim) are the per-collection
	// verification latencies in ms. See latencyWindows and verifyLatency.
	latWindows           [][]float64
	verifyP50, verifyP99 float64

	// Traced reps only.
	queueMax             int64
	rt                   runtimeCPU
	profile              string
	scrape               scrape
	records, waits, rtts []float64
}

// runtimeCPU holds runtime/metrics CPU-class deltas in CPU seconds.
type runtimeCPU struct {
	gc, gcIdle, idle, total float64
	cycles                  uint64
}

var cpuClassNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntimeCPU() runtimeCPU {
	s := make([]metrics.Sample, len(cpuClassNames))
	for i, n := range cpuClassNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCPU{
		gc: s[0].Value.Float64(), gcIdle: s[1].Value.Float64(),
		idle: s[2].Value.Float64(), total: s[3].Value.Float64(),
		cycles: s[4].Value.Uint64(),
	}
}

func (a runtimeCPU) sub(b runtimeCPU) runtimeCPU {
	return runtimeCPU{
		gc: a.gc - b.gc, gcIdle: a.gcIdle - b.gcIdle, idle: a.idle - b.idle,
		total: a.total - b.total, cycles: a.cycles - b.cycles,
	}
}

func (a runtimeCPU) add(b runtimeCPU) runtimeCPU {
	return runtimeCPU{
		gc: a.gc + b.gc, gcIdle: a.gcIdle + b.gcIdle, idle: a.idle + b.idle,
		total: a.total + b.total, cycles: a.cycles + b.cycles,
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler polls the live heap (and, on traced reps, the verification
// queue depth gauge) until stopped, keeping the maxima.
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	heapMax  uint64
	queueMax int64
}

func startSampler(queue *obs.Gauge) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > s.heapMax {
				s.heapMax = v
			}
			if v := queue.Value(); v > s.queueMax {
				s.queueMax = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// spanCapacity sizes the tracer so every collection of the rep is kept:
// population × horizon / TC rounds, with head-room for late rounds.
func spanCapacity(cfg popsim.ManagedConfig) int {
	rounds := int64(cfg.Population) * int64(cfg.Duration) / int64(cfg.QoA.TC)
	return int(rounds+rounds/4) + 1024
}

// runRep runs one repetition. workdir receives the store directory and
// the CPU profile; the store directory is removed before returning.
func runRep(w workload, cfg popsim.ManagedConfig, traced bool, workdir string) (*rep, error) {
	r := &rep{traced: traced}
	tracer := obs.NewTracer(spanCapacity(cfg))
	cfg.Tracer = tracer
	if w.durable {
		dir, err := os.MkdirTemp(workdir, "store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir = dir
	}
	// Every repetition keeps the metrics registry a deployment serves on
	// /metrics; a traced one adds the event log and the CPU profile.
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if traced {
		cfg.Events = obs.NewEventLog(0)
	}
	// Every repetition starts from the same state: the previous one's
	// garbage collected and its heap returned to the OS, so the first
	// repetition of a process is not the only one that pays page faults.
	debug.FreeOSMemory()

	start := time.Now()
	run, err := popsim.StartManaged(cfg)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)
	var queue *obs.Gauge
	if traced {
		// The manager registered the gauge in StartManaged; this fetches it.
		queue = reg.Gauge("erasmus_fleet_queue_depth", "")
	}

	var prof *os.File
	var rt0 runtimeCPU
	if traced {
		r.profile = filepath.Join(workdir, fmt.Sprintf("cpu-%d.pprof", time.Now().UnixNano()))
		if prof, err = os.Create(r.profile); err != nil {
			_, _ = run.Finish()
			return nil, err
		}
		rt0 = readRuntimeCPU()
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			_, _ = run.Finish()
			return nil, err
		}
	}
	smp := startSampler(queue)
	cpu0, allocs0 := processCPU(), heapAllocs()
	runStart := time.Now()
	r.due0 = runStart
	run.RunToHorizon()
	res, err := run.Finish()
	r.run = time.Since(runStart)
	r.cpu, r.allocs = processCPU()-cpu0, heapAllocs()-allocs0
	smp.finish()
	r.peakHeap, r.queueMax = smp.heapMax, smp.queueMax
	if traced {
		pprof.StopCPUProfile()
		r.rt = readRuntimeCPU().sub(rt0)
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	r.res = res
	r.fired = run.Engine().Fired()
	for _, st := range run.Manager().Statuses() {
		if st.RegisteredAt < res.Config.Duration {
			r.deviceSeconds += (res.Config.Duration - st.RegisteredAt).Seconds()
		}
	}
	spans := tracer.Spans()
	if total := tracer.Total(); total != uint64(len(spans)) {
		return nil, fmt.Errorf("tracer kept %d of %d spans; raise spanCapacity", len(spans), total)
	}
	r.summarize(spans, w.udp, scrapeRegistry(reg))
	return r, nil
}

// summarize reduces the spans, the alert stream and the registry scrape
// to what the metrics need, and drops the alert stream from r.res.
func (r *rep) summarize(spans []obs.Span, udp bool, sc scrape) {
	r.attempted = len(spans)
	for _, sp := range spans {
		switch sp.Outcome {
		case "failed":
			r.failed++
		case "tamper":
			r.tampers++
		}
		if udp {
			r.latWindows = addLatency(r.latWindows, sp, r.dueWall(sp))
		}
		if !r.traced {
			continue
		}
		if sp.Outcome != "failed" {
			r.records = append(r.records, float64(sp.Records))
		}
		r.waits = append(r.waits, float64(max(0, sp.ApplyWall-sp.SubmitWall-sp.VerifyNanos))/1e6)
		if udp {
			r.rtts = append(r.rtts, float64(sp.SubmitWall-r.dueWall(sp))/1e6)
		}
	}
	r.verdicts = r.attempted - r.failed
	if !udp {
		r.verifyP50, r.verifyP99 = verifyLatency(sc, 0.5), verifyLatency(sc, 0.99)
	}
	if r.traced {
		r.scrape = sc
	}
	r.digest = alertDigest(r.res.Alerts)
	// Name the false tampers by their first issue, with the numbers
	// masked, so a change in their cause shows in the report.
	r.tamperCauses = map[string]int{}
	for _, a := range r.res.Alerts {
		if a.Kind == fleet.AlertTamper {
			r.tamperCauses[tamperCause.ReplaceAllString(a.Detail, "N")]++
		}
	}
	r.res.Alerts = nil
	// The result's Config still points at the tracer's span ring, the
	// registry and the event log.
	r.res.Config.Tracer, r.res.Config.Obs, r.res.Config.Events = nil, nil, nil
}

// tamperCause masks the numbers in a tamper detail (record index,
// timestamp, counts) so that details of one cause group together.
var tamperCause = regexp.MustCompile(`[0-9]+`)

// alertDigest hashes the alert stream in order: time, device, kind, detail.
func alertDigest(alerts []fleet.Alert) [32]byte {
	h := sha256.New()
	var b [8]byte
	for _, a := range alerts {
		binary.LittleEndian.PutUint64(b[:], uint64(a.Time))
		h.Write(b[:])
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", a.Device, a.Kind, a.Detail)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// dueWall maps a span's launch tick (virtual nanoseconds, paced one per
// wall nanosecond from the start of RunToHorizon) to the wall time the
// collection was due at.
func (r *rep) dueWall(sp obs.Span) int64 {
	return r.due0.UnixNano() + sp.LaunchTick
}

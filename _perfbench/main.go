// Command perfbench is the repository benchmark: it runs one named
// workload through popsim.StartManaged → RunToHorizon → Finish, checks
// the verdicts, and prints its metrics as one JSON object on the last
// line of standard output. README.md explains the workloads and metrics;
// run.sh builds and runs it from a checkout.
//
//	perfbench --workload sim-mixed-durable --seed 1 --seconds 55 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced repetitions;
// --trace 1 reports the per-layer metrics from traced repetitions (event
// log and CPU profile added) interleaved with untraced ones that give the
// tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"erasmus/internal/popsim"
	"erasmus/internal/sim"
)

// minSetups is the fewest StartManaged wall times setup_s is the median of.
const minSetups = 5

// maxProcs bounds the scheduler so the load fits a 2-vCPU host: the
// verification pool and GC share at most two cores.
const maxProcs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// Tests shrink a workload; 0 keeps its population and horizon.
	population int
	horizon    sim.Ticks
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "scenario seed")
	flag.IntVar(&o.seconds, "seconds", 55, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for state stores and CPU profiles")
	flag.Parse()
	o.trace = trace != 0
	if trace != 0 && trace != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	out, err := run(o)
	if err != nil {
		fail(err)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	b, err := json.Marshal(out.result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	result result
	report []string // human-readable lines printed before the result
}

func run(o options) (*output, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if o.population > 0 {
		w.population = o.population
	}
	if o.horizon > 0 {
		w.horizon = o.horizon
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	workdir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	reps, setups, err := runReps(w, o, workdir)
	if err != nil {
		return nil, err
	}
	out := &output{}
	chk := check(w, reps)
	out.result = result{Correct: chk.ok, Attempted: chk.attempted, Failed: chk.failed}
	out.report = append(out.report, chk.lines...)
	var untraced, traced []*rep
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	if o.trace {
		m, lines, err := layerMetrics(w, untraced, traced)
		if err != nil {
			return nil, err
		}
		out.result.Metrics = m
		out.report = append(out.report, lines...)
	} else {
		m, lines := endToEnd(w, untraced, setups)
		out.result.Metrics = m
		out.report = append(out.report, lines...)
	}
	return out, nil
}

// runReps runs the repetitions that fill the measured seconds: the
// workload's horizon, again and again with the same seed (so the same
// scenario), until the run phases add up to --seconds, and at least twice
// so that sim alert streams can be compared. A udp repetition is 20 s of
// wall time: its latency tail and the false tampers it causes build up
// over a run, so shorter repetitions would hide them. Traced runs
// alternate untraced and traced repetitions. setups collects every
// StartManaged wall time, plus set-up-only starts up to minSetups.
func runReps(w workload, o options, workdir string) ([]*rep, []float64, error) {
	budget := time.Duration(o.seconds) * time.Second
	var reps []*rep
	var setups []float64
	var spent time.Duration
	for i := 0; len(reps) < 2 || spent < budget; i++ {
		cfg := w.config(o.seed, w.horizon)
		cfg.Population = w.population
		r, err := runRep(w, cfg, o.trace && i%2 == 1, workdir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s seed %d: %w", w.name, o.seed, err)
		}
		reps = append(reps, r)
		setups = append(setups, r.setup.Seconds())
		spent += r.run
	}
	for len(setups) < minSetups {
		s, err := setupOnly(w, o)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
	}
	return reps, setups, nil
}

// setupOnly times one StartManaged of the workload and releases it.
func setupOnly(w workload, o options) (float64, error) {
	cfg := w.config(o.seed, w.horizon)
	cfg.Population = w.population
	debug.FreeOSMemory()
	start := time.Now()
	run, err := popsim.StartManaged(cfg)
	if err != nil {
		return 0, err
	}
	s := time.Since(start).Seconds()
	_, err = run.Finish()
	return s, err
}

// checkResult is the correctness verdict over all repetitions.
type checkResult struct {
	ok                bool
	attempted, failed int
	lines             []string
}

// check applies the correctness checks to every repetition: each seeded
// infection detected, no infection alert on a device never seeded, and
// (sim) an identical alert stream from every repetition of the seed.
// Transport failures and false tampers do not fail the check; they are
// the failed operations, counted against the collections attempted.
//
// A sim repetition replays the same scenario, so the run's operations
// are one repetition's collections: counting every replay would make the
// counts depend on how many repetitions the host's speed fits into
// --seconds. Each udp repetition is a new wall-paced run, and counts.
func check(w workload, reps []*rep) checkResult {
	c := checkResult{ok: true}
	for i, r := range reps {
		res := r.res
		failed := r.failed + r.tampers + res.FalseInfections
		if w.udp || i == 0 {
			c.attempted += r.attempted
			c.failed += failed
		} else if r.attempted != reps[0].attempted || failed != c.failed {
			c.ok = false
			c.lines = append(c.lines, fmt.Sprintf("FAIL rep %d: %d of %d collections failed, rep 0: %d of %d",
				i, failed, r.attempted, c.failed, reps[0].attempted))
		}
		if res.InfectionsDetected != res.InfectionsSeeded {
			c.ok = false
			c.lines = append(c.lines, fmt.Sprintf("FAIL rep %d: %d of %d seeded infections detected",
				i, res.InfectionsDetected, res.InfectionsSeeded))
		}
		if res.FalseInfections != 0 {
			c.ok = false
			c.lines = append(c.lines, fmt.Sprintf("FAIL rep %d: infection alerts on %d devices never seeded",
				i, res.FalseInfections))
		}
		if r.verdicts == 0 {
			c.ok = false
			c.lines = append(c.lines, fmt.Sprintf("FAIL rep %d: no verdict applied", i))
		}
		c.lines = append(c.lines, fmt.Sprintf("# rep %d traced=%v: setup %.3fs, run %.3fs, cpu %.3fs, %d collections, %d failed, %d seeded / %d detected",
			i, r.traced, r.setup.Seconds(), r.run.Seconds(), r.cpu.Seconds(), r.attempted, failed, res.InfectionsSeeded, res.InfectionsDetected))
		if !w.udp && r.digest != reps[0].digest {
			c.ok = false
			c.lines = append(c.lines, fmt.Sprintf("FAIL rep %d: alert stream differs from rep 0 under the same seed", i))
		}
	}
	tampers := map[string]int{}
	for _, r := range reps {
		for cause, n := range r.tamperCauses {
			tampers[cause] += n
		}
	}
	for _, cause := range sortedKeys(tampers) {
		c.lines = append(c.lines, fmt.Sprintf("# false tamper x%d: %s", tampers[cause], cause))
	}
	if c.attempted == 0 {
		c.ok = false
		c.attempted = 1 // the result line requires attempted ≥ 1
	}
	per := "over all repetitions"
	if !w.udp {
		per = "per repetition"
	}
	c.lines = append(c.lines, fmt.Sprintf("# %s: %d repetitions, %d collections attempted, %d failed (transport failures + false alarms) %s, correct=%v",
		w.name, len(reps), c.attempted, c.failed, per, c.ok))
	return c
}

// sortedKeys lists a map's keys in order, for the report lines.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func reportLines(m map[string]metric) []string {
	var lines []string
	for _, k := range sortedKeys(m) {
		lines = append(lines, fmt.Sprintf("%-44s %14.6g %s", k, m[k].Value, m[k].Unit))
	}
	return lines
}

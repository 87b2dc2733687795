package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// layers are the benchmark's CPU attribution buckets, named after the
// repository modules they cover.
var layers = []string{"sim", "prover", "netsim", "udp", "fleet", "verify", "store", "gc"}

// layerPrefixes maps function-name prefixes (as pprof prints them) to a
// layer. Shared libraries — MACs, BLAKE2s, SHA-256, the record codecs and
// other free functions of internal/core — are in no layer: their samples
// go to the innermost caller that is, so BLAKE2s under a prover
// measurement counts as prover and under a verification as verify.
var layerPrefixes = []struct{ prefix, layer string }{
	{"erasmus/internal/sim.", "sim"},
	{"container/heap.", "sim"},
	{"erasmus/internal/core.(*Prover).", "prover"},
	{"erasmus/internal/hw/", "prover"},
	{"erasmus/internal/kernel/", "prover"},
	{"erasmus/internal/costmodel.", "prover"},
	{"erasmus/internal/netsim.", "netsim"},
	{"erasmus/internal/session.", "netsim"},
	{"erasmus/internal/udptransport.", "udp"},
	{"erasmus/internal/fleet.", "fleet"},
	{"erasmus/internal/core.(*Verifier).", "verify"},
	{"erasmus/internal/core.(*BatchVerifier).", "verify"},
	{"erasmus/internal/core.VerifyJob.", "verify"},
	{"erasmus/internal/store.", "store"},
}

// gcPrefixes name the Go runtime's collector: background mark workers,
// mutator assists, sweeping, scavenging and write-barrier flushes.
var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.bgscavenge",
	"runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.deductSweepCredit",
}

func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		return ""
	}
	for _, lp := range layerPrefixes {
		if strings.HasPrefix(fn, lp.prefix) {
			return lp.layer
		}
	}
	return ""
}

// profileSamples is a CPU profile reduced to sample counts per layer;
// the empty key holds samples with no frame in any layer.
type profileSamples map[string]int64

func (p profileSamples) total() (n int64) {
	for _, v := range p {
		n += v
	}
	return n
}

// attributeProfiles reads CPU profiles with the local toolchain's
// `go tool pprof -raw` (several files are merged) and attributes each
// sample to the innermost frame that belongs to a layer.
func attributeProfiles(files []string) (profileSamples, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-raw"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseRaw(out)
}

var (
	rawSample   = regexp.MustCompile(`^\s*(\d+)\s+\d+:((?:\s+\d+)+)\s*$`)
	rawLocation = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ M=\d+ (.*)$`)
	rawInlined  = regexp.MustCompile(`^\s+(\S.*)$`)
)

// parseRaw parses `pprof -raw` output: a Samples section of
// "count value: loc loc …" lines (leaf first) and a Locations section
// where each location lists its frames innermost first, inlined callers
// on indented continuation lines.
func parseRaw(out []byte) (profileSamples, error) {
	type sample struct {
		count int64
		locs  []string
	}
	var samples []sample
	frames := make(map[string][]string)
	section, lastLoc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			if m := rawSample.FindStringSubmatch(line); m != nil {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				samples = append(samples, sample{count: n, locs: strings.Fields(m[2])})
			}
		case "Locations":
			if m := rawLocation.FindStringSubmatch(line); m != nil {
				lastLoc = m[1]
				frames[lastLoc] = append(frames[lastLoc], frameFunc(m[2]))
			} else if m := rawInlined.FindStringSubmatch(line); m != nil && lastLoc != "" {
				frames[lastLoc] = append(frames[lastLoc], frameFunc(m[1]))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples parsed")
	}
	got := make(profileSamples)
	for _, s := range samples {
		layer := ""
	stack:
		for _, loc := range s.locs {
			for _, fn := range frames[loc] {
				if layer = layerOf(fn); layer != "" {
					break stack
				}
			}
		}
		got[layer] += s.count
	}
	return got, nil
}

// frameFunc strips the trailing "file:line:col s=N" from a frame line,
// leaving the function name (which may itself contain spaces).
func frameFunc(s string) string {
	f := strings.Fields(s)
	if len(f) >= 3 && strings.HasPrefix(f[len(f)-1], "s=") {
		f = f[:len(f)-2]
	}
	return strings.Join(f, " ")
}

package core

import (
	"bytes"
	"testing"

	"erasmus/internal/crypto/drbg"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

// loopDevice builds a device of the named architecture for the
// measurement-loop tests: an MSP430 (cycle-exact RROC) or an i.MX6, whose
// GPT-derived RROC floors a few ns below engine time.
func loopDevice(t *testing.T, arch string, e *sim.Engine, slots int) Device {
	t.Helper()
	store := slots * RecordSize(mac.KeyedBLAKE2s)
	var (
		dev Device
		err error
	)
	switch arch {
	case "msp430":
		dev, err = mcu.New(mcu.Config{Engine: e, MemorySize: 1024, StoreSize: store, Key: testKey})
	case "imx6":
		dev, err = imx6.New(imx6.Config{Engine: e, MemorySize: 64 << 10, StoreSize: store, Key: testKey})
	default:
		t.Fatalf("unknown arch %q", arch)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// requireChainCoversBuffer fails unless the prover's chain head equals
// ChainOf over the records in its buffer: the chain absorbed exactly the
// committed stream, no more and no fewer records. The run must not have
// wrapped the buffer.
func requireChainCoversBuffer(t *testing.T, p *Prover) {
	t.Helper()
	n := p.Stats().Measurements
	if n > p.buf.Slots() {
		t.Fatalf("%d measurements overflow the %d-slot buffer; use more slots", n, p.buf.Slots())
	}
	var recs []Record
	if p.lastSlot >= 0 {
		recs = p.buf.Latest(p.lastSlot, p.buf.Slots())
	}
	if len(recs) != n {
		t.Fatalf("buffer holds %d records, prover committed %d", len(recs), n)
	}
	want, err := ChainOf(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.ChainHead(), want) {
		t.Fatalf("chain head does not cover the %d buffered records", n)
	}
}

// Every device commits exactly one record per TM slot: on a regular
// schedule one per ⌊t/TM⌋ window with none skipped, on an irregular one
// exactly the intervals a verifier replays from the record timestamps. A
// coarse i.MX6 RROC that reads short of the armed tick must neither
// measure early nor re-measure the slot.
func TestOneCommitPerSlotAcrossArchitectures(t *testing.T) {
	const (
		tm    = sim.Minute
		slots = 64
		run   = 45 * sim.Minute
		// An odd boot instant and phase, as for devices joining a fleet
		// at arbitrary times on staggered schedules: the i.MX6 RROC then
		// floors below engine time at the armed ticks.
		bootAt = 1234567891
		phase  = 7654321
	)
	for _, arch := range []string{"msp430", "imx6"} {
		t.Run(arch+"/regular", func(t *testing.T) {
			e := sim.NewEngine()
			dev := loopDevice(t, arch, e, slots)
			sched, _ := NewRegularWithPhase(tm, phase)
			p, err := NewProver(dev, ProverConfig{Alg: mac.KeyedBLAKE2s, Schedule: sched, Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			e.RunUntil(bootAt)
			start := dev.RROC() - uint64(phase)
			p.Start()
			e.RunUntil(run)
			p.Stop()
			end := dev.RROC() - uint64(phase)

			recs := p.buf.Latest(p.lastSlot, slots)
			// Ticks k·TM + phase in (start, end], each measured once.
			want := int(end/uint64(tm) - start/uint64(tm))
			if len(recs) != want || p.Stats().Measurements != want {
				t.Fatalf("committed %d records (%d in buffer), want %d: one per TM",
					p.Stats().Measurements, len(recs), want)
			}
			first := start/uint64(tm) + 1
			for i, r := range recs {
				k := first + uint64(len(recs)-1-i)
				tick := k*uint64(tm) + uint64(phase)
				if r.T < tick || r.T-tick > uint64(sim.Microsecond) {
					t.Fatalf("record %d at t=%d, want tick %d of window %d", i, r.T, tick, k)
				}
			}
			requireChainCoversBuffer(t, p)
		})
		t.Run(arch+"/irregular", func(t *testing.T) {
			e := sim.NewEngine()
			dev := loopDevice(t, arch, e, slots)
			seed := []byte("one-commit-per-slot")
			sched, err := NewIrregular(drbg.New(testKey, seed), tm/2, 3*tm/2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProver(dev, ProverConfig{Alg: mac.KeyedBLAKE2s, Schedule: sched, Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			e.RunUntil(bootAt)
			start := dev.RROC()
			p.Start()
			e.RunUntil(run)
			p.Stop()

			// The verifier's replay: the same generator, advanced once
			// per measurement from the recorded timestamps.
			replay, _ := NewIrregular(drbg.New(testKey, seed), tm/2, 3*tm/2)
			recs := p.buf.Latest(p.lastSlot, slots)
			if len(recs) < int(run/(3*tm/2)) {
				t.Fatalf("only %d measurements in %v", len(recs), run)
			}
			prev := start
			for i := len(recs) - 1; i >= 0; i-- {
				due := prev + uint64(replay.NextInterval(prev))
				if got := recs[i].T; got < due || got-due > uint64(sim.Microsecond) {
					t.Fatalf("measurement %d at t=%d, replayed schedule says %d",
						len(recs)-1-i, got, due)
				}
				prev = recs[i].T
			}
			requireChainCoversBuffer(t, p)
		})
	}
}

// One full measurement cycle — timer expiry, CPU reservation, the
// protected computation, commit to buffer and chain, re-arming — makes a
// small fixed number of heap allocations, however long the device runs.
func TestMeasurementCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes allocation counts")
	}
	// The cycle allocates the next timer's event, the CPU occupation
	// handle, the start and end events, and the record's hash+MAC bytes.
	const bound = 5
	for _, arch := range []string{"msp430", "imx6"} {
		t.Run(arch, func(t *testing.T) {
			e := sim.NewEngine()
			dev := loopDevice(t, arch, e, 8)
			sched, _ := NewRegular(sim.Minute)
			p, err := NewProver(dev, ProverConfig{Alg: mac.KeyedBLAKE2s, Schedule: sched, Slots: 8})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			e.RunUntil(10 * sim.Minute) // warm: buffer wrapped, states recycled
			before := p.Stats().Measurements
			allocs := testing.AllocsPerRun(100, func() {
				e.RunUntil(e.Now() + sim.Minute)
			})
			if got := p.Stats().Measurements - before; got != 101 {
				t.Fatalf("%d measurements in 101 cycles", got)
			}
			if allocs > bound {
				t.Fatalf("%v allocations per measurement cycle, want ≤ %d", allocs, bound)
			}
			t.Logf("%v allocations per measurement cycle", allocs)
		})
	}
}

// A long-running device keeps O(1) prover-side state: no per-
// measurement history on the CPU tracker, no growing engine queue.
func TestMeasurementLoopRetainsNothing(t *testing.T) {
	e := sim.NewEngine()
	dev := loopDevice(t, "imx6", e, 8)
	sched, _ := NewRegular(sim.Minute)
	p, err := NewProver(dev, ProverConfig{Alg: mac.KeyedBLAKE2s, Schedule: sched, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.RunUntil(12 * sim.Hour)
	if n := p.Stats().Measurements; n < 12*60-1 {
		t.Fatalf("only %d measurements in twelve hours", n)
	}
	if q := e.Pending(); q != 1 {
		t.Fatalf("%d events queued between measurements, want the timer alone", q)
	}
	if len(p.spare) > 1 {
		t.Fatalf("%d spare measurement states for a serial loop", len(p.spare))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("device CPU tracker kept an occupation history by default")
			}
		}()
		dev.CPU().Log()
	}()
}

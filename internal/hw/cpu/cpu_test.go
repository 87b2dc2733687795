package cpu

import (
	"testing"
	"testing/quick"

	"erasmus/internal/sim"
)

func TestOccupyIdleCPU(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	if tr.Busy() {
		t.Fatal("new tracker busy")
	}
	occ := tr.Occupy(KindMeasurement, 100)
	if occ.Start != 0 || occ.End != 100 {
		t.Fatalf("occ = %+v, want [0,100)", occ)
	}
	if !tr.Busy() {
		t.Fatal("not busy after Occupy")
	}
	if tr.FreeAt() != 100 {
		t.Fatalf("FreeAt = %v", tr.FreeAt())
	}
}

func TestOccupySerializes(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.Occupy(KindTask, 50)
	second := tr.Occupy(KindMeasurement, 30)
	if second.Start != 50 || second.End != 80 {
		t.Fatalf("second = %+v, want [50,80)", second)
	}
}

func TestBusyClearsAfterInterval(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.Occupy(KindTask, 50)
	e.RunUntil(49)
	if !tr.Busy() {
		t.Fatal("should be busy at t=49")
	}
	e.RunUntil(50)
	if tr.Busy() {
		t.Fatal("should be idle at t=50")
	}
}

func TestNegativeOccupationPanics(t *testing.T) {
	tr := NewTracker(sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Error("negative occupation did not panic")
		}
	}()
	tr.Occupy(KindTask, -1)
}

func TestNilEnginePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTracker(nil) },
		func() { NewViolationLog(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("nil engine did not panic")
				}
			}()
			f()
		}()
	}
}

func TestAbort(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.EnableHistory()
	tr.Occupy(KindMeasurement, 100)
	e.RunUntil(40)
	if !tr.Abort() {
		t.Fatal("Abort returned false for running occupation")
	}
	if tr.Busy() {
		t.Fatal("busy after abort")
	}
	log := tr.Log()
	if len(log) != 1 || !log[0].Aborted || log[0].End != 40 {
		t.Fatalf("log = %+v", log)
	}
	// Second abort is a no-op.
	if tr.Abort() {
		t.Fatal("Abort on idle CPU returned true")
	}
}

func TestAbortAfterCompletionNoOp(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.Occupy(KindMeasurement, 10)
	e.RunUntil(20)
	if tr.Abort() {
		t.Fatal("aborted a finished occupation")
	}
}

func TestActiveKind(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	if tr.ActiveKind() != "" {
		t.Fatal("idle CPU has active kind")
	}
	tr.Occupy(KindMeasurement, 10)
	if tr.ActiveKind() != KindMeasurement {
		t.Fatalf("ActiveKind = %q", tr.ActiveKind())
	}
	e.RunUntil(15)
	if tr.ActiveKind() != "" {
		t.Fatal("finished occupation still active")
	}
}

func TestBusyTimeWindowClipping(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.EnableHistory()
	tr.Occupy(KindMeasurement, 100) // [0,100)
	e.RunUntil(100)
	tr.Occupy(KindTask, 50) // [100,150)
	if got := tr.BusyTime(KindMeasurement, 50, 120); got != 50 {
		t.Errorf("BusyTime(measurement,50,120) = %v, want 50", got)
	}
	if got := tr.BusyTime("", 50, 120); got != 70 {
		t.Errorf("BusyTime(all,50,120) = %v, want 70", got)
	}
	if got := tr.BusyFraction(KindTask, 100, 200); got != 0.5 {
		t.Errorf("BusyFraction = %v, want 0.5", got)
	}
	if got := tr.BusyFraction(KindTask, 100, 100); got != 0 {
		t.Errorf("empty window fraction = %v, want 0", got)
	}
}

func TestLogIsACopy(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.EnableHistory()
	tr.Occupy(KindTask, 10)
	log := tr.Log()
	log[0].Kind = "tampered"
	if tr.Log()[0].Kind != KindTask {
		t.Fatal("Log exposed internal slice")
	}
}

func TestViolationLog(t *testing.T) {
	e := sim.NewEngine()
	l := NewViolationLog(e)
	e.RunUntil(42)
	err := l.Record(ViolationKeyAccess, "malware read K")
	if err == nil {
		t.Fatal("Record returned nil error")
	}
	v, ok := err.(Violation)
	if !ok {
		t.Fatalf("Record returned %T", err)
	}
	if v.Time != 42 || v.Kind != ViolationKeyAccess {
		t.Fatalf("violation = %+v", v)
	}
	if l.Count("") != 1 || l.Count(ViolationKeyAccess) != 1 || l.Count(ViolationClockWrite) != 0 {
		t.Fatal("Count mismatch")
	}
	events := l.Events()
	events[0].Kind = "tampered"
	if l.Events()[0].Kind != ViolationKeyAccess {
		t.Fatal("Events exposed internal slice")
	}
}

func TestViolationErrorString(t *testing.T) {
	v := Violation{Time: 5, Kind: ViolationROMWrite, Detail: "x"}
	if v.Error() == "" {
		t.Fatal("empty error string")
	}
}

// Property: occupations never overlap, regardless of request pattern.
func TestPropertyNoOverlap(t *testing.T) {
	f := func(durs []uint8, advances []uint8) bool {
		e := sim.NewEngine()
		tr := NewTracker(e)
		tr.EnableHistory()
		for i, d := range durs {
			tr.Occupy(KindTask, sim.Ticks(d))
			if i < len(advances) {
				e.RunUntil(e.Now() + sim.Ticks(advances[i]))
			}
		}
		log := tr.Log()
		for i := 1; i < len(log); i++ {
			if log[i].Start < log[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time over an all-covering window equals the sum of
// interval durations.
func TestPropertyBusyTimeConservation(t *testing.T) {
	f := func(durs []uint8) bool {
		e := sim.NewEngine()
		tr := NewTracker(e)
		tr.EnableHistory()
		var want sim.Ticks
		for _, d := range durs {
			occ := tr.Occupy(KindTask, sim.Ticks(d))
			want += occ.Duration()
		}
		return tr.BusyTime("", 0, sim.MaxTicks) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// History is opt-in: a default tracker keeps only the running occupation,
// and asking it for history fails loudly instead of reporting an idle core.
func TestHistoryOffByDefault(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	for i := 0; i < 100; i++ {
		tr.Occupy(KindMeasurement, 10)
	}
	if len(tr.log) != 0 {
		t.Fatalf("default tracker retained %d occupations", len(tr.log))
	}
	reads := []struct {
		name string
		read func()
	}{
		{"Log", func() { tr.Log() }},
		{"BusyTime", func() { tr.BusyTime("", 0, sim.MaxTicks) }},
	}
	for _, r := range reads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s without history did not panic", r.name)
				}
			}()
			r.read()
		}()
	}
}

// An abort of the running occupation is reflected both in the caller's
// handle and in the recorded history.
func TestAbortUpdatesHistory(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker(e)
	tr.EnableHistory()
	tr.Occupy(KindTask, 10)
	occ := tr.Occupy(KindMeasurement, 100)
	e.RunUntil(50)
	if !tr.Abort() {
		t.Fatal("Abort returned false")
	}
	log := tr.Log()
	if !occ.Aborted || occ.End != 50 {
		t.Fatalf("handle = %+v, want aborted at 50", *occ)
	}
	if len(log) != 2 || log[0].Aborted || log[1] != *occ {
		t.Fatalf("log = %+v, want the task then %+v", log, *occ)
	}
}

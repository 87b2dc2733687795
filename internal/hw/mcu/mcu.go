// Package mcu models a low-end MSP430-class microcontroller with the
// SMART+ security architecture, the low-end prover platform of the paper.
//
// The model captures the properties ERASMUS depends on (§2, §3.4, Fig. 5):
//
//   - Attestation code and the secret K live in ROM; K is readable only
//     from within the attestation code (hard-wired MCU access rules).
//   - Attestation executes atomically: non-reentrant, entered at its first
//     instruction, interrupts disabled for its duration.
//   - A Reliable Read-Only Clock (RROC): a 64-bit counter incremented every
//     cycle whose write-enable wire does not exist. Software cannot change
//     it (unless the WritableClock ablation is enabled, which exists only
//     to demonstrate the §3.4 clock-reset attack).
//   - Hardware timers (omsp_timerA) that invoke the measurement routine on
//     schedule without verifier interaction.
//   - Everything else — including the measurement store — is ordinary
//     writable memory that resident malware may read and modify at will.
//
// Instruction-level execution is not simulated; computation is accounted in
// virtual time via the calibrated cost model, while all cryptography runs
// for real over the device's live memory image.
package mcu

import (
	"errors"
	"fmt"

	"erasmus/internal/costmodel"
	"erasmus/internal/hw/cpu"
	"erasmus/internal/sim"
)

// DefaultEpoch mirrors the timestamp in the paper's Figure 3 example
// (t = 1492453673), expressed in nanoseconds.
const DefaultEpoch = 1492453673 * uint64(sim.Second)

// Config parameterizes a device.
type Config struct {
	// Engine is the simulation the device lives in. Required.
	Engine *sim.Engine
	// MemorySize is the attested memory size in bytes (Fig. 6 sweeps
	// this from 0 to 10 KB). Required, positive.
	MemorySize int
	// StoreSize is the size in bytes of the insecure measurement store
	// (the windowed buffer region of Fig. 3). Required, positive.
	StoreSize int
	// Key is the device-unique secret K provisioned in ROM. Required.
	Key []byte
	// Epoch is the RROC value at simulation time zero, in nanoseconds.
	// Defaults to DefaultEpoch.
	Epoch uint64
	// WritableClock enables the hypothetical flawed-RROC ablation used to
	// demonstrate the §3.4 attack. Production SMART+ hardware cannot do
	// this; leave false except in that experiment.
	WritableClock bool
}

// Device is one simulated prover MCU.
type Device struct {
	engine *sim.Engine
	cpu    *cpu.Tracker
	viol   *cpu.ViolationLog

	mem   []byte // attested image (program + data), writable by anyone
	store []byte // measurement store, writable by anyone
	key   []byte // in ROM, guarded by access rules
	// keyCopy receives Attest's per-call copy of K; zeroed on exit.
	keyCopy []byte

	epoch         uint64
	clockOffset   int64 // nonzero only via the WritableClock ablation
	writableClock bool
	rrocLatch     uint64 // upper-word latch for 16-bit bus reads

	inAttestation bool
}

// New builds a device. All memory starts zeroed; callers install a program
// image via Memory / WriteMemory before taking baseline measurements.
func New(cfg Config) (*Device, error) {
	if cfg.Engine == nil {
		return nil, errors.New("mcu: Config.Engine is required")
	}
	if cfg.MemorySize <= 0 {
		return nil, fmt.Errorf("mcu: MemorySize must be positive, got %d", cfg.MemorySize)
	}
	if cfg.StoreSize <= 0 {
		return nil, fmt.Errorf("mcu: StoreSize must be positive, got %d", cfg.StoreSize)
	}
	if len(cfg.Key) == 0 {
		return nil, errors.New("mcu: Key is required")
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = DefaultEpoch
	}
	return &Device{
		engine:        cfg.Engine,
		cpu:           cpu.NewTracker(cfg.Engine),
		viol:          cpu.NewViolationLog(cfg.Engine),
		mem:           make([]byte, cfg.MemorySize),
		store:         make([]byte, cfg.StoreSize),
		key:           append([]byte(nil), cfg.Key...),
		keyCopy:       make([]byte, len(cfg.Key)),
		epoch:         epoch,
		writableClock: cfg.WritableClock,
	}, nil
}

// Arch identifies the platform for the cost model.
func (d *Device) Arch() costmodel.Arch { return costmodel.MSP430 }

// Engine returns the simulation engine the device is bound to.
func (d *Device) Engine() *sim.Engine { return d.engine }

// CPU returns the single-core occupancy tracker.
func (d *Device) CPU() *cpu.Tracker { return d.cpu }

// Violations returns the device's access-violation log.
func (d *Device) Violations() *cpu.ViolationLog { return d.viol }

// Memory returns the live attested memory image. Writes through the
// returned slice model software (including malware) modifying prover state.
func (d *Device) Memory() []byte { return d.mem }

// WriteMemory writes into the attested image, as any running software may.
func (d *Device) WriteMemory(off int, b []byte) error {
	if off < 0 || off+len(b) > len(d.mem) {
		return fmt.Errorf("mcu: write [%d,%d) outside memory of %d bytes", off, off+len(b), len(d.mem))
	}
	copy(d.mem[off:], b)
	return nil
}

// Store returns the insecure measurement-store region (Fig. 3). It is
// deliberately unprotected: malware may modify, reorder or delete records,
// and §3.4 argues any such tampering is detected at the next collection.
func (d *Device) Store() []byte { return d.store }

// RROC returns the Reliable Read-Only Clock in nanoseconds since the
// device epoch. On hardware this is a 64-bit register incremented every
// cycle; the model derives it from virtual time. Readable by anyone.
func (d *Device) RROC() uint64 {
	base := d.epoch + uint64(d.engine.Now())
	return uint64(int64(base) + d.clockOffset)
}

// WriteRROC attempts to set the clock, as the §3.4 attack requires. On a
// correct SMART+ device the write-enable wire is absent, so this logs a
// violation and fails; with the WritableClock ablation it succeeds.
func (d *Device) WriteRROC(v uint64) error {
	if !d.writableClock {
		return d.viol.Record(cpu.ViolationClockWrite, "RROC has no write enable")
	}
	d.clockOffset = int64(v) - int64(d.epoch+uint64(d.engine.Now()))
	return nil
}

// InAttestation reports whether the ROM attestation code is executing.
func (d *Device) InAttestation() bool { return d.inAttestation }

// ErrAtomicity is returned when attestation code is re-entered while
// already running, which the hardware monitor forbids.
var ErrAtomicity = errors.New("mcu: attestation code is not re-entrant")

// Attest executes fn as the ROM-resident attestation code: atomically,
// with interrupts disabled and with access to K. The key slice passed to
// fn is a copy that is zeroed on exit, modeling SMART's post-execution
// memory cleanup. The copy lives in a per-device buffer, which is safe to
// reuse because attestation is not re-entrant.
func (d *Device) Attest(fn func(key []byte)) error {
	if d.inAttestation {
		return d.viol.Record(cpu.ViolationAtomicity, ErrAtomicity.Error())
	}
	d.inAttestation = true
	k := d.keyCopy
	copy(k, d.key)
	defer func() {
		clear(k)
		d.inAttestation = false
	}()
	fn(k)
	return nil
}

// KeyUnprivileged models malware attempting to read K from normal-world
// code. The MCU access rules block it and the attempt is logged.
func (d *Device) KeyUnprivileged() ([]byte, error) {
	if d.inAttestation {
		// Even during attestation, only the ROM code path (Attest's fn)
		// holds the key; an unprivileged read is still a violation.
		return nil, d.viol.Record(cpu.ViolationKeyAccess, "unprivileged key read during attestation")
	}
	return nil, d.viol.Record(cpu.ViolationKeyAccess, "unprivileged key read")
}

// SetPeriodicTimer programs a hardware timer (omsp_timerA) to invoke fn
// every interval, starting one interval from now. It returns a stop
// function. Timers fire regardless of CPU occupancy — the handler decides
// whether to queue work behind the busy core.
func (d *Device) SetPeriodicTimer(interval sim.Ticks, fn func()) (stop func()) {
	return d.engine.Ticker(d.engine.Now()+interval, interval, fn)
}

// SetOneShotTimer programs a single timer expiry after delay.
func (d *Device) SetOneShotTimer(delay sim.Ticks, fn func()) *sim.Event {
	return d.engine.After(delay, fn)
}

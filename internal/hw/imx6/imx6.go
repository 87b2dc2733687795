// Package imx6 models the i.MX6 Sabre Lite development board running the
// HYDRA security architecture on seL4, the medium-end prover platform of
// the paper (§4.2).
//
// The pieces the paper describes are all present:
//
//   - RROC built in software (after Brasser et al.): the General Purpose
//     Timer (GPT) supplies a 32-bit up-counter; when it wraps, clock code
//     in PrAtt updates the high-order bits. The full clock value combines
//     those bits with the live GPT counter. The model derives the
//     high-order bits from the rollover count when the clock is read, so
//     the wrap interrupt costs no simulation event. Read-only-ness is
//     enforced by seL4: PrAtt holds the only write capability to the RROC
//     components.
//   - The Enhanced Periodic Interrupt Timer (EPIT) schedules execution of
//     the ERASMUS measurement code.
//   - K and the attestation code live in ordinary RAM but are isolated by
//     capabilities that only PrAtt holds; PrAtt runs at the highest
//     priority (atomicity); secure boot covers the kernel and PrAtt.
//
// As with the MCU model, computation is charged to virtual time via the
// calibrated cost model while the cryptography itself is real.
package imx6

import (
	"errors"
	"fmt"
	"math/bits"

	"erasmus/internal/costmodel"
	"erasmus/internal/hw/cpu"
	"erasmus/internal/kernel/sel4"
	"erasmus/internal/sim"
)

// GPT configuration: the i.MX6 GPT runs from the 66 MHz peripheral clock
// and wraps a 32-bit counter every ~65 seconds.
const (
	GPTFrequencyHz = 66_000_000
	gptWrapCycles  = 1 << 32
)

// regionKey and regionRROCHigh are the kernel regions whose capabilities
// PrAtt holds exclusively.
const (
	regionKey      = "key"
	regionRROCHigh = "rroc-high-bits"
	regionTCB      = "pratt-tcb"
)

// Config parameterizes a board.
type Config struct {
	// Engine is the simulation the device lives in. Required.
	Engine *sim.Engine
	// MemorySize is the attested memory size in bytes (Fig. 8 sweeps this
	// from 0 to 10 MB). Required, positive.
	MemorySize int
	// StoreSize is the size of the insecure measurement store. Required.
	StoreSize int
	// Key is the device secret K. Required.
	Key []byte
	// Epoch is the RROC value at boot, in nanoseconds. Defaults to the
	// same epoch as the MCU model.
	Epoch uint64
	// WritableClock enables the flawed-clock ablation (§3.4 attack demo).
	WritableClock bool
	// PrAttPriority is PrAtt's scheduling priority (default 255).
	PrAttPriority int
}

// DefaultEpoch mirrors the paper's Figure 3 timestamp, in nanoseconds.
const DefaultEpoch = 1492453673 * uint64(sim.Second)

// Device is one simulated HYDRA prover board.
type Device struct {
	engine *sim.Engine
	kernel *sel4.Kernel
	cpu    *cpu.Tracker

	mem   []byte
	store []byte

	appProc *sel4.Process // represents the untrusted normal world

	epoch         uint64
	clockOffset   int64
	writableClock bool

	inAttestation bool
	keyCopy       []byte // Attest's per-call copy of K; zeroed on exit
}

// New boots a board: secure boot of the kernel + PrAtt, region setup with
// exclusive PrAtt capabilities, and an untrusted application process for
// the normal world.
func New(cfg Config) (*Device, error) {
	if cfg.Engine == nil {
		return nil, errors.New("imx6: Config.Engine is required")
	}
	if cfg.MemorySize <= 0 {
		return nil, fmt.Errorf("imx6: MemorySize must be positive, got %d", cfg.MemorySize)
	}
	if cfg.StoreSize <= 0 {
		return nil, fmt.Errorf("imx6: StoreSize must be positive, got %d", cfg.StoreSize)
	}
	if len(cfg.Key) == 0 {
		return nil, errors.New("imx6: Key is required")
	}
	prio := cfg.PrAttPriority
	if prio == 0 {
		prio = 255
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = DefaultEpoch
	}

	img := sel4.BootImage{Kernel: []byte("seL4"), PrAtt: []byte("PrAtt-ERASMUS")}
	kern, err := sel4.Boot(cfg.Engine, img, img.Digest(), prio)
	if err != nil {
		return nil, err
	}

	d := &Device{
		engine:        cfg.Engine,
		kernel:        kern,
		cpu:           cpu.NewTracker(cfg.Engine),
		mem:           make([]byte, cfg.MemorySize),
		store:         make([]byte, cfg.StoreSize),
		epoch:         epoch,
		writableClock: cfg.WritableClock,
		keyCopy:       make([]byte, len(cfg.Key)),
	}

	prAtt := kern.PrAtt()
	keyRegion, err := kern.CreateRegion(regionKey, len(cfg.Key), prAtt)
	if err != nil {
		return nil, err
	}
	copy(keyRegion.Data, cfg.Key)
	if _, err := kern.CreateRegion(regionRROCHigh, 8, prAtt); err != nil {
		return nil, err
	}
	if _, err := kern.CreateRegion(regionTCB, 64, prAtt); err != nil {
		return nil, err
	}
	d.appProc, err = kern.Spawn(prAtt, "app", prio-100)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Close releases the board. The device schedules no background events
// (the GPT wrap is derived when the clock is read), so there is nothing to
// stop; Close is kept so callers can release any device uniformly.
func (d *Device) Close() {}

// Arch identifies the platform for the cost model.
func (d *Device) Arch() costmodel.Arch { return costmodel.IMX6 }

// Engine returns the simulation engine.
func (d *Device) Engine() *sim.Engine { return d.engine }

// CPU returns the single-core occupancy tracker.
func (d *Device) CPU() *cpu.Tracker { return d.cpu }

// Violations returns the kernel's violation log (capability and boot
// violations land here).
func (d *Device) Violations() *cpu.ViolationLog { return d.kernel.Violations() }

// Kernel exposes the underlying seL4 model for kernel-level tests.
func (d *Device) Kernel() *sel4.Kernel { return d.kernel }

// Memory returns the live attested memory image.
func (d *Device) Memory() []byte { return d.mem }

// WriteMemory writes into the attested image.
func (d *Device) WriteMemory(off int, b []byte) error {
	if off < 0 || off+len(b) > len(d.mem) {
		return fmt.Errorf("imx6: write [%d,%d) outside memory of %d bytes", off, off+len(b), len(d.mem))
	}
	copy(d.mem[off:], b)
	return nil
}

// Store returns the insecure measurement-store region.
func (d *Device) Store() []byte { return d.store }

// gptCycles returns the free-running cycle count since boot.
func (d *Device) gptCycles() uint64 {
	now := uint64(d.engine.Now())
	// cycles = now_ns × 66e6 / 1e9 = now × 33 / 500, computed exactly.
	hi, lo := bits.Mul64(now, 33)
	q, _ := bits.Div64(hi, lo, 500)
	return q
}

func cyclesToTicks(cycles uint64) sim.Ticks {
	hi, lo := bits.Mul64(cycles, 500)
	q, _ := bits.Div64(hi, lo, 33)
	return sim.Ticks(q)
}

// RROC returns the software-constructed clock in nanoseconds since epoch:
// high-order bits counting the GPT's rollovers, low bits read live from
// the GPT. On the board PrAtt's wrap handler maintains the high bits and
// the clock code adds a rollover whose interrupt is still pending; the model
// computes the same count directly from the free-running cycle total, so
// no wrap is ever missed or counted early.
func (d *Device) RROC() uint64 {
	// high×2³² + low is exactly the free-running cycle total.
	ns := cyclesToTicks(d.gptCycles())
	return uint64(int64(d.epoch) + int64(ns) + d.clockOffset)
}

// WriteRROC attempts to set the clock from the normal world. seL4 denies
// it — PrAtt holds the only write capability to the RROC components —
// unless the WritableClock ablation is active.
func (d *Device) WriteRROC(v uint64) error {
	if !d.writableClock {
		_, err := d.kernel.Access(d.appProc, regionRROCHigh, sel4.Write)
		if err == nil {
			err = errors.New("imx6: unexpected write capability on RROC")
		}
		return err
	}
	d.clockOffset = int64(v) - int64(d.RROC()-uint64(d.clockOffset))
	return nil
}

// InAttestation reports whether PrAtt's measurement code is executing.
func (d *Device) InAttestation() bool { return d.inAttestation }

// ErrAtomicity mirrors the MCU model: PrAtt's measurement entry point is
// not re-entrant (and nothing can preempt it at top priority).
var ErrAtomicity = errors.New("imx6: attestation code is not re-entrant")

// Attest executes fn as PrAtt's measurement code with access to K. The
// kernel checks that PrAtt still holds exclusive rights on the key region
// before releasing it.
func (d *Device) Attest(fn func(key []byte)) error {
	if d.inAttestation {
		return d.kernel.Violations().Record(cpu.ViolationAtomicity, ErrAtomicity.Error())
	}
	prAtt := d.kernel.PrAtt()
	region, err := d.kernel.Access(prAtt, regionKey, sel4.Read)
	if err != nil {
		return err
	}
	if !d.kernel.ExclusiveHolder(prAtt, regionKey) {
		return d.kernel.Violations().Record(cpu.ViolationCapability,
			"key region no longer exclusive to PrAtt")
	}
	d.inAttestation = true
	// The copy lives in a per-device buffer, which is safe to reuse
	// because attestation is not re-entrant.
	k := d.keyCopy[:copy(d.keyCopy, region.Data)]
	defer func() {
		clear(k)
		d.inAttestation = false
	}()
	fn(k)
	return nil
}

// KeyUnprivileged models the normal-world app attempting to read K; seL4
// rejects it for lack of a capability.
func (d *Device) KeyUnprivileged() ([]byte, error) {
	if _, err := d.kernel.Access(d.appProc, regionKey, sel4.Read); err != nil {
		return nil, err
	}
	return nil, errors.New("imx6: unexpected read capability on key region")
}

// SetPeriodicTimer programs the EPIT to invoke fn every interval.
func (d *Device) SetPeriodicTimer(interval sim.Ticks, fn func()) (stop func()) {
	return d.engine.Ticker(d.engine.Now()+interval, interval, fn)
}

// SetOneShotTimer programs a single EPIT expiry after delay.
func (d *Device) SetOneShotTimer(delay sim.Ticks, fn func()) *sim.Event {
	return d.engine.After(delay, fn)
}

// Package core implements the paper's primary contribution: ERASMUS
// self-measurement remote attestation.
//
// A prover measures its own memory on a timer-driven schedule, storing
// records
//
//	M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>
//
// in a rolling (circular) buffer held in *insecure* storage. A verifier
// occasionally collects the k most recent records and validates the
// prover's state history. The package provides:
//
//   - measurement records with binary encoding (record.go);
//   - the windowed buffer with the paper's stateless slot arithmetic
//     i = ⌊t/TM⌋ mod n (buffer.go);
//   - regular, irregular (CSPRNG-driven, §3.5) and lenient-window (§5)
//     measurement schedules (schedule.go);
//   - the Prover runtime: timer-driven self-measurement on a device model,
//     plus the ERASMUS, ERASMUS+OD (§3.3) and pure on-demand (SMART+
//     baseline) collection protocols (prover.go, protocol.go);
//   - the Verifier with history validation and Quality-of-Attestation
//     accounting (verifier.go).
package core

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/crypto/mac"
)

// Record is one self-measurement M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>.
type Record struct {
	// T is the RROC timestamp of the measurement, in nanoseconds since
	// the device epoch.
	T uint64
	// Hash is H(mem_t), the digest of the prover's attested memory.
	Hash []byte
	// MAC is MAC_K(t, H(mem_t)).
	MAC []byte
}

// macInput serializes the MAC'd message: big-endian t followed by the hash.
func macInput(t uint64, h []byte) []byte {
	buf := make([]byte, 8+len(h))
	binary.BigEndian.PutUint64(buf, t)
	copy(buf[8:], h)
	return buf
}

// ComputeRecord produces the measurement of memory at time t under key.
// This is what the protected attestation code runs; callers must invoke it
// inside the device's Attest context so K never leaves protected execution.
// Hash and MAC share one allocation; the MAC input is built on the stack.
func ComputeRecord(alg mac.Algorithm, key []byte, t uint64, memory []byte) Record {
	hs := alg.HashSize()
	fields := mac.AppendHashSum(make([]byte, 0, hs+alg.Size()), alg, memory)
	var in [8 + mac.MaxSize]byte
	binary.BigEndian.PutUint64(in[:8], t)
	copy(in[8:], fields)
	fields = mac.AppendSum(fields, alg, key, in[:8+hs])
	return Record{T: t, Hash: fields[:hs:hs], MAC: fields[hs:]}
}

// VerifyMAC checks the record's authenticity under key.
func (r Record) VerifyMAC(alg mac.Algorithm, key []byte) bool {
	return mac.Verify(alg, key, macInput(r.T, r.Hash), r.MAC)
}

// RecordSize returns the fixed encoded size of a record for the algorithm:
// 8-byte timestamp, hash, MAC.
func RecordSize(alg mac.Algorithm) int {
	return 8 + alg.HashSize() + alg.Size()
}

// Encode serializes the record into its fixed-size wire/storage form.
// It panics if the hash or MAC lengths do not match the algorithm (records
// built by ComputeRecord always match).
func (r Record) Encode(alg mac.Algorithm) []byte {
	out := make([]byte, RecordSize(alg))
	r.encodeTo(alg, out)
	return out
}

// encodeTo writes the record's fixed-size form into out, which must hold
// RecordSize(alg) bytes. It panics as Encode does.
func (r Record) encodeTo(alg mac.Algorithm, out []byte) {
	if len(r.Hash) != alg.HashSize() || len(r.MAC) != alg.Size() {
		panic(fmt.Sprintf("core: record field sizes %d/%d do not match %v", len(r.Hash), len(r.MAC), alg))
	}
	binary.BigEndian.PutUint64(out, r.T)
	copy(out[8:], r.Hash)
	copy(out[8+len(r.Hash):], r.MAC)
}

// DecodeRecord parses a fixed-size encoded record. It performs no
// authenticity check — the store is untrusted, so callers must VerifyMAC.
func DecodeRecord(alg mac.Algorithm, b []byte) (Record, error) {
	if len(b) != RecordSize(alg) {
		return Record{}, fmt.Errorf("core: record length %d, want %d for %v", len(b), RecordSize(alg), alg)
	}
	hs := alg.HashSize()
	r := Record{
		T:    binary.BigEndian.Uint64(b),
		Hash: append([]byte(nil), b[8:8+hs]...),
		MAC:  append([]byte(nil), b[8+hs:]...),
	}
	return r, nil
}

// IsZero reports whether the record is all-zero, i.e. read from a buffer
// slot that was never written.
func (r Record) IsZero() bool {
	if r.T != 0 {
		return false
	}
	for _, b := range r.Hash {
		if b != 0 {
			return false
		}
	}
	for _, b := range r.MAC {
		if b != 0 {
			return false
		}
	}
	return true
}

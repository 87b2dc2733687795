// Package blake2s implements the BLAKE2s cryptographic hash and MAC as
// specified in RFC 7693, in pure Go using only the standard library.
//
// BLAKE2s is one of the three MAC choices evaluated in the ERASMUS paper
// (keyed BLAKE2s, alongside HMAC-SHA1 and HMAC-SHA256). The Go standard
// library does not ship BLAKE2s, so this package provides it from scratch.
// It supports arbitrary digest sizes from 1 to 32 bytes and keyed operation
// (keys up to 32 bytes), matching the reference implementation's known
// answer tests.
package blake2s

import (
	"encoding/binary"
	"errors"
	"hash"
)

const (
	// BlockSize is the BLAKE2s block size in bytes.
	BlockSize = 64
	// Size is the default (and maximum) digest size in bytes.
	Size = 32
	// MaxKeySize is the maximum key length in bytes for keyed hashing.
	MaxKeySize = 32
)

// iv is the BLAKE2s initialization vector (identical to SHA-256's H(0)).
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// sigma is the BLAKE2s message schedule: 10 permutations of 0..15.
var sigma = [10][16]byte{
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
	{11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
	{7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
	{9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
	{2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
	{12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
	{13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
	{6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
	{10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
}

// ErrKeyTooLong is returned when the key exceeds MaxKeySize bytes.
var ErrKeyTooLong = errors.New("blake2s: key longer than 32 bytes")

// ErrBadDigestSize is returned for digest sizes outside [1, 32].
var ErrBadDigestSize = errors.New("blake2s: digest size must be in [1, 32]")

type digest struct {
	h      [8]uint32
	t      [2]uint32 // 64-bit byte counter, low then high word
	buf    [BlockSize]byte
	buflen int

	size   int
	keyLen int
	key    [BlockSize]byte // zero-padded key block, retained for Reset
	hKeyed [8]uint32       // chaining state after compressing the key block
}

// New returns a new hash.Hash computing a BLAKE2s digest of the given size.
// If key is non-empty the hash acts as a MAC (keyed BLAKE2s). The key may be
// at most MaxKeySize bytes and the size must be in [1, Size].
func New(size int, key []byte) (hash.Hash, error) {
	if size < 1 || size > Size {
		return nil, ErrBadDigestSize
	}
	if len(key) > MaxKeySize {
		return nil, ErrKeyTooLong
	}
	d := &digest{size: size, keyLen: len(key)}
	copy(d.key[:], key)
	if len(key) > 0 {
		// Compress the key block once, here: every Reset then resumes
		// from this snapshot instead of re-compressing it, which makes a
		// pooled keyed instance (MAC verify hot paths) one compression
		// cheaper per message. The key block is only the *final* block
		// for an empty message — that rare case is detected and
		// recomputed from d.key in Sum.
		kd := digest{size: size, keyLen: len(key)}
		kd.h = iv
		kd.h[0] ^= uint32(size) | uint32(len(key))<<8 | 1<<16 | 1<<24
		kd.increment(BlockSize)
		kd.compress(d.key[:], false)
		d.hKeyed = kd.h
	}
	d.Reset()
	return d, nil
}

// New256 returns a 32-byte-digest BLAKE2s hash. A non-empty key (≤32 bytes)
// turns it into the keyed MAC used by ERASMUS. New256 panics on an oversized
// key; use New for error returns.
func New256(key []byte) hash.Hash {
	d, err := New(Size, key)
	if err != nil {
		panic(err)
	}
	return d
}

// Sum256 returns the unkeyed BLAKE2s-256 digest of data.
func Sum256(data []byte) [Size]byte { return Sum256Keyed(nil, data) }

// Sum256Keyed returns the 32-byte BLAKE2s digest of data, keyed when key
// is non-empty: the one-shot form of New256(key) + Write + Sum. The
// digest state lives on the caller's stack, so a call allocates nothing
// and neither key nor data escapes. It panics on a key longer than
// MaxKeySize, as New256 does.
func Sum256Keyed(key, data []byte) [Size]byte {
	if len(key) > MaxKeySize {
		panic(ErrKeyTooLong)
	}
	var d digest
	d.size = Size
	d.h = iv
	d.h[0] ^= uint32(Size) | uint32(len(key))<<8 | 1<<16 | 1<<24
	if len(key) > 0 {
		// The zero-padded key is the first block. Write compresses it
		// only once more input follows; for an empty message it stays
		// buffered and finish compresses it as the final block.
		copy(d.buf[:], key)
		d.buflen = BlockSize
	}
	d.Write(data)
	var out [Size]byte
	d.finish(&out)
	return out
}

func (d *digest) Reset() {
	d.h = iv
	// Parameter block word 0: digest length, key length, fanout=1, depth=1.
	d.h[0] ^= uint32(d.size) | uint32(d.keyLen)<<8 | 1<<16 | 1<<24
	d.t[0], d.t[1] = 0, 0
	d.buflen = 0
	if d.keyLen > 0 {
		// A keyed hash starts with the zero-padded key as the first
		// block; resume from its pre-compressed chaining state (see New).
		d.h = d.hKeyed
		d.t[0] = BlockSize
	}
}

func (d *digest) Size() int      { return d.size }
func (d *digest) BlockSize() int { return BlockSize }

func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if d.buflen == BlockSize {
			// The buffer only holds a full block when more input follows,
			// so this is never the final block.
			d.increment(BlockSize)
			d.compress(d.buf[:], false)
			d.buflen = 0
		}
		c := copy(d.buf[d.buflen:], p)
		d.buflen += c
		p = p[c:]
	}
	return n, nil
}

func (d *digest) Sum(b []byte) []byte {
	// Finalize a copy so the digest remains usable for further writes.
	c := *d
	if c.keyLen > 0 && c.buflen == 0 && c.t[0] == BlockSize && c.t[1] == 0 {
		// No message bytes were written, so the key block — already
		// compressed non-final by the New/Reset snapshot — is in fact
		// the final block. Rewind and let the normal finalization below
		// compress it with the final flag set.
		c.h = iv
		c.h[0] ^= uint32(c.size) | uint32(c.keyLen)<<8 | 1<<16 | 1<<24
		c.t[0], c.t[1] = 0, 0
		copy(c.buf[:], c.key[:])
		c.buflen = BlockSize
	}
	var out [Size]byte
	c.finish(&out)
	return append(b, out[:c.size]...)
}

// finish compresses the buffered tail as the final block and writes the
// full 32-byte chaining value to out. It consumes d.
func (d *digest) finish(out *[Size]byte) {
	d.increment(uint32(d.buflen))
	for i := d.buflen; i < BlockSize; i++ {
		d.buf[i] = 0
	}
	d.compress(d.buf[:], true)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], d.h[i])
	}
}

// increment adds n to the 64-bit byte counter.
func (d *digest) increment(n uint32) {
	d.t[0] += n
	if d.t[0] < n {
		d.t[1]++
	}
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

// compress applies the BLAKE2s compression function F to one block.
func (d *digest) compress(block []byte, final bool) {
	var m [16]uint32
	for i := range m {
		m[i] = binary.LittleEndian.Uint32(block[4*i:])
	}

	var v [16]uint32
	copy(v[:8], d.h[:])
	copy(v[8:], iv[:])
	v[12] ^= d.t[0]
	v[13] ^= d.t[1]
	if final {
		v[14] ^= 0xffffffff
	}

	g := func(a, b, c, dd int, x, y uint32) {
		v[a] += v[b] + x
		v[dd] = rotr(v[dd]^v[a], 16)
		v[c] += v[dd]
		v[b] = rotr(v[b]^v[c], 12)
		v[a] += v[b] + y
		v[dd] = rotr(v[dd]^v[a], 8)
		v[c] += v[dd]
		v[b] = rotr(v[b]^v[c], 7)
	}

	for r := 0; r < 10; r++ {
		s := &sigma[r]
		g(0, 4, 8, 12, m[s[0]], m[s[1]])
		g(1, 5, 9, 13, m[s[2]], m[s[3]])
		g(2, 6, 10, 14, m[s[4]], m[s[5]])
		g(3, 7, 11, 15, m[s[6]], m[s[7]])
		g(0, 5, 10, 15, m[s[8]], m[s[9]])
		g(1, 6, 11, 12, m[s[10]], m[s[11]])
		g(2, 7, 8, 13, m[s[12]], m[s[13]])
		g(3, 4, 9, 14, m[s[14]], m[s[15]])
	}

	for i := 0; i < 8; i++ {
		d.h[i] ^= v[i] ^ v[i+8]
	}
}

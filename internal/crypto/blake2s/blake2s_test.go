package blake2s

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 7693 Appendix B: BLAKE2s-256("abc").
func TestRFC7693ABC(t *testing.T) {
	got := Sum256([]byte("abc"))
	want := fromHex(t, "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982")
	if !bytes.Equal(got[:], want) {
		t.Fatalf("Sum256(abc) = %x, want %x", got, want)
	}
}

func TestEmptyUnkeyed(t *testing.T) {
	got := Sum256(nil)
	want := fromHex(t, "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9")
	if !bytes.Equal(got[:], want) {
		t.Fatalf("Sum256() = %x, want %x", got, want)
	}
}

// Known-answer tests from the official BLAKE2 reference (blake2s KAT):
// key = 000102...1f (32 bytes), input = 00 01 02 ... (length-prefixed).
func TestKeyedKAT(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	kats := []string{
		"48a8997da407876b3d79c0d92325ad3b89cbb754d86ab71aee047ad345fd2c49", // len 0
		"40d15fee7c328830166ac3f918650f807e7e01e177258cdc0a39b11f598066f1", // len 1
		"6bb71300644cd3991b26ccd4d274acd1adeab8b1d7914546c1198bbe9fc9d803", // len 2
	}
	for n, want := range kats {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i)
		}
		h := New256(key)
		h.Write(in)
		got := h.Sum(nil)
		if hex.EncodeToString(got) != want {
			t.Errorf("keyed KAT len=%d: got %x, want %s", n, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err != ErrBadDigestSize {
		t.Errorf("New(0) err = %v, want ErrBadDigestSize", err)
	}
	if _, err := New(33, nil); err != ErrBadDigestSize {
		t.Errorf("New(33) err = %v, want ErrBadDigestSize", err)
	}
	if _, err := New(32, make([]byte, 33)); err != ErrKeyTooLong {
		t.Errorf("New(key=33B) err = %v, want ErrKeyTooLong", err)
	}
	for size := 1; size <= 32; size++ {
		h, err := New(size, nil)
		if err != nil {
			t.Fatalf("New(%d) err = %v", size, err)
		}
		if h.Size() != size {
			t.Errorf("Size() = %d, want %d", h.Size(), size)
		}
		if got := len(h.Sum(nil)); got != size {
			t.Errorf("len(Sum) = %d, want %d", got, size)
		}
	}
}

func TestNew256PanicsOnLongKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New256 with 33-byte key did not panic")
		}
	}()
	New256(make([]byte, 33))
}

func TestBlockSize(t *testing.T) {
	if got := New256(nil).BlockSize(); got != 64 {
		t.Fatalf("BlockSize() = %d, want 64", got)
	}
}

// Sum must not finalize the running state.
func TestSumDoesNotFinalize(t *testing.T) {
	h := New256([]byte("k"))
	h.Write([]byte("hello "))
	first := h.Sum(nil)
	h.Write([]byte("world"))
	second := h.Sum(nil)

	oneShot := New256([]byte("k"))
	oneShot.Write([]byte("hello world"))
	if !bytes.Equal(second, oneShot.Sum(nil)) {
		t.Fatal("Sum finalized the state: continued hash differs from one-shot")
	}
	if bytes.Equal(first, second) {
		t.Fatal("digest did not change after more input")
	}
}

func TestReset(t *testing.T) {
	h := New256([]byte("key material"))
	h.Write([]byte("some data"))
	a := h.Sum(nil)
	h.Reset()
	h.Write([]byte("some data"))
	b := h.Sum(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("Reset did not restore keyed initial state")
	}
}

// TestResetReuseMatchesFresh drives one keyed instance through Reset the
// way a pooled MAC verifier does, across message lengths straddling every
// block-boundary case including the empty message (where the key block
// itself is the final block — the one case the pre-compressed key-block
// snapshot in New must rewind).
func TestResetReuseMatchesFresh(t *testing.T) {
	key := []byte("pooled-mac-regression-key")
	pooled := New256(key)
	msg := make([]byte, 130)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 130} {
		fresh := New256(key)
		fresh.Write(msg[:n])
		want := fresh.Sum(nil)

		pooled.Reset()
		pooled.Write(msg[:n])
		if got := pooled.Sum(nil); !bytes.Equal(got, want) {
			t.Errorf("len=%d: pooled Reset digest %x, fresh %x", n, got, want)
		}
	}
}

func TestSumAppends(t *testing.T) {
	h := New256(nil)
	h.Write([]byte("x"))
	prefix := []byte{0xde, 0xad}
	out := h.Sum(prefix)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("Sum did not append to prefix")
	}
	if len(out) != 2+32 {
		t.Fatalf("len(Sum(prefix)) = %d, want 34", len(out))
	}
}

// Multi-block inputs exercise the compression loop across block boundaries.
func TestExactBlockBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 128, 129, 1000} {
		in := bytes.Repeat([]byte{0xa5}, n)
		one := Sum256(in)
		h := New256(nil)
		h.Write(in[:n/2])
		h.Write(in[n/2:])
		if !bytes.Equal(one[:], h.Sum(nil)) {
			t.Fatalf("chunked != one-shot at n=%d", n)
		}
	}
}

// Property: arbitrary chunking never changes the digest.
func TestPropertyChunkingInvariance(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		want := Sum256(data)
		h := New256(nil)
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c) % (len(rest) + 1)
			h.Write(rest[:n])
			rest = rest[n:]
		}
		h.Write(rest)
		return bytes.Equal(want[:], h.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct keys give distinct MACs (overwhelmingly), and the same
// key gives identical MACs.
func TestPropertyKeySeparation(t *testing.T) {
	f := func(msg, k1, k2 []byte) bool {
		if len(k1) > 32 {
			k1 = k1[:32]
		}
		if len(k2) > 32 {
			k2 = k2[:32]
		}
		h1 := New256(k1)
		h1.Write(msg)
		h1b := New256(k1)
		h1b.Write(msg)
		if !bytes.Equal(h1.Sum(nil), h1b.Sum(nil)) {
			return false
		}
		if bytes.Equal(k1, k2) {
			return true
		}
		h2 := New256(k2)
		h2.Write(msg)
		return !bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single input bit changes the digest.
func TestPropertyBitFlipAvalanche(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		i := int(pos) % (len(data) * 8)
		orig := Sum256(data)
		mut := append([]byte(nil), data...)
		mut[i/8] ^= 1 << (i % 8)
		flipped := Sum256(mut)
		return !bytes.Equal(orig[:], flipped[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Large input crossing the 32-bit counter's low-word... not feasible at 4GiB
// in a unit test, but verify the counter increments across many blocks by
// hashing ~1MiB and checking determinism and inequality with truncations.
func TestLargeInput(t *testing.T) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 2654435761)
	}
	a := Sum256(data)
	b := Sum256(data)
	if a != b {
		t.Fatal("non-deterministic digest")
	}
	c := Sum256(data[:len(data)-1])
	if a == c {
		t.Fatal("truncated input produced identical digest")
	}
}

func TestDigestSizesDiffer(t *testing.T) {
	// The digest size is bound into the parameter block, so a 16-byte
	// digest is not a prefix of the 32-byte digest.
	h16, _ := New(16, nil)
	h16.Write([]byte("abc"))
	full := Sum256([]byte("abc"))
	if bytes.Equal(h16.Sum(nil), full[:16]) {
		t.Fatal("16-byte digest is a prefix of 32-byte digest; parameter block ignored")
	}
}

// The stack one-shot path must agree with the streaming digest for every
// key length (including unkeyed) and for messages around every block
// boundary, where the keyed-empty-message and full-final-block cases live.
func TestSum256KeyedMatchesStreaming(t *testing.T) {
	msg := make([]byte, 4*BlockSize+1)
	for i := range msg {
		msg[i] = byte(i*7 + 3)
	}
	key := make([]byte, MaxKeySize)
	for i := range key {
		key[i] = byte(0xa0 + i)
	}
	lengths := []int{0, 1, 31, 32, 55, 63, 64, 65, 127, 128, 129, 192, 3*BlockSize + 17, 4 * BlockSize, len(msg)}
	for kl := 0; kl <= MaxKeySize; kl++ {
		for _, ml := range lengths {
			h := New256(key[:kl])
			h.Write(msg[:ml])
			want := h.Sum(nil)
			got := Sum256Keyed(key[:kl], msg[:ml])
			if !bytes.Equal(got[:], want) {
				t.Fatalf("key %d B, message %d B: one-shot %x, streaming %x", kl, ml, got, want)
			}
		}
	}
	if got, want := Sum256([]byte("abc")), Sum256Keyed(nil, []byte("abc")); got != want {
		t.Fatal("Sum256 differs from the unkeyed one-shot")
	}
}

func TestSum256KeyedAllocatesNothing(t *testing.T) {
	key, msg := make([]byte, 16), make([]byte, 300)
	if n := testing.AllocsPerRun(20, func() { Sum256Keyed(key, msg) }); n != 0 {
		t.Fatalf("Sum256Keyed allocates %v times", n)
	}
}

func TestSum256KeyedRejectsLongKey(t *testing.T) {
	defer func() {
		if recover() != ErrKeyTooLong {
			t.Fatal("oversized key did not panic with ErrKeyTooLong")
		}
	}()
	Sum256Keyed(make([]byte, MaxKeySize+1), nil)
}

func BenchmarkSum256_1K(b *testing.B) { benchSize(b, 1024) }
func BenchmarkSum256_8K(b *testing.B) { benchSize(b, 8192) }

func benchSize(b *testing.B, n int) {
	data := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func Example() {
	h := New256([]byte("shared-key"))
	h.Write([]byte("device memory image"))
	fmt.Printf("%x\n", h.Sum(nil)[:8])
	// Output: 2deaa3d670aeb78c
}

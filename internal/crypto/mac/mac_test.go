package mac

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestStringNames(t *testing.T) {
	cases := map[Algorithm]string{
		HMACSHA1:     "HMAC-SHA1",
		HMACSHA256:   "HMAC-SHA256",
		KeyedBLAKE2s: "Keyed BLAKE2S",
		Algorithm(9): "Algorithm(9)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestSizes(t *testing.T) {
	if HMACSHA1.Size() != 20 {
		t.Errorf("HMACSHA1.Size() = %d, want 20", HMACSHA1.Size())
	}
	if HMACSHA256.Size() != 32 {
		t.Errorf("HMACSHA256.Size() = %d", HMACSHA256.Size())
	}
	if KeyedBLAKE2s.Size() != 32 {
		t.Errorf("KeyedBLAKE2s.Size() = %d", KeyedBLAKE2s.Size())
	}
	if HMACSHA1.HashSize() != 20 || HMACSHA256.HashSize() != 32 || KeyedBLAKE2s.HashSize() != 32 {
		t.Error("HashSize mismatch")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	aliases := map[string]Algorithm{
		"sha1": HMACSHA1, "sha256": HMACSHA256, "blake2s": KeyedBLAKE2s,
		"hmac-sha1": HMACSHA1, "hmac-sha256": HMACSHA256, "keyed-blake2s": KeyedBLAKE2s,
	}
	for name, want := range aliases {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("md5"); err == nil {
		t.Error("ParseAlgorithm(md5) succeeded; want error")
	}
}

func TestValid(t *testing.T) {
	for _, a := range Algorithms() {
		if !a.Valid() {
			t.Errorf("%v.Valid() = false", a)
		}
	}
	if Algorithm(42).Valid() {
		t.Error("Algorithm(42).Valid() = true")
	}
	if Algorithm(0).Valid() {
		t.Error("zero Algorithm must be invalid so configs can default it")
	}
}

// HMAC-SHA256 RFC 4231 test case 2.
func TestHMACSHA256RFC4231(t *testing.T) {
	key := []byte("Jefe")
	msg := []byte("what do ya want for nothing?")
	want, _ := hex.DecodeString("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
	//erasmus:allow(ctcompare) golden-vector assertion; operands are public test vectors, no timing oracle
	if got := Sum(HMACSHA256, key, msg); !bytes.Equal(got, want) {
		t.Fatalf("HMAC-SHA256 = %x, want %x", got, want)
	}
}

// HMAC-SHA1 RFC 2202 test case 2.
func TestHMACSHA1RFC2202(t *testing.T) {
	key := []byte("Jefe")
	msg := []byte("what do ya want for nothing?")
	want, _ := hex.DecodeString("effcdf6ae5eb2fa2d27416d5f184df9c259a7c79")
	//erasmus:allow(ctcompare) golden-vector assertion; operands are public test vectors, no timing oracle
	if got := Sum(HMACSHA1, key, msg); !bytes.Equal(got, want) {
		t.Fatalf("HMAC-SHA1 = %x, want %x", got, want)
	}
}

func TestSumMatchesNew(t *testing.T) {
	key := []byte("0123456789abcdef")
	msg := []byte("prover memory contents")
	for _, a := range Algorithms() {
		h := New(a, key)
		h.Write(msg)
		//erasmus:allow(ctcompare) determinism assertion on test-generated MACs; no prover-supplied operand, no timing oracle
		if !bytes.Equal(h.Sum(nil), Sum(a, key, msg)) {
			t.Errorf("%v: New+Write+Sum != Sum", a)
		}
	}
}

func TestVerify(t *testing.T) {
	key := []byte("k")
	msg := []byte("m")
	for _, a := range Algorithms() {
		tag := Sum(a, key, msg)
		if !Verify(a, key, msg, tag) {
			t.Errorf("%v: Verify rejected valid tag", a)
		}
		bad := append([]byte(nil), tag...)
		bad[0] ^= 1
		if Verify(a, key, msg, bad) {
			t.Errorf("%v: Verify accepted corrupted tag", a)
		}
		if Verify(a, key, msg, tag[:len(tag)-1]) {
			t.Errorf("%v: Verify accepted truncated tag", a)
		}
		if Verify(a, []byte("other"), msg, tag) {
			t.Errorf("%v: Verify accepted tag under wrong key", a)
		}
	}
}

func TestBLAKE2sLongKeyFolding(t *testing.T) {
	long := bytes.Repeat([]byte{7}, 48) // > 32 bytes
	msg := []byte("m")
	tag := Sum(KeyedBLAKE2s, long, msg)
	if !Verify(KeyedBLAKE2s, long, msg, tag) {
		t.Fatal("long-key BLAKE2s round trip failed")
	}
	// Folding must not equal the truncated-key MAC.
	//erasmus:allow(ctcompare) algorithm-separation assertion on test-generated MACs; no prover-supplied operand, no timing oracle
	if bytes.Equal(tag, Sum(KeyedBLAKE2s, long[:32], msg)) {
		t.Fatal("long key was silently truncated")
	}
}

func TestHashSum(t *testing.T) {
	data := []byte("memory page")
	want := sha256.Sum256(data)
	if got := HashSum(HMACSHA256, data); !bytes.Equal(got, want[:]) {
		t.Fatalf("HashSum(SHA256) = %x, want %x", got, want)
	}
	for _, a := range Algorithms() {
		if len(HashSum(a, data)) != a.HashSize() {
			t.Errorf("%v: HashSum length mismatch", a)
		}
	}
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(Algorithm(42), nil) },
		func() { Hash(Algorithm(42)) },
		func() { Algorithm(42).Size() },
		func() { Algorithm(42).HashSize() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unknown algorithm did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: Verify(Sum) holds and any bit flip in the message is rejected.
func TestPropertyVerifyRoundTrip(t *testing.T) {
	f := func(key, msg []byte, flip uint16) bool {
		for _, a := range Algorithms() {
			tag := Sum(a, key, msg)
			if !Verify(a, key, msg, tag) {
				return false
			}
			if len(msg) > 0 {
				i := int(flip) % (len(msg) * 8)
				mut := append([]byte(nil), msg...)
				mut[i/8] ^= 1 << (i % 8)
				if Verify(a, key, mut, tag) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check our registry against direct stdlib construction.
func TestPropertyHMACSHA256MatchesStdlib(t *testing.T) {
	f := func(key, msg []byte) bool {
		h := hmac.New(sha256.New, key)
		h.Write(msg)
		//erasmus:allow(ctcompare) truncation assertion on test-generated MACs; no prover-supplied operand, no timing oracle
		return bytes.Equal(h.Sum(nil), Sum(HMACSHA256, key, msg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The append forms agree with the streaming instances for every
// algorithm, key lengths from 1 to beyond the BLAKE2s fold threshold, and
// messages of several blocks.
func TestAppendFormsMatchStreaming(t *testing.T) {
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i)
	}
	key := make([]byte, 40)
	for i := range key {
		key[i] = byte(0x55 ^ i)
	}
	prefix := []byte("prefix")
	for _, a := range Algorithms() {
		for _, kl := range []int{1, 16, 31, 32, 33, 40} {
			for _, ml := range []int{0, 1, 8 + 32, 64, 65, 200} {
				h := New(a, key[:kl])
				h.Write(msg[:ml])
				want := h.Sum(nil)
				got := AppendSum(append([]byte(nil), prefix...), a, key[:kl], msg[:ml])
				if !ConstantTimeEqual(got[:len(prefix)], prefix) || !ConstantTimeEqual(got[len(prefix):], want) {
					t.Fatalf("%v key %d B message %d B: AppendSum mismatch", a, kl, ml)
				}
				if !ConstantTimeEqual(Sum(a, key[:kl], msg[:ml]), want) {
					t.Fatalf("%v key %d B message %d B: Sum mismatch", a, kl, ml)
				}
			}
		}
		for _, ml := range []int{0, 1, 64, 200} {
			h := Hash(a)
			h.Write(msg[:ml])
			if got := AppendHashSum(nil, a, msg[:ml]); !ConstantTimeEqual(got, h.Sum(nil)) {
				t.Fatalf("%v message %d B: AppendHashSum mismatch", a, ml)
			}
		}
	}
}

// Keyed BLAKE2s, the deployment MAC, runs on the stack: appending to a
// buffer with room and verifying a tag allocate nothing.
func TestBLAKE2sAppendFormsAllocateNothing(t *testing.T) {
	key, msg := make([]byte, 32), make([]byte, 40)
	dst := make([]byte, 0, 64)
	tag := Sum(KeyedBLAKE2s, key, msg)
	cases := []struct {
		name string
		f    func()
	}{
		{"AppendSum", func() { AppendSum(dst[:0], KeyedBLAKE2s, key, msg) }},
		{"AppendHashSum", func() { AppendHashSum(dst[:0], KeyedBLAKE2s, msg) }},
		{"Verify", func() { Verify(KeyedBLAKE2s, key, msg, tag) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(20, c.f); n != 0 {
			t.Errorf("%s allocates %v times", c.name, n)
		}
	}
}

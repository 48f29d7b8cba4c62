package snap

// Error-path hardening: a damaged snapshot file must fail Decode with a
// distinct, descriptive error — and must never hand back a partially
// valid State.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"stacktrack/internal/sched"
)

func sample(t testing.TB) []byte {
	t.Helper()
	st := &State{
		Sched: &sched.State{
			Decisions: 42,
			JitterS0:  7,
			JitterS1:  9,
		},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := sample(t)
	st, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Decisions() != 42 || st.Sched.JitterS0 != 7 || st.Sched.JitterS1 != 9 {
		t.Fatalf("round trip mangled state: %+v", st.Sched)
	}
}

func TestBadMagic(t *testing.T) {
	b := sample(t)
	b[0] ^= 0xFF
	st, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if st != nil {
		t.Fatal("partial state returned on bad magic")
	}
}

func TestVersionSkew(t *testing.T) {
	b := sample(t)
	// Version lives right after the magic, big-endian.
	b[len(Magic)+3]++
	st, err := Decode(bytes.NewReader(b))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if st != nil {
		t.Fatal("partial state returned on version skew")
	}
}

func TestTruncated(t *testing.T) {
	b := sample(t)
	// Every possible truncation point: header, payload, and checksum.
	for cut := 0; cut < len(b); cut++ {
		st, err := Decode(bytes.NewReader(b[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: want ErrTruncated, got %v", cut, len(b), err)
		}
		if st != nil {
			t.Fatalf("cut at %d: partial state returned", cut)
		}
	}
}

func TestBitFlip(t *testing.T) {
	b := sample(t)
	// Flip one bit in every payload byte (between the header and the
	// trailing checksum); each must be caught by the CRC.
	start := len(Magic) + 12
	end := len(b) - 4
	for i := start; i < end; i++ {
		c := append([]byte(nil), b...)
		c[i] ^= 0x10
		st, err := Decode(bytes.NewReader(c))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: want ErrChecksum, got %v", i, err)
		}
		if st != nil {
			t.Fatalf("flip at %d: partial state returned", i)
		}
	}
	// A flipped checksum byte is also a checksum mismatch.
	c := append([]byte(nil), b...)
	c[len(c)-1] ^= 0x01
	if _, err := Decode(bytes.NewReader(c)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped checksum: want ErrChecksum, got %v", err)
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Fatalf("errors %v and %v are not distinct", a, b)
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.stsnap"
	st := &State{Sched: &sched.State{Decisions: 7}}
	if err := WriteFile(path, st); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Decisions() != 7 {
		t.Fatalf("got decisions %d, want 7", got.Decisions())
	}
}

// hugeHeader is a well-formed header declaring a 4 GiB payload, followed
// by nothing.
func hugeHeader() []byte {
	b := []byte(Magic)
	b = binary.BigEndian.AppendUint32(b, Version)
	return binary.BigEndian.AppendUint64(b, 1<<32)
}

// TestHugeDeclaredLengthAllocatesLittle: the payload length comes from an
// untrusted header, so Decode must not allocate it before the bytes
// arrive. An 18-byte file declaring 4 GiB fails as truncated having
// allocated well under 1 MiB.
func TestHugeDeclaredLengthAllocatesLittle(t *testing.T) {
	in := hugeHeader()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := Decode(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) || st != nil {
		t.Fatalf("want ErrTruncated and no state, got %v, %v", st, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decoding an %d-byte input allocated %d bytes", len(in), grew)
	}
}

// FuzzSnapDecode: Decode survives arbitrary input. It either fails with an
// error wrapping one of the four sentinels — or, only when the envelope
// is intact (its CRC matches), with the payload's gob decode error — or
// returns a state that re-encodes to exactly the bytes it consumed.
func FuzzSnapDecode(f *testing.F) {
	f.Add(sample(f))
	f.Add(hugeHeader())
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		st, err := Decode(r)
		if err != nil {
			if st != nil {
				t.Fatal("state returned alongside an error")
			}
			for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			if !intactEnvelope(data) {
				t.Fatalf("error wraps no sentinel on a damaged envelope: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, st); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		consumed := data[:len(data)-r.Len()]
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the %d decoded bytes", len(consumed))
		}
	})
}

// intactEnvelope reports whether data holds a complete snapshot envelope
// (magic, version, payload, CRC) whose checksum matches its payload.
func intactEnvelope(data []byte) bool {
	const hdr = len(Magic) + 12
	if len(data) < hdr || string(data[:len(Magic)]) != Magic {
		return false
	}
	n := binary.BigEndian.Uint64(data[len(Magic)+4 : hdr])
	if n > uint64(len(data)-hdr) || uint64(len(data)-hdr)-n < 4 {
		return false
	}
	payload := data[hdr : hdr+int(n)]
	return crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(data[hdr+int(n):])
}

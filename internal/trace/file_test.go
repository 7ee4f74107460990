package trace

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// hugeCountFile is a 14-byte RIFT file — header of a trace named "x" — whose
// event count reads 2^40 and which holds no event at all.
var hugeCountFile = []byte("RIFT\x02\x00\x01x\x80\x80\x80\x80\x80\x20")

// TestReadFromDoesNotTrustTheEventCount: a header may claim any number of
// events; the reader allocates for the events the stream holds, so a file
// claiming 2^40 of them is a format error, not a fatal out-of-memory.
func TestReadFromDoesNotTrustTheEventCount(t *testing.T) {
	if len(hugeCountFile) != 14 {
		t.Fatalf("fixture is %d bytes", len(hugeCountFile))
	}
	if _, err := ReadFrom(bytes.NewReader(hugeCountFile)); !errors.Is(err, ErrFormat) {
		t.Fatalf("ReadFrom = %v, want ErrFormat", err)
	}
}

// parentGoldenDigest is the digest the parent binary (PR 24) reported for
// testdata/cch_st.rift, which it wrote with `racesim ubench -dump CCh_st
// -scale 0.005`.
const parentGoldenDigest = "b16e2e12d0752eede090d1c2c10a687e8dafd45b008e16dc68966fe9a0662748"

// TestReadWriteReproducesParentFile: a RIFT file written before traces were
// stored as columns reads back to the trace it was, by digest, and writes
// out again byte for byte.
func TestReadWriteReproducesParentFile(t *testing.T) {
	want, err := os.ReadFile("testdata/cch_st.rift")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFrom(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "CCh_st" || tr.Len() != 4052 || tr.WarmData || tr.Digest() != parentGoldenDigest {
		t.Errorf("read %q, %d events, warm %v, digest %s; the parent wrote CCh_st, 4052 events, cold, digest %s",
			tr.Name, tr.Len(), tr.WarmData, tr.Digest(), parentGoldenDigest)
	}
	var got bytes.Buffer
	if _, err := tr.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rewritten file differs from the parent's (%d bytes, want %d)", got.Len(), len(want))
	}
}

// FuzzReadFrom: the parser never panics, fails only with ErrFormat, and
// accepts only streams that are exactly what WriteTo writes for the trace
// it read. Seeds live in testdata/fuzz/FuzzReadFrom: a real trace, the
// 14-byte file and truncations of both.
func FuzzReadFrom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v is not ErrFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %x, which writes back as %x", data, out.Bytes())
		}
		again, err := ReadFrom(&out)
		if err != nil || again.Digest() != tr.Digest() {
			t.Fatalf("the rewritten stream reads back with error %v, digest %s, want %s", err, again.Digest(), tr.Digest())
		}
	})
}

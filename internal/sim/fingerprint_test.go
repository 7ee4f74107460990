package sim

import (
	"crypto/sha256"
	"testing"
)

var (
	sumSink [sha256.Size]byte
	hexSink string
)

// BenchmarkFingerprint is the config half of every simulation-cache key:
// sum is the canonical form, its binary encoding and the SHA-256 over it;
// hex adds the 64-character string Fingerprint returns, its one
// allocation. Regenerate BENCH_cache.json's rows with:
// go test -run '^$' -bench Fingerprint -benchtime 2s -benchmem ./internal/sim/
func BenchmarkFingerprint(b *testing.B) {
	cfg := PublicA72()
	b.Run("sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sumSink = cfg.fingerprintSum()
		}
	})
	b.Run("hex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hexSink = cfg.Fingerprint()
		}
	})
}

// TestFingerprintAllocations: a fingerprint allocates its returned string
// and nothing else — no encoder state, no buffer, no canonical copy.
func TestFingerprintAllocations(t *testing.T) {
	for _, cfg := range []Config{PublicA53(), PublicA72()} {
		if n := testing.AllocsPerRun(100, func() { sumSink = cfg.fingerprintSum() }); n != 0 {
			t.Errorf("%s: the canonical encoding and hash allocate %.0f objects, want 0", cfg.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { hexSink = cfg.Fingerprint() }); n != 1 {
			t.Errorf("%s: Fingerprint allocates %.0f objects, want 1 (its result)", cfg.Name, n)
		}
	}
}

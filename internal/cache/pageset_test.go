package cache

import "testing"

func TestPageSet(t *testing.T) {
	var s pageSet
	for round := 0; round < 3; round++ {
		s.reset() // rounds after the first run on recycled chunks
		testPageSet(t, &s)
	}
}

func testPageSet(t *testing.T, s *pageSet) {
	// Pages spanning several chunks, including chunk boundaries and page 0.
	pages := []uint64{0, 1, 63, 64, pageSetChunkPages - 1, pageSetChunkPages,
		3 * pageSetChunkPages, 1 << 40}
	for _, p := range pages {
		if s.Contains(p) {
			t.Fatalf("page %d present before Add", p)
		}
	}
	for _, p := range pages {
		s.Add(p)
	}
	for _, p := range pages {
		if !s.Contains(p) {
			t.Fatalf("page %d missing after Add", p)
		}
	}
	// Neighbours of added pages stay absent (bit granularity, and the
	// cached-last-chunk fast path must not leak across chunks).
	for _, p := range []uint64{2, 62, 65, pageSetChunkPages + 1, 2 * pageSetChunkPages, 1<<40 + 1} {
		if s.Contains(p) {
			t.Fatalf("page %d unexpectedly present", p)
		}
	}
	// Re-adding is idempotent.
	s.Add(64)
	if !s.Contains(64) {
		t.Fatal("page 64 lost after re-add")
	}
}

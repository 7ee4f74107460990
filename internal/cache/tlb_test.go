package cache

import (
	"math/rand"
	"testing"
)

// rankTLB is the rank-based LRU the timestamp TLB replaced, kept as the
// reference: every entry carries its recency rank (0 = MRU), a touch ages
// every younger entry, the victim is the first empty slot or else the
// highest rank. Ranks are ints here; the original kept them in uint8, which
// silently wrapped for more than 256 entries.
type rankTLB struct {
	pages []uint64 // biased by one; 0 = empty
	rank  []int
	last  uint64
}

func newRankTLB(entries int) *rankTLB {
	t := &rankTLB{pages: make([]uint64, entries), rank: make([]int, entries)}
	for i := range t.rank {
		t.rank[i] = i
	}
	return t
}

func (t *rankTLB) touch(i int) {
	old := t.rank[i]
	for j := range t.rank {
		if t.rank[j] < old {
			t.rank[j]++
		}
	}
	t.rank[i] = 0
}

// access returns whether page hit and the slot it now occupies (-1 for
// the repeat-access fast path, which does not locate the slot).
func (t *rankTLB) access(page uint64) (hit bool, slot int) {
	page++
	if page == t.last {
		return true, -1
	}
	t.last = page
	for i := range t.pages {
		if t.pages[i] == page {
			t.touch(i)
			return true, i
		}
	}
	victim := 0
	for i := range t.pages {
		if t.pages[i] == 0 {
			victim = i
			break
		}
		if t.rank[i] > t.rank[victim] {
			victim = i
		}
	}
	t.pages[victim] = page
	t.touch(victim)
	return false, victim
}

// TestTLBMatchesRankLRU replays page streams through the timestamp TLB and
// the rank-based reference and requires the same hit/miss sequence and,
// after every access, the same page in every slot (that is, the same
// victim on every miss) — including sizes past 256 entries and a second
// lifetime of the same tlb value after reset to a different size.
func TestTLBMatchesRankLRU(t *testing.T) {
	streams := []struct {
		name string
		gen  func(rng *rand.Rand, entries, i int) uint64
	}{
		{"cyclic just over capacity", func(_ *rand.Rand, entries, i int) uint64 { return uint64(i % (entries + 1)) }},
		{"random over 1.5x capacity", func(rng *rand.Rand, entries, _ int) uint64 { return uint64(rng.Intn(entries*3/2 + 1)) }},
		{"hot set with cold sweeps", func(rng *rand.Rand, entries, i int) uint64 {
			if i%7 == 0 {
				return uint64(1000 + i) // never reused
			}
			return uint64(rng.Intn(entries/2 + 1))
		}},
		{"repeats and page zero", func(rng *rand.Rand, entries, i int) uint64 {
			if i%3 != 0 {
				return uint64(i / 3 % (entries + 2) / 2) // runs of equal pages
			}
			return uint64(rng.Intn(entries + 3))
		}},
	}
	var got tlb // one value recycled across every case, as a pooled hierarchy does
	for _, entries := range []int{1, 2, 16, 48, 64, 257, 300, 512} {
		for _, s := range streams {
			rng := rand.New(rand.NewSource(int64(entries)))
			got.reset(entries)
			want := newRankTLB(entries)
			hits := uint64(0)
			for i := 0; i < 20*entries+200; i++ {
				page := s.gen(rng, entries, i)
				wantHit, slot := want.access(page)
				if gotHit := got.access(page); gotHit != wantHit {
					t.Fatalf("%d entries, %s, access %d (page %d): hit = %v, reference %v", entries, s.name, i, page, gotHit, wantHit)
				}
				if wantHit {
					hits++
				}
				if slot >= 0 && got.pages[slot] != want.pages[slot] {
					t.Fatalf("%d entries, %s, access %d (page %d): slot %d holds page %d, reference %d (different victim)",
						entries, s.name, i, page, slot, got.pages[slot]-1, want.pages[slot]-1)
				}
			}
			for i := 0; i < got.n; i++ {
				if got.pages[i] != want.pages[i] {
					t.Fatalf("%d entries, %s: final slot %d holds %d, reference %d", entries, s.name, i, got.pages[i], want.pages[i])
				}
			}
			if got.hits != hits || got.hits+got.misses != uint64(20*entries+200) {
				t.Fatalf("%d entries, %s: counted %d hits %d misses, reference %d hits of %d", entries, s.name, got.hits, got.misses, hits, 20*entries+200)
			}
		}
	}
}

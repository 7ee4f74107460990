package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"racesim/internal/prefetch"
)

// scanLookup is lookup without the way predictor, the oracle of
// TestWayPredictorMatchesSetScan: the block's set, scanned over its valid
// ways. It changes nothing.
func (l *Level) scanLookup(block uint64) (idx, set int, ok bool) {
	set = l.index(block)
	base := set * l.assoc
	for w := 0; w < int(l.fill[set]); w++ {
		if l.lines[base+w].matches(block) {
			return base + w, set, true
		}
	}
	return -1, set, false
}

// TestWayPredictorMatchesSetScan drives one recycled Level through random
// access streams under every index hash and replacement kind, with and
// without a victim buffer and a prefetcher (whose target checks share the
// predictor), and Resets it between streams to geometries both smaller and
// larger than the last, so that stale lines of an earlier simulation sit in
// the arrays. After every access, lookups of the accessed block, its
// neighbours and random blocks must agree with a full scan of the set, and
// so must lookups of the previous stream's blocks right after a Reset.
func TestWayPredictorMatchesSetScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := new(Level)
	back := &fixedBackend{lat: 40}
	geoms := []struct{ sizeKB, assoc int }{{4, 1}, {32, 4}, {1, 2}, {64, 16}, {8, 8}, {2, 4}, {12, 3}}
	pfs := []prefetch.Kind{prefetch.KindNone, prefetch.KindNextLine, prefetch.KindStride, prefetch.KindGHB}
	check := func(name string, i int, b uint64) {
		t.Helper()
		wi, ws, wok := l.scanLookup(b)
		li, ls, lok := l.lookup(b)
		if li != wi || ls != ws || lok != wok {
			t.Fatalf("%s, access %d: lookup(%#x) = (%d, %d, %v), set scan (%d, %d, %v)", name, i, b, li, ls, lok, wi, ws, wok)
		}
	}
	var prev []uint64 // the blocks the previous stream accessed
	for gi, g := range geoms {
		for _, hash := range HashKinds {
			for _, repl := range ReplKinds {
				if repl == ReplPLRU && g.assoc&(g.assoc-1) != 0 {
					continue
				}
				cfg := l1Config()
				cfg.SizeKB, cfg.Assoc, cfg.Hash, cfg.Repl = g.sizeKB, g.assoc, hash, repl
				cfg.VictimEntries = rng.Intn(3) * 2
				cfg.Prefetch.Kind = pfs[rng.Intn(len(pfs))]
				cfg.Prefetch.OnHit = rng.Intn(2) == 0
				cfg.Prefetch.Degree = 1 + rng.Intn(4)
				name := fmt.Sprintf("%dKB/%d-way/%s/%s/%s", g.sizeKB, g.assoc, hash, repl, cfg.Prefetch.Kind)
				if err := l.Reset(cfg, 1, back); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The previous stream's lines (prefetched ones too, a few
				// blocks ahead) are still in the arrays: none may hit.
				for _, b := range prev {
					for d := uint64(0); d < 6; d++ {
						check(name, -1, b+d)
					}
				}
				prev = prev[:0]
				// A working set of about twice the level's lines, in runs.
				span := uint64(2 * cfg.SizeKB * 1024 / cfg.LineSize)
				block := uint64(rng.Int63n(1 << 20))
				for i := 0; i < 3000; i++ {
					switch rng.Intn(4) {
					case 0:
						block = uint64(rng.Int63n(int64(span))) + uint64(gi)<<24
					case 1:
						block++
					}
					l.BackAccess(uint64(i), 0x400+uint64(rng.Intn(8))*4, block<<l.lineBits, rng.Intn(3) == 0, false)
					prev = append(prev, block)
					for _, b := range []uint64{block, block + 1, block - 1, uint64(rng.Int63n(int64(span))) + uint64(gi)<<24, uint64(rng.Int63n(1 << 40))} {
						check(name, i, b)
					}
				}
			}
		}
	}
}

// rankVictims is the rank-based victim buffer the insertion stamps
// replaced, kept as the reference: every entry carries its recency rank
// (0 = newest, initially its index), an insert ages every newer entry, and
// the entry replaced is the first invalid one or else the highest rank.
type rankVictims struct {
	lines []line
	rank  []int
}

func newRankVictims(n int) *rankVictims {
	v := &rankVictims{lines: make([]line, n), rank: make([]int, n)}
	for i := range v.rank {
		v.rank[i] = i
	}
	return v
}

func (v *rankVictims) lookup(block uint64) (line, bool) {
	for i := range v.lines {
		if v.lines[i].matches(block) {
			ln := v.lines[i]
			v.lines[i] &^= lineValid
			return ln, true
		}
	}
	return 0, false
}

func (v *rankVictims) insert(ln line) {
	if len(v.lines) == 0 || !ln.valid() {
		return
	}
	oldest := 0
	for i := range v.lines {
		if !v.lines[i].valid() {
			oldest = i
			break
		}
		if v.rank[i] > v.rank[oldest] {
			oldest = i
		}
	}
	v.lines[oldest] = ln
	old := v.rank[oldest]
	for i := range v.rank {
		if v.rank[i] < old {
			v.rank[i]++
		}
	}
	v.rank[oldest] = 0
}

// TestVictimBufferMatchesRankLRU feeds the stamped victim buffer of one
// recycled Level and the rank-based reference the same inserts (some of
// them invalid lines, which both ignore) and lookups (a hit removes the
// entry), and requires the same answer to every lookup and the same
// contents after every operation: the same entry evicted on every insert.
// The Level is Reset between sizes, so stamps of an earlier life linger.
func TestVictimBufferMatchesRankLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := new(Level)
	for _, n := range []int{1, 2, 4, 8, 3, 16, 2, 8} {
		cfg := l1Config()
		cfg.VictimEntries = n
		if err := l.Reset(cfg, 1, &fixedBackend{}); err != nil {
			t.Fatal(err)
		}
		want := newRankVictims(n)
		blocks := uint64(n + 1 + rng.Intn(2*n+1))
		for i := 0; i < 4000; i++ {
			block := uint64(rng.Int63n(int64(blocks)))
			if rng.Intn(3) == 0 {
				got, gotOK := l.victimLookup(block)
				wantLn, wantOK := want.lookup(block)
				if got != wantLn || gotOK != wantOK {
					t.Fatalf("%d entries, op %d: lookup(%d) = (%#x, %v), reference (%#x, %v)", n, i, block, got, gotOK, wantLn, wantOK)
				}
			} else {
				ln := newLine(block, rng.Intn(2) == 0, false)
				if rng.Intn(10) == 0 {
					ln &^= lineValid
				}
				l.victimInsert(ln)
				want.insert(ln)
			}
			for j := range want.lines {
				if l.victim[j] != want.lines[j] {
					t.Fatalf("%d entries, op %d: entry %d holds %#x, reference %#x", n, i, j, l.victim[j], want.lines[j])
				}
			}
		}
	}
}

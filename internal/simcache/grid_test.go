package simcache

import (
	"context"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/sim"
	"racesim/internal/trace"
)

// TestGridKeyMatchesJoinKey: the key the hit pass builds for a pair, and
// its index hash, are JoinKey's key packed and hashed, over real traces and
// random digests; a pair whose trace digest cannot be a key's half is left
// unkeyed, to be simulated uncached.
func TestGridKeyMatchesJoinKey(t *testing.T) {
	cfgs, trs := batchConfigs(), batchTraces(t)
	for _, cfg := range cfgs {
		if sum := cfg.FingerprintSum(); hex.EncodeToString(sum[:]) != cfg.Fingerprint() {
			t.Fatal("Fingerprint does not spell FingerprintSum")
		}
	}
	rng := rand.New(rand.NewSource(45))
	for n := 0; n < 500; n++ {
		var dig [32]byte
		rng.Read(dig[:])
		trs = append(trs, trace.Deferred("random", trace.Identity{Digest: hex.EncodeToString(dig[:])}, nil))
	}
	good := strings.Repeat("0a", 32)
	bad := []string{"", good[:62], good + "00", strings.ToUpper(good), good[:63] + "g"}
	for _, d := range bad {
		trs = append(trs, trace.Deferred("bad", trace.Identity{Digest: d}, nil))
	}
	pending := New().answerHits(cfgs, trs, make([]core.Result, len(cfgs)*len(trs)))
	if len(pending) != len(cfgs)*len(trs) {
		t.Fatalf("an empty cache answered %d of %d pairs", len(cfgs)*len(trs)-len(pending), len(cfgs)*len(trs))
	}
	for n, p := range pending {
		j := p.pair % len(trs)
		key := Key(cfgs[p.pair/len(trs)], trs[j])
		var k [keySize]byte
		switch {
		case p.pair != n:
			t.Fatalf("pending pair %d is pair %d", n, p.pair)
		case p.keyed != (j < len(trs)-len(bad)) || p.keyed != packKey(key, &k):
			t.Fatalf("%s: keyed %v", key, p.keyed)
		case p.keyed && (p.key != k || p.hash != keyHash(&k) || spellKey(p.key[:]) != key):
			t.Fatalf("%s: grid key %x, hash %x", key, p.key, p.hash)
		}
	}
}

// TestUnkeyedTraceTakesTheRunKeyedPath: a deferred trace remembered with
// a digest that is not a key's half has no raw sum (trace.DigestSum), and
// its pair goes the way RunKeyed sends a pair whose key does not pack: it
// is simulated uncached — no counter moves, nothing is stored — and, since
// no generation can match such a digest, fails as RunKeyed's does.
func TestUnkeyedTraceTakesTheRunKeyedPath(t *testing.T) {
	cfgs, src := batchConfigs()[:1], batchTraces(t)[0]
	id := src.Identity()
	id.Digest = strings.ToUpper(id.Digest)
	bad := func() *trace.Trace {
		return trace.Deferred(src.Name, id, func() (*trace.Trace, error) { return src, nil })
	}
	c := New()
	_, want := c.RunKeyed(Key(cfgs[0], bad()), cfgs[0], bad())
	if want == nil {
		t.Fatal("a trace remembered under another digest simulated")
	}
	_, err := c.RunBatch(context.Background(), cfgs, []*trace.Trace{bad()}, 1, nil)
	if err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
		t.Fatalf("RunBatch error %v, want RunKeyed's: %v", err, want)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v, want no counter moved and nothing stored", st)
	}
}

// hitPassFixture is a cache over a snapshot of real results, prepared so
// that a grid over batchConfigs() x batchTraces() meets every case the hit
// pass distinguishes: pairs on disk, pairs nowhere, disk records that fail
// their checksum, a disk record shadowed by a different result in memory,
// and a pair held in memory alone. Each call attaches a fresh cache to the
// same file.
func hitPassFixture(t *testing.T) func() *Cache {
	t.Helper()
	cfgs, trs := batchConfigs(), batchTraces(t)
	key := func(i, j int) string { return Key(cfgs[i], trs[j]) }
	seed := New()
	for _, p := range [][2]int{{0, 0}, {0, 1}, {2, 0}, {2, 2}, {1, 1}, {3, 0}} {
		if _, err := seed.Run(cfgs[p[0]], trs[p[1]]); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/grid.snap"
	if err := seed.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	flipResultByte(t, path, key(0, 1))
	flipResultByte(t, path, key(2, 2))
	shadow, _ := seed.Peek(key(2, 0))
	shadow.Cycles++
	var memOnly core.Result
	memOnly.Cycles, memOnly.Instructions = 12345, 678
	return func() *Cache {
		c := New()
		if _, _, err := c.LoadChecked(path); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.Store(key(2, 0), shadow)
		c.Store(key(1, 2), memOnly)
		return c
	}
}

// TestRunBatchHitPassMatchesRunKeyed: a grid with duplicate rows and
// columns over hitPassFixture returns, at parallelism 1 and 2, exactly what
// resolving each pair through RunKeyed in caller order returns, and leaves
// the same counters: every corrupt record counted rejected once, simulated
// once and shadowed by its result.
func TestRunBatchHitPassMatchesRunKeyed(t *testing.T) {
	base, baseTrs := batchConfigs(), batchTraces(t)
	cfgs := []sim.Config{base[0], base[2], base[0], base[1], base[3]}
	trs := []*trace.Trace{baseTrs[0], baseTrs[1], baseTrs[2], baseTrs[1]}
	fresh := hitPassFixture(t)

	ref := fresh()
	var want []core.Result
	for _, cfg := range cfgs {
		for _, tr := range trs {
			res, err := ref.RunKeyed(Key(cfg, tr), cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}
	wantSt := ref.Stats()
	if wantSt.Rejected != 2 || wantSt.Misses != 7 || wantSt.Shared != 0 {
		t.Fatalf("reference stats = %+v, want 2 rejected and 7 simulated (5 absent pairs, 2 corrupt)", wantSt)
	}

	for _, parallelism := range []int{1, 2} {
		c := fresh()
		// Storage handed back dirty: every slot is overwritten.
		dirty := make([]core.Result, len(want)+3)
		for k := range dirty {
			dirty[k].Cycles, dirty[k].Mem.L2.Misses = ^uint64(0), 7
		}
		got, err := c.RunBatch(context.Background(), cfgs, trs, parallelism, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &dirty[0] {
			t.Error("RunBatch did not decode into the storage it was handed")
		}
		sameResults(t, "hit pass", got, want)
		st := c.Stats()
		if parallelism == 1 && st != wantSt {
			t.Errorf("parallelism 1: stats = %+v, want %+v", st, wantSt)
		}
		// Wider, a duplicate pending pair may wait on its twin's simulation
		// instead of finding its result stored.
		st.Hits, st.Shared = st.Hits+st.Shared, 0
		wantSt.Hits, wantSt.Shared = wantSt.Hits+wantSt.Shared, 0
		if st != wantSt {
			t.Errorf("parallelism %d: stats = %+v, want %+v", parallelism, st, wantSt)
		}
		for _, p := range [][2]int{{0, 1}, {1, 2}} { // the corrupt records, (base[0], MC) and (base[2], CS1)
			k := Key(cfgs[p[0]], trs[p[1]])
			if res, ok := c.Peek(k); !ok || res != want[p[0]*len(trs)+p[1]] {
				t.Errorf("parallelism %d: the corrupt record of pair %v is not shadowed by its simulated result", parallelism, p)
			}
		}
	}
}

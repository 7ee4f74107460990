package simcache

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
)

// indexOf is a sorted index over hashes, each entry's offset its position
// among equal hashes' insertion order (sortIndex's tie-break).
func indexOf(hashes []uint64) []idxEntry {
	index := make([]idxEntry, len(hashes))
	for i, h := range hashes {
		index[i] = idxEntry{hash: h, off: uint64(i)}
	}
	sortIndex(index)
	return index
}

// checkLowerBound compares lowerBound with a binary search from scratch
// for every hash in index, its neighbours, the ends of the hash space and
// random probes.
func checkLowerBound(t *testing.T, name string, index []idxEntry, rng *rand.Rand) {
	t.Helper()
	probes := []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, e := range index {
		probes = append(probes, e.hash-1, e.hash, e.hash+1)
	}
	for range 1000 {
		probes = append(probes, rng.Uint64())
	}
	for _, h := range probes {
		want := sort.Search(len(index), func(i int) bool { return index[i].hash >= h })
		if got := lowerBound(index, h); got != want {
			t.Fatalf("%s (%d entries): lowerBound(%#x) = %d, want %d", name, len(index), h, got, want)
		}
	}
}

// TestLowerBoundMatchesBinarySearch: the rank-predicted search answers
// what a binary search answers on every sorted index, not only on the
// uniform hashes it is fast for — empty and one-entry indexes, hashes
// bunched in a few narrow bands or at either end of the hash space, all
// equal, and many duplicates.
func TestLowerBoundMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	random := func(n int, draw func() uint64) []uint64 {
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = draw()
		}
		return hs
	}
	centers := random(5, rng.Uint64)
	few := random(20, rng.Uint64)
	cases := []struct {
		name   string
		hashes []uint64
	}{
		{"empty", nil},
		{"one", []uint64{rng.Uint64()}},
		{"one zero", []uint64{0}},
		{"one max", []uint64{math.MaxUint64}},
		{"uniform", random(5000, rng.Uint64)},
		{"clustered", random(5000, func() uint64 { return centers[rng.Intn(len(centers))] + uint64(rng.Intn(1<<16)) })},
		{"low end", random(3000, func() uint64 { return uint64(rng.Intn(1000)) })},
		{"high end", random(3000, func() uint64 { return math.MaxUint64 - uint64(rng.Intn(1000)) })},
		{"all equal", slices.Repeat([]uint64{rng.Uint64()}, 700)},
		{"duplicates", random(4000, func() uint64 { return few[rng.Intn(len(few))] })},
	}
	for _, c := range cases {
		checkLowerBound(t, c.name, indexOf(c.hashes), rng)
	}
}

// TestSalvagedIndexFindsEveryRecord: an index rebuilt by a record scan
// (its tail torn off) is searched like a written one — every intact record
// is found, its result decodes, and lowerBound agrees with a binary search
// over it.
func TestSalvagedIndexFindsEveryRecord(t *testing.T) {
	const n = 400
	path := buildFixture(t, n)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-footerSize-7], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Salvaged() || m.Count() != n {
		t.Fatalf("salvaged %v, %d records; want a salvaged index of %d", m.Salvaged(), m.Count(), n)
	}
	checkLowerBound(t, "salvaged", m.index, rand.New(rand.NewSource(61)))
	for i := range n {
		res, err := m.Get(fixtureKey(i))
		if err != nil || res != fixtureResult(i) {
			t.Fatalf("record %d: %+v, %v", i, res, err)
		}
	}
}

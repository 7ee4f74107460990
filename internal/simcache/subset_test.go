package simcache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// keyHashesOf is KeyHashes computed the slow way: every key spelled,
// packed and hashed.
func keyHashesOf(t *testing.T, c *Cache) []uint64 {
	var out []uint64
	for _, k := range c.Keys() {
		out = append(out, keyHash(pack(t, k)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// twoTierCache is a cache over a 30-record random snapshot whose memory
// tier holds 5 results of its own and one over a disk record.
func twoTierCache(t *testing.T, rng *rand.Rand) *Cache {
	t.Helper()
	path, keys := randomFile(t, rng, 30)
	c := attach(t, path)
	for i := 0; i < 5; i++ {
		c.Store(randomKey(rng), randomResult(rng))
	}
	c.Store(keys[7], randomResult(rng))
	return c
}

// TestKeyHashesListsBothTiers: KeyHashes is the hash of every key the
// cache serves, from memory and disk alike, ascending, once each; Missing
// names by position exactly the offered hashes outside it.
func TestKeyHashesListsBothTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c := twoTierCache(t, rng)
	got := c.KeyHashes()
	if want := keyHashesOf(t, c); !slices.Equal(got, want) {
		t.Fatalf("KeyHashes lists %d hashes, want the %d of Keys", len(got), len(want))
	}
	if len(got) != 35 {
		t.Errorf("KeyHashes lists %d hashes, want 35", len(got))
	}
	if miss := c.Missing(got); len(miss) != 0 {
		t.Errorf("the cache lacks %v of its own key hashes", miss)
	}

	other := twoTierCache(t, rng)
	offered := slices.Sorted(slices.Values(append(other.KeyHashes(), got[3], got[20])))
	var want []int
	for i, h := range offered {
		if h != got[3] && h != got[20] {
			want = append(want, i)
		}
	}
	if miss := c.Missing(offered); !slices.Equal(miss, want) {
		t.Errorf("Missing = %v, want %v", miss, want)
	}
	if miss := New().Missing(got); len(miss) != len(got) {
		t.Errorf("an empty cache lacks %d of %d hashes", len(miss), len(got))
	}
	if miss := c.Missing(nil); miss == nil || len(miss) != 0 {
		t.Errorf("Missing(nil) = %#v, want an empty list", miss)
	}
}

// TestWriteSubsetToWritesThoseRecords: the subset snapshot holds exactly
// the records whose key hashes were asked for, from either tier, as
// WriteBinaryTo writes them; a corrupt disk record in the subset is
// dropped and counted, and one outside it is never read.
func TestWriteSubsetToWritesThoseRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	path, keys := randomFile(t, rng, 30)
	flipResultByte(t, path, keys[4])
	flipResultByte(t, path, keys[5])
	c := attach(t, path)
	for i := 0; i < 5; i++ {
		c.Store(randomKey(rng), randomResult(rng))
	}
	c.Store(keys[7], randomResult(rng))

	var subset []uint64
	for i, h := range c.KeyHashes() {
		if i%3 == 0 && h != keyHash(pack(t, keys[5])) || h == keyHash(pack(t, keys[4])) {
			subset = append(subset, h)
		}
	}
	var out bytes.Buffer
	if err := c.WriteSubsetTo(&out, subset); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Errorf("the subset write counted %d records rejected, want the one corrupt record it holds", st.Rejected)
	}
	got := New()
	if _, _, err := got.LoadStream(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range c.Keys() {
		if _, ok := slices.BinarySearch(subset, keyHash(pack(t, k))); ok && k != keys[4] {
			want = append(want, k)
		}
	}
	if !slices.Equal(got.Keys(), want) {
		t.Fatalf("the subset holds keys %q, want %q", got.Keys(), want)
	}
	for _, k := range want {
		r1, ok1 := c.Peek(k)
		r2, ok2 := got.Peek(k)
		if !ok1 || !ok2 || r1 != r2 {
			t.Errorf("key %q: subset gives %+v, the cache %+v", k, r2, r1)
		}
	}

	var none bytes.Buffer
	if err := c.WriteSubsetTo(&none, nil); err != nil {
		t.Fatal(err)
	}
	if added, _, err := New().LoadStream(bytes.NewReader(none.Bytes())); err != nil || added != 0 {
		t.Errorf("the empty subset loads %d records (%v), want none", added, err)
	}
}

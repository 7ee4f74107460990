package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"racesim/internal/core"
	"racesim/internal/simcache"
)

// cacheServer is a server whose shared cache holds n fabricated results.
func cacheServer(t *testing.T, n int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		srv.Cache().Store(strings.Repeat(string(rune('a'+i)), 64)+":"+strings.Repeat("0", 64), core.Result{Cycles: uint64(i + 1)})
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	return srv, ts
}

// deltaEntries is how many records GET /v1/cache/snapshot?delta=1 serves.
func deltaEntries(t *testing.T, c *Client) int {
	t.Helper()
	data, err := c.ExportSnapshot(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	got := simcache.New()
	if _, _, err := got.LoadBytes(data); err != nil {
		t.Fatal(err)
	}
	return got.Stats().Entries
}

// TestCacheMissingAnswersPositions: POST /v1/cache/missing names, by
// position, the offered key hashes the cache cannot serve, and moves the
// delta baseline: what was stored before the question is no longer delta.
func TestCacheMissingAnswersPositions(t *testing.T) {
	srv, ts := cacheServer(t, 3)
	held := srv.Cache().KeyHashes()
	offered := slices.Sorted(slices.Values(append([]uint64{1, held[1] + 1, ^uint64(0)}, held...)))
	var want []int
	for i, h := range offered {
		if !slices.Contains(held, h) {
			want = append(want, i)
		}
	}
	c := NewClient(ts.URL)
	if n := deltaEntries(t, c); n != 3 {
		t.Fatalf("delta before the question holds %d records, want 3", n)
	}
	got, err := c.MissingKeys(context.Background(), offered)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("missing positions %v, want %v", got, want)
	}
	if n := deltaEntries(t, c); n != 0 {
		t.Errorf("delta after the question holds %d records, want 0", n)
	}
	if got, err := c.MissingKeys(context.Background(), nil); err != nil || len(got) != 0 {
		t.Errorf("no hashes offered: missing %v (%v), want none", got, err)
	}
}

// TestCacheMissingRejectsMalformedBodies: a body that is not whole 8-byte
// hashes, or whose hashes do not ascend, answers 400 and leaves the delta
// baseline where it was.
func TestCacheMissingRejectsMalformedBodies(t *testing.T) {
	_, ts := cacheServer(t, 2)
	hashes := func(hs ...uint64) []byte {
		b := make([]byte, 8*len(hs))
		for i, h := range hs {
			binary.LittleEndian.PutUint64(b[8*i:], h)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"7 bytes":        hashes(5)[:7],
		"12 bytes":       append(hashes(5), 1, 2, 3, 4),
		"descending":     hashes(9, 5),
		"repeated":       hashes(5, 5),
		"unsorted tail":  hashes(1, 2, 3, 0),
		"one short byte": []byte{1},
	} {
		resp, err := http.Post(ts.URL+"/v1/cache/missing", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400", name, resp.StatusCode)
		}
	}
	if n := deltaEntries(t, NewClient(ts.URL)); n != 2 {
		t.Errorf("delta after rejected questions holds %d records, want the 2 stored", n)
	}
}

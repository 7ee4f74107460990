package tracememo_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"racesim/internal/hw"
	"racesim/internal/lmbench"
	"racesim/internal/trace"
	"racesim/internal/tracememo"
	"racesim/internal/ubench"
	"racesim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/generator_digests.golden from what the generators produce now")

// recorder is an identity store that remembers nothing and lists what it
// was told: every (memo key, identity) pair a memo generated.
type recorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *recorder) LookupIdentity(string) (trace.Identity, bool) { return trace.Identity{}, false }

func (r *recorder) RecordIdentity(key string, tr *trace.Trace) {
	id := tr.Identity()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = append(r.lines, fmt.Sprintf("%s\t%s\t%d events\twarm=%v\t%s",
		strings.ReplaceAll(key, "\x00", " "), tr.Name, id.Len, id.WarmData, id.Digest))
}

// TestGeneratorDigestsGolden pins what every generator produces — the raw
// and the initialized micro-benchmark suite, the Table II workloads, the
// six lmbench traces — as memo key, name, length, flag and content digest.
// A trace identity remembered in a snapshot is believed by the build that
// wrote it, and results are keyed by these digests for every build, so a
// change to a generator (or to the emulator under it) must show up here,
// in review, and not as silently colder caches. Regenerate with
// `go test ./internal/tracememo -run GeneratorDigests -update` when the
// change is meant.
func TestGeneratorDigestsGolden(t *testing.T) {
	rec := &recorder{}
	memo := tracememo.New(0, 0).WithIdentities(rec)
	for _, init := range []bool{false, true} {
		for _, b := range ubench.Suite() {
			if _, err := memo.Ubench(b, ubench.Options{Scale: 0.0005, InitArrays: init}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range workload.Profiles() {
		if _, err := memo.Workload(p, workload.Options{Events: 400, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	plat, err := hw.Firefly()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lmbench.Estimate(plat.A53, memo, 1); err != nil {
		t.Fatal(err)
	}
	if want := 2*len(ubench.Suite()) + len(workload.Profiles()) + 6; len(rec.lines) != want {
		t.Fatalf("%d traces generated, want %d", len(rec.lines), want)
	}
	sort.Strings(rec.lines)
	got := strings.Join(rec.lines, "\n") + "\n"

	const path = "testdata/generator_digests.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, line := range strings.Split(got, "\n") {
			if i >= len(wantLines) || line != wantLines[i] {
				t.Fatalf("generated traces differ from %s, first at line %d:\n got %s\nwant %s", path, i+1, line, wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("generated traces differ from %s", path)
	}
}

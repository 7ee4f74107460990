package expt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"racesim/internal/simcache"
	"racesim/internal/validate"
)

// stagesOpts sizes a validation pipeline to well under a second.
func stagesOpts() Options {
	return Options{UbenchScale: 0.001, WorkloadEvents: 2_000, BudgetRound1: 60, BudgetRound2: 60, Cache: simcache.New()}
}

// concurrentStages calls c.Stages(core) from n goroutines at once.
func concurrentStages(c *Context, core string, n int) ([][]validate.StageResult, []error) {
	sts, errs := make([][]validate.StageResult, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sts[i], errs[i] = c.Stages(core)
		}()
	}
	wg.Wait()
	return sts, errs
}

// TestStagesSharedByConcurrentCallers: N experiments asking for one core's
// pipeline at once run it once. They all get the one result, and the
// cache sees exactly the lookups of a single caller's pipeline.
func TestStagesSharedByConcurrentCallers(t *testing.T) {
	single, err := NewContext(stagesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Stages("a53"); err != nil {
		t.Fatal(err)
	}
	c, err := NewContext(stagesOpts())
	if err != nil {
		t.Fatal(err)
	}
	sts, errs := concurrentStages(c, "a53", 8)
	for i := range sts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &sts[i][0] != &sts[0][0] {
			t.Errorf("caller %d got a result of its own", i)
		}
	}
	lookups := func(s simcache.Stats) uint64 { return s.Hits + s.Misses + s.Shared }
	if one, got := lookups(single.opts.Cache.Stats()), lookups(c.opts.Cache.Stats()); got != one {
		t.Errorf("8 concurrent callers made %d cache lookups, one caller %d: the pipeline ran more than once", got, one)
	}
}

// TestFailedStagesNotKept: concurrent callers of a pipeline that fails all
// get its error, and the failure is not kept — the next caller runs the
// pipeline again.
func TestFailedStagesNotKept(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := stagesOpts()
	o.Context = ctx
	c, err := NewContext(o)
	if err != nil {
		t.Fatal(err)
	}
	_, errs := concurrentStages(c, "a53", 4)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller %d: %v, want the cancelled pipeline's error", i, err)
		}
	}
	if _, err := c.Stages("z80"); err == nil {
		t.Error("an unknown core's pipeline succeeded")
	}
	c.mu.Lock()
	kept := len(c.stages)
	c.mu.Unlock()
	if kept != 0 {
		t.Errorf("failed pipelines kept for %d cores", kept)
	}
	// Lift the cancellation: the next caller runs the pipeline and succeeds.
	c.opts.Context = nil
	if _, err := c.Stages("a53"); err != nil {
		t.Errorf("the pipeline after a failed one: %v", err)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"a", "bench"}}
	tb.AddRow("1", "longer-name")
	tb.AddRow("22", "x")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer-name") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("render has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != "#####" {
		t.Errorf("Bar(5,10,10) = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Error("bar must clamp to width")
	}
	if Bar(-1, 10, 10) != "" {
		t.Error("negative values render empty")
	}
	if Bar(1, 0, 10) == strings.Repeat("#", 11) {
		t.Error("zero max must not explode")
	}
}

func TestTables(t *testing.T) {
	ctx, err := NewContext(Options{UbenchScale: 0.001, WorkloadEvents: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(t1.Body, "\n")) < 42 {
		t.Errorf("table1 too short:\n%s", t1.Body)
	}
	for _, name := range []string{"MC", "CS3", "STc", "ED1"} {
		if !strings.Contains(t1.Body, name) {
			t.Errorf("table1 missing %s", name)
		}
	}
	t2, err := ctx.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcf", "povray", "xz", "psimplex.c"} {
		if !strings.Contains(t2.Body, name) {
			t.Errorf("table2 missing %s", name)
		}
	}
	if got := t2.Render(); !strings.Contains(got, "## table2") {
		t.Errorf("experiment render missing header:\n%s", got)
	}
}

// TestPerturbRowsAreSpec: every row of Figs. 7 and 8 — the perturbation
// search's errors on the Table II workloads — carries their category,
// "spec", as the rows of Figs. 5 and 6 do.
func TestPerturbRowsAreSpec(t *testing.T) {
	c, err := NewContext(stagesOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"a53", "a72"} {
		_, res, err := c.worstNearOptimum(core)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) == 0 {
			t.Fatalf("%s: no rows", core)
		}
		for _, row := range res.Errors {
			if row.Category != "spec" {
				t.Errorf("%s: row %s has category %q, want spec", core, row.Name, row.Category)
			}
		}
	}
}

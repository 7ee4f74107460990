package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	for _, parallelism := range []int{1, 2, 8, 100} {
		var ran atomic.Int32
		err := ForEach(50, parallelism, func(i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if got := ran.Load(); got != 50 {
			t.Errorf("parallelism %d: ran %d of 50", parallelism, got)
		}
	}
}

// raise lifts the high-water mark peak to now.
func raise(peak *atomic.Int64, now int64) {
	for {
		p := peak.Load()
		if now <= p || peak.CompareAndSwap(p, now) {
			return
		}
	}
}

// TestForEachBoundsConcurrency: never more than parallelism calls at once,
// whatever the width, and all of it is used when there is work for it.
func TestForEachBoundsConcurrency(t *testing.T) {
	const n = 400
	for _, parallelism := range []int{1, 2, 7, 100} {
		var running, peak atomic.Int64
		err := ForEach(n, parallelism, func(i int) error {
			raise(&peak, int64(running.Add(1)))
			time.Sleep(50 * time.Microsecond) // let the calls overlap
			running.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(peak.Load()); got > parallelism || got < 1 {
			t.Errorf("parallelism %d: %d calls ran at once", parallelism, got)
		}
	}
}

// TestForEachStartsIndicesInAscendingOrder: an index starts only once every
// lower index has been handed out, so at most parallelism-1 of the lower
// ones (those another worker holds and has not entered yet) can be missing
// when it does. The lowest-indexed-error rule stands on this.
func TestForEachStartsIndicesInAscendingOrder(t *testing.T) {
	const n = 300
	for _, parallelism := range []int{1, 2, 7, 100} {
		started := make([]atomic.Bool, n)
		var early atomic.Int32
		err := ForEach(n, parallelism, func(i int) error {
			started[i].Store(true)
			below := 0
			for j := 0; j < i; j++ {
				if started[j].Load() {
					below++
				}
			}
			if below < i-(parallelism-1) {
				early.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := early.Load(); got != 0 {
			t.Errorf("parallelism %d: %d indices started ahead of their turn", parallelism, got)
		}
	}
}

// TestForEachStartsNoGoroutinePerItem: a long call runs on a fixed set of
// workers. The process never holds more than min(n, parallelism) goroutines
// beyond those it had, and no more than that many distinct goroutines (named
// by the header line of their stack dump) ever run an item.
func TestForEachStartsNoGoroutinePerItem(t *testing.T) {
	for _, c := range []struct{ n, parallelism int }{{10_000, 4}, {10_000, 64}, {3, 64}} {
		before := runtime.NumGoroutine()
		var peak atomic.Int64
		var workers sync.Map
		err := ForEach(c.n, c.parallelism, func(i int) error {
			var buf [64]byte
			header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf[:], false)]), "[")
			workers.Store(header, true)
			raise(&peak, int64(runtime.NumGoroutine()-before))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		limit := min(c.n, c.parallelism)
		if got := int(peak.Load()); got > limit {
			t.Errorf("%d items at parallelism %d: %d goroutines added, want at most %d", c.n, c.parallelism, got, limit)
		}
		distinct := 0
		workers.Range(func(_, _ any) bool { distinct++; return true })
		if distinct > limit {
			t.Errorf("%d items at parallelism %d: %d goroutines ran items, want at most %d", c.n, c.parallelism, distinct, limit)
		}
	}
}

func TestForEachLowestIndexedError(t *testing.T) {
	// Two failures; the lower-indexed one must be reported for any pool
	// width, regardless of completion order.
	for _, parallelism := range []int{1, 2, 7} {
		err := ForEach(20, parallelism, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("unit %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 3" {
			t.Errorf("parallelism %d: got %v, want unit 3", parallelism, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	// A fast-failing early unit must prevent most of the remaining units
	// from ever starting: with parallelism 2 and unit 0 failing
	// immediately, dispatch may overshoot by the in-flight window but must
	// not walk all 10k indices.
	const n = 10_000
	var started atomic.Int32
	boom := errors.New("boom")
	err := ForEach(n, 2, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		// Keep the other worker busy long enough for the failure flag to
		// be observed while it is still in flight.
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := started.Load(); got > 100 {
		t.Errorf("%d of %d units started after a fast failure; dispatch did not stop", got, n)
	}
}

func TestForEachCtxNilContextIsPlainForEach(t *testing.T) {
	var ran atomic.Int32
	if err := ForEachCtx(nil, 10, 4, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10", ran.Load())
	}
}

func TestForEachCtxCancellationStopsDispatch(t *testing.T) {
	// Cancel mid-run: dispatch must stop within the in-flight window and
	// the context error must surface.
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	err := ForEachCtx(ctx, n, 2, func(i int) error {
		if started.Add(1) == 1 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := started.Load(); got > 100 {
		t.Errorf("%d of %d units started after cancellation", got, n)
	}
}

// TestForEachCtxStopsWithinOneItemPerWorker: once the context is cancelled
// no worker takes another item — each finishes the one it is in — and when
// the call that cancelled also fails, its own error is what comes back.
func TestForEachCtxStopsWithinOneItemPerWorker(t *testing.T) {
	const n, parallelism = 10_000, 4
	boom := errors.New("boom")
	for _, want := range []error{context.Canceled, boom} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := ForEachCtx(ctx, n, parallelism, func(i int) error {
			started.Add(1)
			if i == 0 {
				cancel()
			}
			<-ctx.Done() // every call in flight outlives the cancellation
			if i == 0 && want == boom {
				return boom
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Errorf("got %v, want %v", err, want)
		}
		if got := started.Load(); got > parallelism {
			t.Errorf("%d calls started, want at most one per worker (%d)", got, parallelism)
		}
	}
}

func TestForEachCtxRealErrorWinsOverCancellation(t *testing.T) {
	// A unit failure that also triggers cancellation (the caller tearing
	// down) must surface the unit's own error, not the secondary ctx error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 50, 2, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want the unit's own error", err)
	}
}

// TestForEachCtxFailureBeatsCancellationAtLowerIndex: index 0 meets the
// cancelled context (and returns it, as a nested pool or a simulation that
// checks its context does) while index 1, already in flight, fails for
// real. The failure is what comes back, although the context error sits at
// the lower index; with no failure, the context error does.
func TestForEachCtxFailureBeatsCancellationAtLowerIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, want := range []error{boom, context.Canceled} {
		ctx, cancel := context.WithCancel(context.Background())
		inflight := make(chan struct{})
		err := ForEachCtx(ctx, 2, 2, func(i int) error {
			if i == 0 {
				<-inflight
				cancel()
				return ctx.Err()
			}
			close(inflight)
			<-ctx.Done()
			if want == boom {
				return boom
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Errorf("got %v, want %v", err, want)
		}
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEachCtx(ctx, 100, 4, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 8 {
		t.Errorf("%d units ran under a pre-cancelled context", got)
	}
}

package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestProgressRingPartialWrites is the regression test for the partial-
// write bug: a write that does not end in a newline used to be split
// into (wrong) lines immediately — "12" + "3 done\n" surfaced as "12"
// and "3 done". The ring must buffer the unterminated tail and join it
// with the next write.
func TestProgressRingPartialWrites(t *testing.T) {
	r := newProgressRing(10, nil)
	r.Write([]byte("12"))
	if lines, _ := r.LinesSeq(); len(lines) != 0 {
		t.Fatalf("partial write surfaced as lines: %v", lines)
	}
	r.Write([]byte("3 done\nnext "))
	if lines, _ := r.LinesSeq(); !reflect.DeepEqual(lines, []string{"123 done"}) {
		t.Fatalf("joined line wrong: %v", lines)
	}
	r.Write([]byte("line\n"))
	if lines, _ := r.LinesSeq(); !reflect.DeepEqual(lines, []string{"123 done", "next line"}) {
		t.Fatalf("second joined line wrong: %v", lines)
	}
}

func TestProgressRingFlushPromotesTail(t *testing.T) {
	r := newProgressRing(10, nil)
	r.Write([]byte("complete\nunterminated tail"))
	if lines, _ := r.LinesSeq(); !reflect.DeepEqual(lines, []string{"complete"}) {
		t.Fatalf("before flush: %v", lines)
	}
	r.Flush()
	if lines, _ := r.LinesSeq(); !reflect.DeepEqual(lines, []string{"complete", "unterminated tail"}) {
		t.Fatalf("after flush: %v", lines)
	}
	// Flush with nothing buffered is a no-op.
	r.Flush()
	if lines, _ := r.LinesSeq(); len(lines) != 2 {
		t.Fatalf("idempotent flush failed: %v", lines)
	}
}

func TestProgressRingKeepBoundAndSkipEmpty(t *testing.T) {
	r := newProgressRing(3, nil)
	r.Write([]byte("a\n\nb\n\r\nc\nd\ne\n"))
	// Empty lines (including a bare CRLF) are skipped; only the last 3
	// non-empty lines are retained.
	if lines, _ := r.LinesSeq(); !reflect.DeepEqual(lines, []string{"c", "d", "e"}) {
		t.Fatalf("ring contents: %v", lines)
	}
	if _, seq := r.LinesSeq(); seq != 5 {
		t.Fatalf("sequence = %d, want 5 lines ever", seq)
	}
}

func TestProgressRingEmitSequence(t *testing.T) {
	type emitted struct {
		line string
		seq  int64
	}
	var got []emitted
	r := newProgressRing(2, func(line string, seq int64) {
		got = append(got, emitted{line, seq})
	})
	r.Write([]byte("one\ntw"))
	r.Write([]byte("o\nthree"))
	r.Flush()
	want := []emitted{{"one", 1}, {"two", 2}, {"three", 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	// The ring kept only the last 2, but sequence numbers kept counting.
	lines, seq := r.LinesSeq()
	if !reflect.DeepEqual(lines, []string{"two", "three"}) || seq != 3 {
		t.Fatalf("lines %v seq %d", lines, seq)
	}
}

func TestProgressRingConcurrentWriters(t *testing.T) {
	r := newProgressRing(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fmt.Fprintf(r, "w%d line %d\n", w, i)
				r.LinesSeq()
			}
		}(w)
	}
	wg.Wait()
	if _, seq := r.LinesSeq(); seq != 8*50 {
		t.Fatalf("sequence = %d, want %d", seq, 8*50)
	}
}

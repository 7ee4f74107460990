package engine

import (
	"bytes"
	"strings"
	"sync"
)

// progressRing is the bounded per-job progress buffer behind
// JobStatus.Progress: an io.Writer that splits a stderr stream into
// lines and retains the most recent keep of them.
//
// Writers do not align writes to lines — fmt.Fprintf issues one write
// per call, but the scenario engine, the tuner and panic stacks all
// produce multi-part and partial writes. A write that does not end in
// a newline is buffered (not emitted, not dropped) until its line is
// completed by a later write, so "12" + "3 done\n" surfaces as the one
// line "123 done" — never as the two wrong lines "12" and "3 done".
type progressRing struct {
	mu      sync.Mutex
	keep    int
	lines   []string
	partial []byte
	// total counts lines ever appended — the monotonically increasing
	// sequence number SSE subscribers use to de-duplicate a line that
	// lands in both their replay snapshot and their live channel.
	total int64
	// emit, when non-nil, receives every completed line (with its
	// sequence number) after it enters the ring — the SSE fan-out hook.
	// Called without the ring lock held.
	emit func(line string, seq int64)
}

func newProgressRing(keep int, emit func(line string, seq int64)) *progressRing {
	return &progressRing{keep: keep, emit: emit}
}

// Write implements io.Writer. Complete lines enter the ring (empty
// lines are skipped, matching the historical behavior); a trailing
// partial line is buffered for the next write.
func (r *progressRing) Write(p []byte) (int, error) {
	r.mu.Lock()
	buf := append(r.partial, p...)
	var completed []string
	for {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			break
		}
		line := strings.TrimRight(string(buf[:i]), "\r")
		buf = buf[i+1:]
		if line == "" {
			continue
		}
		r.lines = append(r.lines, line)
		r.total++
		completed = append(completed, line)
	}
	// Keep the unterminated tail; copy so we never alias the caller's p.
	r.partial = append(r.partial[:0], buf...)
	if len(r.lines) > r.keep {
		r.lines = r.lines[len(r.lines)-r.keep:]
	}
	emit, seq := r.emit, r.total
	r.mu.Unlock()
	if emit != nil {
		for i, line := range completed {
			emit(line, seq-int64(len(completed)-1-i))
		}
	}
	return len(p), nil
}

// Flush promotes a buffered partial line into the ring — called once a
// job finishes, so final unterminated output (a progress spinner, a
// truncated panic line) is retained rather than silently lost.
func (r *progressRing) Flush() {
	r.mu.Lock()
	var line string
	if len(r.partial) > 0 {
		line = strings.TrimRight(string(r.partial), "\r")
		r.partial = r.partial[:0]
		if line != "" {
			r.lines = append(r.lines, line)
			r.total++
			if len(r.lines) > r.keep {
				r.lines = r.lines[len(r.lines)-r.keep:]
			}
		}
	}
	emit, seq := r.emit, r.total
	r.mu.Unlock()
	if emit != nil && line != "" {
		emit(line, seq)
	}
}

// LinesSeq snapshots the retained lines, most recent last, plus the
// sequence number of the most recent one (0 before any line).
func (r *progressRing) LinesSeq() ([]string, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.lines...), r.total
}

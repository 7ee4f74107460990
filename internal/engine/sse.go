package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// jobEvent is one item on a job's live event stream (GET
// /v1/jobs/{id}/events, Server-Sent Events):
//
//   - Kind "progress": Data is one completed progress-ring line;
//   - Kind "state": Data is the job's status JSON — byte-for-byte the
//     body a polled GET /v1/jobs/{id} would return at that moment.
//
// The stream's final event is always a terminal "state" event, so an
// SSE consumer ends up holding exactly the bytes a poller would.
type jobEvent struct {
	Kind     string
	Data     string
	Seq      int64 // progress events: the line's 1-based sequence number
	Terminal bool  // state events: done | failed | cancelled
}

// sseBuffer bounds each subscriber's channel. A consumer that falls
// further behind than this is dropped (its channel closed); the client
// contract is to reconnect, and the replay brings it up to date.
const sseBuffer = 256

// statusBody renders a JobStatus exactly as writeJSON serves it on GET
// /v1/jobs/{id}: two-space indent plus the json.Encoder trailing
// newline. SSE state events carry these bytes, which is what makes the
// stream's terminal event byte-identical to the polled body.
func statusBody(st JobStatus) string {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		// JobStatus is plain data; this cannot fail. Keep the stream alive
		// with an explicit error body rather than panicking a handler.
		return fmt.Sprintf("{\n  \"error\": %q\n}\n", err.Error())
	}
	return string(b) + "\n"
}

// subscribe registers a live-event consumer on the job. It returns the
// replay — every progress line already in the ring followed by the
// current state — plus the channel future events arrive on. replayedTo
// is the sequence number of the last replayed progress line; the
// consumer must skip channel progress events at or below it (a line can
// land in both the replay snapshot and the channel when a write races
// the subscription). ch is nil when the job is already terminal: the
// replay ends with the final state and there is nothing to stream.
// cancel must be called when the consumer goes away.
func (st *jobState) subscribe() (replay []jobEvent, replayedTo int64, ch chan jobEvent, cancel func()) {
	st.mu.Lock()
	lines, lastSeq := st.ring.LinesSeq()
	closed := st.subsClosed
	if !closed {
		ch = make(chan jobEvent, sseBuffer)
		if st.subs == nil {
			st.subs = map[chan jobEvent]struct{}{}
		}
		st.subs[ch] = struct{}{}
	}
	st.mu.Unlock()

	for i, line := range lines {
		replay = append(replay, jobEvent{
			Kind: "progress",
			Data: line,
			Seq:  lastSeq - int64(len(lines)-1-i),
		})
	}
	snap := st.snapshot(true)
	replay = append(replay, jobEvent{
		Kind:     "state",
		Data:     statusBody(snap),
		Terminal: terminalStatus(snap.Status),
	})
	cancel = func() {
		if ch == nil {
			return
		}
		st.mu.Lock()
		delete(st.subs, ch)
		st.mu.Unlock()
	}
	return replay, lastSeq, ch, cancel
}

func terminalStatus(status string) bool {
	switch status {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// notify fans ev out to every subscriber. A subscriber whose buffer is
// full is dropped — closed and removed — so one stalled consumer can
// never block the worker goroutine.
func (st *jobState) notify(ev jobEvent) {
	st.mu.Lock()
	for ch := range st.subs {
		select {
		case ch <- ev:
		default:
			delete(st.subs, ch)
			close(ch)
		}
	}
	st.mu.Unlock()
}

// notifyState snapshots the job and fans the state event out. terminal
// closes every subscriber channel after the event: the stream is over.
func (st *jobState) notifyState() {
	snap := st.snapshot(true)
	ev := jobEvent{Kind: "state", Data: statusBody(snap), Terminal: terminalStatus(snap.Status)}
	st.mu.Lock()
	for ch := range st.subs {
		select {
		case ch <- ev:
		default:
			delete(st.subs, ch)
			close(ch)
			continue
		}
		if ev.Terminal {
			close(ch)
		}
	}
	if ev.Terminal {
		st.subs = nil
		st.subsClosed = true
	}
	st.mu.Unlock()
}

// writeSSE frames one event on the wire. Multi-line data (the state
// JSON) is split across data: lines per the SSE spec; the client
// reconstructs the payload as join(lines, "\n") + "\n", which restores
// the exact bytes (every payload we emit ends in one newline).
func writeSSE(w io.Writer, ev jobEvent) {
	fmt.Fprintf(w, "event: %s\n", ev.Kind)
	for _, line := range strings.Split(strings.TrimSuffix(ev.Data, "\n"), "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	io.WriteString(w, "\n")
}

// handleEvents implements GET /v1/jobs/{id}/events: a Server-Sent
// Events stream of the job's progress lines and state transitions. The
// stream replays everything retained so far (a late subscriber misses
// nothing the poll API still shows), then follows the job live and ends
// with a terminal state event whose data is byte-identical to the
// polled GET /v1/jobs/{id} body at that point.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	s.sseStreams.Add(1)
	defer s.sseStreams.Add(-1)

	replay, replayedTo, ch, cancel := st.subscribe()
	defer cancel()
	emit := func(ev jobEvent) bool {
		writeSSE(w, ev)
		fl.Flush()
		return !(ev.Kind == "state" && ev.Terminal)
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	if ch == nil {
		// Already terminal: the replay ended the stream above.
		return
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if ev.Kind == "progress" && ev.Seq <= replayedTo {
				continue // already in the replay
			}
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

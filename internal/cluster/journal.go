package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The completion journal makes a coordinator crash-resumable: every
// finished unit's artifact is appended (and fsynced) as one checksummed
// JSONL record, so a coordinator killed mid-sweep and restarted on the
// same journal replays the finished units from disk and re-dispatches
// only the unfinished ones — assembling output byte-identical to an
// uninterrupted run, because artifacts are position-addressed by global
// unit index and each record re-proves its own checksum on load.
//
// Format: line 1 is a header binding the journal to one sweep
// (fingerprint over the selection, sizing knobs and expanded unit IDs);
// every further line is one completion record. A torn tail — the record
// being written when the coordinator died — fails JSON decoding or its
// checksum and is discarded along with everything after it; resuming
// compacts the journal to the surviving prefix before appending.

const journalKind = "racesim-sweep-journal"

type journalHeader struct {
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Units       int    `json:"units"`
}

type journalRecord struct {
	Unit     int    `json:"unit"` // global expansion index
	ID       string `json:"id"`   // unit ID, for the human reading the file
	Artifact string `json:"artifact"`
	Sum      string `json:"sum"` // sha256(id + "\x00" + artifact)
}

func recordSum(id, artifact string) string {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(artifact))
	return hex.EncodeToString(h.Sum(nil))
}

// sweepFingerprint identifies a sweep: the selection, the sizing knobs
// forwarded to workers, and the expanded unit IDs in order. Two runs with
// equal fingerprints dispatch identical unit lists producing identical
// artifacts, which is what makes replaying journal records sound.
func sweepFingerprint(opts Options, unitIDs []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "scenario=%s\nscale=%g\nevents=%d\nbudget1=%d\nbudget2=%d\nseed=%d\n",
		opts.Scenario, opts.Scale, opts.Events, opts.Budget1, opts.Budget2, opts.Seed)
	for _, id := range unitIDs {
		fmt.Fprintf(h, "unit=%s\n", id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// journal appends completion records durably.
type journal struct {
	f *os.File
}

// readJournal parses a journal file, verifying the header against the
// sweep fingerprint and each record against its checksum, and returns the
// recovered artifacts by unit index. Reading stops silently at the first
// undecodable or checksum-failing line (the torn tail of a crash); a
// missing file yields no artifacts. A journal written by a *different*
// sweep, and a file that does not start with a journal header (an empty
// one included), is an explicit error, never silently ignored: replaying
// the first would corrupt the assembled output, and openJournal would
// replace either.
func readJournal(path, fingerprint string, units int) (map[int]string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[int]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	var hdr journalHeader
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Kind != journalKind {
		return nil, fmt.Errorf("cluster: %s is not a sweep journal; not overwriting it", path)
	}
	if hdr.Fingerprint != fingerprint || hdr.Units != units {
		return nil, fmt.Errorf("cluster: journal %s was written by a different sweep (selection, sizing or unit list changed); delete it or name another file", path)
	}
	out := map[int]string{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			break // torn tail
		}
		if rec.Unit < 0 || rec.Unit >= units || recordSum(rec.ID, rec.Artifact) != rec.Sum {
			break // torn or corrupted tail
		}
		out[rec.Unit] = rec.Artifact
	}
	return out, nil
}

// openJournal creates (or, with the artifacts readJournal recovered,
// compacts and re-creates) the journal and leaves it open for appending.
// Compaction rewrites header + surviving records to a temp file and
// renames it over the original, so a torn tail never sits beneath new
// appends.
func openJournal(path, fingerprint string, unitIDs []string, recovered map[int]string) (*journal, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".journal-*")
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(journalHeader{Kind: journalKind, Fingerprint: fingerprint, Units: len(unitIDs)}); err != nil {
		cleanup()
		return nil, err
	}
	for i, id := range unitIDs {
		artifact, ok := recovered[i]
		if !ok {
			continue
		}
		if err := enc.Encode(journalRecord{Unit: i, ID: id, Artifact: artifact, Sum: recordSum(id, artifact)}); err != nil {
			cleanup()
			return nil, err
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f}, nil
}

// append records one completed unit and fsyncs, so a crash immediately
// after loses nothing (at worst the unit being appended becomes the
// discarded torn tail and re-runs on resume).
func (j *journal) append(unit int, id, artifact string) error {
	data, err := json.Marshal(journalRecord{Unit: unit, ID: id, Artifact: artifact, Sum: recordSum(id, artifact)})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

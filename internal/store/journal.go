package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"step/internal/scenario"
)

// journalFile is every entry's row journal: one JSON record per line,
// published together with the rendered artifacts.
const journalFile = "rows.ndjson"

// journalMaxAge is how old a temp directory must be before Open's
// recovery sweep discards it as the leftover of a crashed commit.
const journalMaxAge = time.Hour

// JournalRecord is one line of an entry's rows.ndjson journal. A
// journal is a start record, one row record per table row (in
// completion order, not index order), and a terminal done record —
// enough to replay the sweep's stream or rebuild its table without
// parsing the rendered artifacts. Index is meaningful on row records
// only.
type JournalRecord struct {
	Type string `json:"type"` // "start" | "row" | "done"

	// start
	SpecID string   `json:"spec_id,omitempty"`
	Title  string   `json:"title,omitempty"`
	Header []string `json:"header,omitempty"`
	Rows   int      `json:"rows,omitempty"`
	Points int      `json:"points,omitempty"`

	// row
	Index  int               `json:"index"`
	Cells  []string          `json:"cells,omitempty"`
	Coords map[string]string `json:"coords,omitempty"`

	// done
	Notes []string `json:"notes,omitempty"`
}

// A Journal collects a sweep's records in memory as its points land.
// CommitJournal writes them beside the rendered artifacts and
// publishes the entry; Abort drops them. Nothing touches the disk
// before commit, so a canceled or crashed sweep leaves nothing behind.
type Journal struct {
	key string

	mu       sync.Mutex
	recs     []JournalRecord
	rows     int
	declared int  // rows promised by the start record; -1 until seen
	done     bool // a done record landed
	closed   bool // aborted or committed: appends and commits refuse
}

// BeginJournal opens an empty journal for the entry that will be
// stored at key.
func (s *Store) BeginJournal(key string) (*Journal, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	return &Journal{key: key, declared: -1}, nil
}

// Append records one journal line. Appending to an aborted or
// committed journal fails.
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal for %s is closed", j.key)
	}
	j.recs = append(j.recs, rec)
	switch rec.Type {
	case "start":
		j.declared = rec.Rows
	case "row":
		j.rows++
	case "done":
		j.done = true
	}
	return nil
}

// Sink tees a sweep's stream into the journal: each start and row is
// appended as its record, then handed to next (either callback may be
// nil). specID names the spec on the start record. Sink and Finish
// drop Append's error: it fails only on a closed journal, which
// CommitJournal refuses anyway.
func (j *Journal) Sink(specID string, next scenario.Sink) scenario.Sink {
	return scenario.Sink{
		Start: func(st scenario.StreamStart) {
			_ = j.Append(JournalRecord{Type: "start", SpecID: specID, Title: st.Title, Header: st.Header, Rows: st.Rows, Points: st.Points})
			if next.Start != nil {
				next.Start(st)
			}
		},
		Row: func(p scenario.PointResult) {
			_ = j.Append(JournalRecord{Type: "row", Index: p.Index, Cells: p.Cells, Coords: p.Coords})
			if next.Row != nil {
				next.Row(p)
			}
		},
	}
}

// Finish appends the terminal done record carrying the table's notes.
func (j *Journal) Finish(notes []string) {
	_ = j.Append(JournalRecord{Type: "done", Notes: notes})
}

// Rows reports how many row records have landed so far.
func (j *Journal) Rows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows
}

// Abort drops the journal's records. Safe to call after a failed
// CommitJournal and idempotent.
func (j *Journal) Abort() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed, j.recs = true, nil
}

// CommitJournal is the store's only write path. It verifies the
// journal is complete — a start record, the promised number of rows,
// a done record — then writes table.txt, table.csv, manifest.json and
// rows.ndjson into a fresh temp directory and publishes it atomically
// under the entry's key. If the key already exists — a concurrent
// writer won the rename, or an earlier run populated it — the existing
// entry is kept (results are content-addressed, so both copies carry
// the same bytes) and CommitJournal reports success. On any error the
// journal remains for the caller to Abort.
func (s *Store) CommitJournal(j *Journal, e *Entry) error {
	if j.key != e.Manifest.Key {
		return fmt.Errorf("store: journal key %s, entry key %s", j.key, e.Manifest.Key)
	}
	j.mu.Lock()
	recs, closed := j.recs, j.closed
	declared, rows, done := j.declared, j.rows, j.done
	j.mu.Unlock()
	if closed {
		return fmt.Errorf("store: journal for %s is closed", j.key)
	}
	if declared < 0 || rows != declared || !done {
		return fmt.Errorf("store: journal for %s incomplete: %d/%d rows, done=%t", j.key, rows, declared, done)
	}
	var journal bytes.Buffer
	enc := json.NewEncoder(&journal)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("store: journal marshal: %w", err)
		}
	}
	mb, err := json.MarshalIndent(e.Manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	tmp, err := os.MkdirTemp(s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for _, f := range []struct {
		name string
		data []byte
	}{
		{tableFile, []byte(e.Table)},
		{csvFile, []byte(e.CSV)},
		{manifestFile, append(mb, '\n')},
		{journalFile, journal.Bytes()},
	} {
		if err := os.WriteFile(filepath.Join(tmp, f.name), f.data, 0o644); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := s.publish(tmp, e); err != nil {
		return err
	}
	j.Abort() // published: release the records, refuse further appends
	return nil
}

// ReadRows loads the journal of a published entry.
func (s *Store) ReadRows(key string) ([]JournalRecord, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.dir, key, journalFile))
	if err != nil {
		return nil, fmt.Errorf("store: entry %s: row journal: %w", key, err)
	}
	defer f.Close()
	var recs []JournalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("store: entry %s: corrupt journal: %w", key, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return recs, nil
}

// RecoverJournals removes temp directories at least maxAge old: the
// torn commits of crashed runs, which would otherwise accumulate
// invisibly beside the published entries. A temp directory lives only
// while one commit writes its four files, so age alone tells a crashed
// writer from a live one. Open sweeps with a one-hour grace so a
// crashed service cleans up after itself on restart.
func (s *Store) RecoverJournals(maxAge time.Duration) (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	removed := 0
	for _, de := range ents {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		fi, err := de.Info()
		if err != nil || time.Since(fi.ModTime()) < maxAge {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.dir, de.Name())); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("store: %w", err)
		}
		removed++
	}
	return removed, nil
}

package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"step/internal/scenario"
)

// appendFullJournal writes a complete start/rows/done sequence.
func appendFullJournal(t *testing.T, j *Journal, rows int) {
	t.Helper()
	if err := j.Append(JournalRecord{Type: "start", SpecID: "jt", Header: []string{"A", "B"}, Rows: rows, Points: rows}); err != nil {
		t.Fatal(err)
	}
	// Rows land in completion order; write them backwards to mimic an
	// out-of-order sweep.
	for i := rows - 1; i >= 0; i-- {
		if err := j.Append(JournalRecord{Type: "row", Index: i, Cells: []string{fmt.Sprint(i), "x"}, Coords: map[string]string{"i": fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(JournalRecord{Type: "done", Notes: []string{"note"}}); err != nil {
		t.Fatal(err)
	}
}

func tmpDirs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			tmps = append(tmps, de.Name())
		}
	}
	return tmps
}

// TestJournalCommitPublishesEntry: a committed journal becomes a
// normal cache entry — Get serves it, the journal rides along for
// replay, and no temp directory survives.
func TestJournalCommitPublishesEntry(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(t, "journal-commit")
	e := testEntry(t, sp, 7, true, "journal table\n")
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	appendFullJournal(t, j, 3)
	if j.Rows() != 3 {
		t.Fatalf("journal counted %d rows, want 3", j.Rows())
	}
	if err := st.CommitJournal(j, e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(e.Manifest.Key)
	if err != nil || !ok {
		t.Fatalf("Get after commit: ok=%t err=%v", ok, err)
	}
	if got.Table != e.Table {
		t.Fatalf("served table %q, want %q", got.Table, e.Table)
	}
	recs, err := st.ReadRows(e.Manifest.Key)
	if err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	if len(recs) != 5 || recs[0].Type != "start" || recs[len(recs)-1].Type != "done" {
		t.Fatalf("journal replay has %d records (%+v)", len(recs), recs)
	}
	if recs[1].Index != 2 || recs[1].Cells[0] != "2" {
		t.Fatalf("completion order not preserved: %+v", recs[1])
	}
	if got := tmpDirs(t, st.Dir()); len(got) != 0 {
		t.Fatalf("temp dirs left after commit: %v", got)
	}
}

// TestJournalAbortLeavesNothing: an aborted journal leaves no temp
// directory and no entry at its key.
func TestJournalAbortLeavesNothing(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testSpec(t, "journal-abort"), 7, true, "t\n")
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	appendFullJournal(t, j, 2)
	j.Abort()
	j.Abort() // idempotent
	if _, ok, _ := st.Get(e.Manifest.Key); ok {
		t.Fatal("aborted journal produced an entry")
	}
	if got := tmpDirs(t, st.Dir()); len(got) != 0 {
		t.Fatalf("temp dirs left after abort: %v", got)
	}
}

// TestJournalCommitRejectsIncomplete: missing rows or a missing done
// record must refuse to publish.
func TestJournalCommitRejectsIncomplete(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testSpec(t, "journal-short"), 7, true, "t\n")
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Type: "start", Rows: 5, Points: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Type: "row", Index: 0, Cells: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitJournal(j, e); err == nil {
		t.Fatal("incomplete journal committed")
	}
	j.Abort()
	if _, ok, _ := st.Get(e.Manifest.Key); ok {
		t.Fatal("incomplete journal produced an entry")
	}
}

// TestJournalFirstWriterWins: two journals racing the same key both
// commit successfully, one directory survives, and the entry stays
// readable.
func TestJournalFirstWriterWins(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(t, "journal-race")
	e1 := testEntry(t, sp, 7, true, "same bytes\n")
	e2 := testEntry(t, sp, 7, true, "same bytes\n")
	j1, err := st.BeginJournal(e1.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := st.BeginJournal(e2.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	appendFullJournal(t, j1, 1)
	appendFullJournal(t, j2, 1)
	if err := st.CommitJournal(j1, e1); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitJournal(j2, e2); err != nil {
		t.Fatalf("losing journal commit must succeed: %v", err)
	}
	if got := tmpDirs(t, st.Dir()); len(got) != 0 {
		t.Fatalf("temp dirs left after racing commits: %v", got)
	}
	if _, ok, err := st.Get(e1.Manifest.Key); !ok || err != nil {
		t.Fatalf("entry unreadable after race: ok=%t err=%v", ok, err)
	}
}

// TestRecoverJournals: the temp directory of a commit that crashed
// mid-write is discarded once it is older than the grace period, while
// a fresh one (a commit still writing) and published entries survive.
func TestRecoverJournals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := testEntry(t, testSpec(t, "recover-done"), 7, true, "t\n")
	if err := commit(st, done); err != nil {
		t.Fatal(err)
	}
	crashed, err := os.MkdirTemp(dir, tmpPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, tableFile), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * journalMaxAge)
	if err := os.Chtimes(crashed, old, old); err != nil {
		t.Fatal(err)
	}
	live, err := os.MkdirTemp(dir, tmpPrefix)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.RecoverJournals(journalMaxAge)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d temp dirs, want 1", n)
	}
	if got := tmpDirs(t, dir); len(got) != 1 || got[0] != filepath.Base(live) {
		t.Fatalf("temp dirs after recovery: %v, want only the live %s", got, filepath.Base(live))
	}
	if _, ok, err := st.Get(done.Manifest.Key); !ok || err != nil {
		t.Fatalf("published entry lost by recovery: ok=%t err=%v", ok, err)
	}
}

// TestJournalSinkTees: a Journal's Sink records each start and row of
// a sweep's stream (spec id and coords included) and forwards them to
// the wrapped sink, whose nil callbacks are skipped.
func TestJournalSinkTees(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testSpec(t, "journal-sink"), 7, true, "t\n")
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	var forwarded []int
	sink := j.Sink("journal-sink", scenario.Sink{Row: func(p scenario.PointResult) { forwarded = append(forwarded, p.Index) }})
	sink.Start(scenario.StreamStart{TableID: "tbl", Title: "T", Header: []string{"A"}, Rows: 2, Points: 2})
	sink.Row(scenario.PointResult{Index: 1, Total: 2, Cells: []string{"b"}, Coords: map[string]string{"i": "1"}})
	sink.Row(scenario.PointResult{Index: 0, Total: 2, Cells: []string{"a"}, Coords: map[string]string{"i": "0"}})
	j.Finish([]string{"note"})
	if err := st.CommitJournal(j, e); err != nil {
		t.Fatal(err)
	}
	if len(forwarded) != 2 || forwarded[0] != 1 || forwarded[1] != 0 {
		t.Fatalf("forwarded rows %v, want [1 0]", forwarded)
	}
	recs, err := st.ReadRows(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	want := []JournalRecord{
		{Type: "start", SpecID: "journal-sink", Title: "T", Header: []string{"A"}, Rows: 2, Points: 2},
		{Type: "row", Index: 1, Cells: []string{"b"}, Coords: map[string]string{"i": "1"}},
		{Type: "row", Index: 0, Cells: []string{"a"}, Coords: map[string]string{"i": "0"}},
		{Type: "done", Notes: []string{"note"}},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("journal\n got %+v\nwant %+v", recs, want)
	}
}

// TestJournalAppendAfterAbortFails: appends after Abort report the
// closed journal instead of resurrecting the file.
func TestJournalAppendAfterAbortFails(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testSpec(t, "journal-closed"), 7, true, "t\n")
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	j.Abort()
	if err := j.Append(JournalRecord{Type: "row", Index: 0}); err == nil {
		t.Fatal("append after abort succeeded")
	}
	if err := st.CommitJournal(j, e); err == nil {
		t.Fatal("commit after abort succeeded")
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), e.Manifest.Key)); err == nil {
		t.Fatal("aborted journal published an entry")
	}
}

// BenchmarkCommitJournal measures the per-entry journal cost quoted in
// PERFORMANCE.md: fill a 64-row journal in memory and commit it — four
// files written into a temp directory and renamed into place — once
// per iteration. The published entry is removed off the clock, so
// every iteration writes into the same near-empty store directory.
func BenchmarkCommitJournal(b *testing.B) {
	st, err := Open(b.TempDir(), 4)
	if err != nil {
		b.Fatal(err)
	}
	e := &Entry{Manifest: Manifest{Key: strings.Repeat("ab", 32), SpecID: "bench", Points: 64}, Table: "table\n", CSV: "a,b\n"}
	const rows = 64
	row := JournalRecord{
		Type:   "row",
		Cells:  []string{"qwen-57", "tile=128", "123456789", "8388608", "104857600"},
		Coords: map[string]string{"model": "qwen-57", "schedule": "tile=128"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := st.BeginJournal(e.Manifest.Key)
		if err != nil {
			b.Fatal(err)
		}
		j.Append(JournalRecord{Type: "start", SpecID: "bench", Header: []string{"A", "B", "C", "D", "E"}, Rows: rows, Points: rows})
		for r := 0; r < rows; r++ {
			row.Index = r
			j.Append(row)
		}
		j.Finish(nil)
		if err := st.CommitJournal(j, e); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(filepath.Join(st.Dir(), e.Manifest.Key)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

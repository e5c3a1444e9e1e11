package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"step/internal/scenario"
)

func testSpec(t *testing.T, id string) scenario.Spec {
	t.Helper()
	sp, err := scenario.Parse([]byte(fmt.Sprintf(
		`{"id": %q, "kind": "attention", "models": ["qwen"], "scale": 8, "batch": 8}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func testEntry(t *testing.T, sp scenario.Spec, seed uint64, quick bool, table string) *Entry {
	t.Helper()
	e, err := NewEntry(sp, seed, quick, table, "a,b\n1,2\n", "", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// commit publishes e through the store's one write path with an empty
// but complete journal.
func commit(st *Store, e *Entry) error {
	j, err := st.BeginJournal(e.Manifest.Key)
	if err != nil {
		return err
	}
	j.Append(JournalRecord{Type: "start"})
	j.Finish(nil)
	return st.CommitJournal(j, e)
}

func TestKeySemantics(t *testing.T) {
	sp := testSpec(t, "k")
	base, err := Key(sp, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := validKey(base); err != nil {
		t.Fatal(err)
	}
	// Same spec, same params: same address.
	if k2, _ := Key(sp, 7, true); k2 != base {
		t.Error("key is not deterministic")
	}
	// Seed, quick, and the spec all separate addresses.
	if k, _ := Key(sp, 8, true); k == base {
		t.Error("seed does not separate keys")
	}
	if k, _ := Key(sp, 7, false); k == base {
		t.Error("quick does not separate keys")
	}
	if k, _ := Key(testSpec(t, "other"), 7, true); k == base {
		t.Error("spec does not separate keys")
	}
	// Semantically-equal specs share an address.
	eq, err := scenario.Parse([]byte(`{"id": "k", "kind": "attention", "models": ["qwen"],
		"scale": 8, "batch": 8, "kv_mean": 2048, "strategies": ["dynamic"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := Key(eq, 7, true); k != base {
		t.Error("semantically-equal spec does not share the key")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(t, "rt")
	e := testEntry(t, sp, 7, true, "== rt ==\nrow\n")
	if _, ok, err := st.Get(e.Manifest.Key); err != nil || ok {
		t.Fatalf("unexpected pre-commit hit: %v %v", ok, err)
	}
	if err := commit(st, e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(e.Manifest.Key)
	if err != nil || !ok {
		t.Fatalf("miss after commit: %v %v", ok, err)
	}
	if got.Table != e.Table || got.CSV != e.CSV || got.Manifest.SpecID != "rt" {
		t.Fatalf("round trip mangled the entry: %+v", got)
	}
	// A fresh store over the same directory reads the entry from disk.
	st2, err := Open(st.Dir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok, err := st2.Get(e.Manifest.Key)
	if err != nil || !ok {
		t.Fatalf("disk miss in fresh store: %v %v", ok, err)
	}
	if got2.Table != e.Table {
		t.Fatal("disk round trip mangled the table")
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != e.Manifest.Key {
		t.Fatalf("keys: %v %v", keys, err)
	}
	// The layout is the documented four files.
	for _, f := range []string{tableFile, csvFile, manifestFile, journalFile} {
		if _, err := os.Stat(filepath.Join(st.Dir(), e.Manifest.Key, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestPutFirstWriterWins(t *testing.T) {
	st, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(t, "fw")
	first := testEntry(t, sp, 7, true, "table-bytes\n")
	second := testEntry(t, sp, 7, true, "table-bytes\n")
	if err := commit(st, first); err != nil {
		t.Fatal(err)
	}
	if err := commit(st, second); err != nil {
		t.Fatalf("second commit of the same key must succeed: %v", err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("want one entry, got %v (%v)", keys, err)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Errorf("temp directory leaked: %s", de.Name())
		}
	}
}

// TestConcurrentPutGetSameKey hammers one key from many goroutines
// (run under -race in CI): exactly one directory must materialize and
// every reader must observe the identical bytes.
func TestConcurrentPutGetSameKey(t *testing.T) {
	st, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec(t, "conc")
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := commit(st, testEntry(t, sp, 7, true, "concurrent-table\n")); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, ok, err := st.Get(mustKey(sp))
			if err != nil {
				errs <- err
				return
			}
			if ok && e.Table != "concurrent-table\n" {
				errs <- fmt.Errorf("torn read: %q", e.Table)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("want exactly one entry, got %v (%v)", keys, err)
	}
}

func mustKey(sp scenario.Spec) string {
	k, err := Key(sp, 7, true)
	if err != nil {
		panic(err)
	}
	return k
}

// TestLRUEviction: the memory front is bounded; evicted entries are
// still served from disk.
func TestLRUEviction(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 4; i++ {
		e := testEntry(t, testSpec(t, fmt.Sprintf("lru-%d", i)), 7, true, fmt.Sprintf("table %d\n", i))
		if err := commit(st, e); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e.Manifest.Key)
	}
	if got := st.Cached(); got != 2 {
		t.Fatalf("LRU holds %d entries, want capacity 2", got)
	}
	for i, k := range keys {
		e, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("entry %d lost after eviction: %v %v", i, ok, err)
		}
		if want := fmt.Sprintf("table %d\n", i); e.Table != want {
			t.Fatalf("entry %d: %q, want %q", i, e.Table, want)
		}
	}
	if got := st.Cached(); got != 2 {
		t.Fatalf("LRU grew past capacity: %d", got)
	}
}

func TestGetRejectsMalformedKey(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", "../../etc/passwd", strings.Repeat("z", 64), strings.Repeat("A", 64)} {
		if _, _, err := st.Get(k); err == nil {
			t.Errorf("malformed key %q accepted", k)
		}
	}
}

func TestGetReportsCorruptManifest(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(t, testSpec(t, "corrupt"), 7, true, "t\n")
	if err := commit(st, e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), e.Manifest.Key, manifestFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh store: no memory front masking the disk corruption.
	st2, err := Open(st.Dir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.Get(e.Manifest.Key); err == nil {
		t.Fatal("corrupt manifest served without error")
	}
}

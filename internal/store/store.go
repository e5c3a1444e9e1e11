package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"step/internal/scenario"
)

// FormatVersion tags every cache key. Bump it whenever an intended
// change alters rendered tables — the same event that re-renders
// internal/scenario/testdata/golden with -update — so existing
// .step-cache directories miss cleanly instead of serving bytes from
// the previous simulator. (TestGoldenTables is the tripwire: a diff
// there without a version bump means cached results are stale.) Bump
// it too when the entry layout changes, so entries of the old layout
// miss instead of failing to read: v2 entries always hold table.txt,
// table.csv, manifest.json and rows.ndjson.
const FormatVersion = "step-sweep/v2"

// Key returns the cache address of one sweep result: FormatVersion,
// the spec's canonical hash, and the seed/quick execution parameters,
// hashed together. Specs that render byte-identical tables at the same
// seed and quick setting collide; anything else separates.
func Key(sp scenario.Spec, seed uint64, quick bool) (string, error) {
	cj, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	// Quick mode has no effect on the program kind (it has no
	// quick-dependent parameters), so both settings render identical
	// bytes — collapse them onto one address instead of simulating and
	// storing the same result twice.
	if sp.Kind == scenario.KindProgram {
		quick = false
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\nseed=%d\nquick=%t\nspec=", FormatVersion, seed, quick)
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Manifest records how a cached table was produced.
type Manifest struct {
	Key         string          `json:"key"`
	SpecID      string          `json:"spec_id"`
	Spec        json.RawMessage `json:"spec"` // canonical serialization
	Seed        uint64          `json:"seed"`
	Quick       bool            `json:"quick"`
	Points      int             `json:"points"`
	GitDescribe string          `json:"git_describe,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
	ElapsedMS   int64           `json:"elapsed_ms"`
}

// Entry is one cached sweep result.
type Entry struct {
	Manifest Manifest
	Table    string // Table.String bytes, served as text/plain
	CSV      string // Table.CSV bytes, served as text/csv
}

// NewEntry assembles the entry for a finished sweep — content address,
// canonical spec, and provenance manifest in one place, so the CLI
// (`stepctl sweep -cache`) and the service write identical entries.
func NewEntry(sp scenario.Spec, seed uint64, quick bool, table, csv, gitDescribe string, elapsed time.Duration) (*Entry, error) {
	key, err := Key(sp, seed, quick)
	if err != nil {
		return nil, err
	}
	cj, err := sp.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	return &Entry{
		Manifest: Manifest{
			Key: key, SpecID: sp.ID, Spec: json.RawMessage(cj),
			Seed: seed, Quick: quick, Points: sp.PointCount(quick),
			GitDescribe: gitDescribe,
			CreatedAt:   time.Now().UTC(),
			ElapsedMS:   elapsed.Milliseconds(),
		},
		Table: table,
		CSV:   csv,
	}, nil
}

const (
	tableFile    = "table.txt"
	csvFile      = "table.csv"
	manifestFile = "manifest.json"
	tmpPrefix    = "tmp-"
)

// Store is a content-addressed cache: a directory of entries fronted
// by a bounded in-memory LRU.
type Store struct {
	dir string

	mu  sync.Mutex
	cap int
	lru *list.List // most recent at front; values are *Entry
	idx map[string]*list.Element
}

// Open creates (if needed) and opens a store rooted at dir. lruCap
// bounds the number of entries kept in memory (<= 0 selects 64); the
// disk holds every entry ever committed regardless.
func Open(dir string, lruCap int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if lruCap <= 0 {
		lruCap = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir: dir,
		cap: lruCap,
		lru: list.New(),
		idx: make(map[string]*list.Element),
	}
	// Best-effort crash recovery: discard torn commits left by a
	// previous process. Recent temp dirs are spared — they may belong
	// to a live writer sharing the directory.
	_, _ = s.RecoverJournals(journalMaxAge)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey guards path construction: keys are SHA-256 hex digests.
func validKey(key string) error {
	if len(key) != 2*sha256.Size {
		return fmt.Errorf("store: malformed key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: malformed key %q", key)
		}
	}
	return nil
}

// Get returns the entry for key, reading through the LRU to disk. The
// ok result distinguishes a miss from an error (a torn or unreadable
// entry reports an error; renamed-in entries are never torn).
func (s *Store) Get(key string) (*Entry, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*Entry)
		s.mu.Unlock()
		return e, true, nil
	}
	s.mu.Unlock()

	dir := filepath.Join(s.dir, key)
	table, err := os.ReadFile(filepath.Join(dir, tableFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	csvb, err := os.ReadFile(filepath.Join(dir, csvFile))
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	mb, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	e := &Entry{Table: string(table), CSV: string(csvb)}
	if err := json.Unmarshal(mb, &e.Manifest); err != nil {
		return nil, false, fmt.Errorf("store: entry %s: corrupt manifest: %w", key, err)
	}
	if e.Manifest.Key != key {
		return nil, false, fmt.Errorf("store: entry %s: manifest declares key %s", key, e.Manifest.Key)
	}
	s.remember(key, e)
	return e, true, nil
}

// publish renames a fully-written temp directory into its final
// content address. A failed rename whose destination already carries a
// manifest means a concurrent writer of the same key won; the entry is
// remembered and publish reports success (first writer wins, both
// copies carry the same bytes).
func (s *Store) publish(tmp string, e *Entry) error {
	key := e.Manifest.Key
	final := filepath.Join(s.dir, key)
	if err := os.Rename(tmp, final); err != nil {
		if _, statErr := os.Stat(filepath.Join(final, manifestFile)); statErr == nil {
			s.remember(key, e)
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	s.remember(key, e)
	return nil
}

// remember inserts an entry at the front of the LRU, evicting from the
// back past capacity. Entries are treated as immutable once stored.
func (s *Store) remember(key string, e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		el.Value = e
		return
	}
	s.idx[key] = s.lru.PushFront(e)
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		evicted := s.lru.Remove(back).(*Entry)
		delete(s.idx, evicted.Manifest.Key)
	}
}

// Cached reports how many entries the in-memory LRU currently holds.
func (s *Store) Cached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Keys lists every entry on disk (temp directories excluded), in
// unspecified order.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, de := range ents {
		if !de.IsDir() || strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		if validKey(de.Name()) == nil {
			keys = append(keys, de.Name())
		}
	}
	return keys, nil
}

// GitDescribe returns a best-effort `git describe --always --dirty` of
// the working tree, for manifests; it returns "" outside a repository
// or without git.
func GitDescribe(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

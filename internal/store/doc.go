// Package store is a content-addressed result cache for scenario
// sweeps. Results are keyed by the SHA-256 of the spec's canonical
// serialization combined with the execution parameters that change
// rendered bytes (seed and quick mode — worker counts are excluded
// because tables are byte-identical at any worker count, which is what
// makes caching sound at all; stepvet's determinism and equalfields
// analyzers are the static guards on that byte-identity contract, see
// make lint).
//
// Layout on disk, under the store directory (default .step-cache):
//
//	<key>/table.txt      rendered console table (Table.String bytes)
//	<key>/table.csv      RFC 4180 CSV (Table.CSV bytes)
//	<key>/manifest.json  canonical spec, seed/quick, git describe, timings
//	<key>/rows.ndjson    row journal: start record, one row per line
//	                     in completion order, terminal done record —
//	                     see JournalRecord
//
// Every entry is written one way: BeginJournal/Append (or a Journal's
// Sink tee) collects the sweep's records in memory as points land, and
// CommitJournal writes all four files into one fresh temp directory
// and publishes it — the CLI (`stepctl sweep -cache`) and the service
// share that path, so rows.ndjson is always present and every cached
// result replays the same stream. ReadRows loads a published journal.
// There is no writer lock: a temp directory lives only while one
// commit writes its files, so RecoverJournals tells a crashed writer
// from a live one by age alone (Open sweeps with a one-hour grace).
//
// Invariants:
//
//   - Atomic publication: entries are written to a temp directory and
//     renamed into place, so readers never observe a partial entry. A
//     journal that never commits — canceled sweep, crashed process —
//     publishes nothing at its key.
//   - First writer wins: concurrent writers of the same key converge
//     on one directory; later writers discard their identical copy
//     (sound because equal keys imply equal bytes).
//   - Entries are immutable once published; eviction removes whole
//     directories, never rewrites them.
//
// A bounded in-memory LRU fronts the disk so a hot spec served
// repeatedly does not re-read its files per request. All methods are
// safe for concurrent use.
package store

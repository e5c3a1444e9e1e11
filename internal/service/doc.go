// Package service turns scenario sweeps into addressable jobs: a
// bounded queue of executors runs submitted specs on one shared
// harness worker pool, results land in a content-addressed store
// (internal/store), and repeated submissions of a semantically-equal
// spec are served from the cache without re-simulation. Rows are
// journaled in memory as they land and commit with the table; a store
// error fails the job rather than caching a partial entry. The HTTP
// surface over the same queue lives in http.go; `stepctl serve` and
// `stepctl sweep -cache` are thin wrappers.
//
// Job lifecycle: queued -> running -> done | failed | canceled, or
// queued -> cached when the store (or a concurrent job computing the
// same key) already holds the result. Submissions of a key that is
// already in flight do not re-simulate: they wait for the running job
// and read its stored result (single-flight). Job listings and
// shutdown iterate IDs in sorted order, never map order — the same
// determinism discipline stepvet enforces statically inside the sim
// packages (make lint).
//
// # Streaming
//
// GET /sweeps/{id}/stream serves a job's results as they land: chunked
// NDJSON, one StreamEvent per line. A successful stream is
//
//	{"type":"start", ...}        table identity and shape: spec/job ids,
//	                             title, header, rows_total, points_total
//	{"type":"row", "index":i, "cells":[...], "coords":{...}}
//	                             one rendered table row; rows arrive in
//	                             completion order, index is the row's
//	                             final position in the table
//	{"type":"progress", "points_done":n}
//	                             per-point sweep progress
//	{"type":"done", "state":"done|cached", "notes":[...], "elapsed_ms":e}
//	                             terminal; failed and canceled jobs end
//	                             with state failed|canceled and an error
//
// Rows reassembled in index order are byte-identical to the stored
// table (`stepctl watch` does exactly this). Every subscriber of a job
// observes the same event sequence: events buffer per job, late
// subscribers replay the buffered prefix and then follow live. Once a
// successful job's stream has closed with no subscriber attached, its
// buffer keeps only the done event and the order of the others, and
// later subscribers get the same sequence with the rows read back from
// the store's row journal, so a finished job keeps almost no history
// in memory. Jobs that finished without broadcasting rows — cached
// submissions, single-flight followers — replay the journal's start
// and row events (no progress events). Every entry carries the
// journal, whether the service or `stepctl sweep -cache` wrote it.
// There is no fallback to the rendered CSV: an entry whose journal
// cannot be read ends its stream with a failed done event.
//
// Invariants:
//
//   - One worker pool: every executor draws simulation parallelism
//     from the same bounded harness pool, so total CPU use stays
//     capped regardless of how many jobs run concurrently.
//   - Cache soundness rests on the scenario package's determinism
//     guarantee — equal canonical spec bytes (plus seed and quick
//     mode) imply byte-identical tables — so serving a stored result
//     is indistinguishable from re-simulating.
//   - Jobs are immutable once terminal: a job that reached done,
//     failed, canceled, or cached never changes state again, and its
//     result bytes are never rewritten.
package service

// Package store persists engine decision caches across processes: every
// memoized level decision (one propKey → propResult entry of
// internal/engine.Cache, in its exported engine.Entry form) is written to
// a disk-backed store and warm-loaded on the next Open, so the
// exponential discerning/recording searches are paid once per type and
// level, ever, rather than once per process.
//
// # On-disk layout
//
// A store at path P owns two files:
//
//   - P — the compacted snapshot, rewritten atomically (write to a
//     temporary file in the same directory, fsync, rename) by Compact;
//   - P.journal — the append-only journal receiving every decision
//     computed since the last compaction.
//
// Both files share one format, the internal/logfile framing: the magic
// "RPRDECIS", the little-endian version 2 and an empty meta frame, then
// one frame per decision. A frame is a length, a CRC-32C over the length
// and the payload, and the payload: the fingerprint (uint64), a
// property code, the level and the verdict (one byte each), then, for a
// positive decision, the witness JSON. The checksum makes corruption
// detection independent of the payload: a torn tail from a crash, a bit
// flip, or a truncated copy is caught at load time, and the load keeps
// every decision up to the first bad frame (for the journal, the file is
// also physically truncated back to that point so appends resume on a
// clean boundary).
//
// # Crash safety and upgrades
//
// A foreign file at either path, or a file of a newer version, is
// refused and left untouched. A torn header reads as empty, and so does
// a version 1 file (a JSON header line and JSON-in-JSON records): an
// upgraded build loads it as zero decisions, rewrites the journal at
// Open and the snapshot at the next Compact. Appends are buffered;
// Flush and Close fsync the journal. Compact writes the snapshot to a
// temporary file, fsyncs it, renames it over the old one and fsyncs the
// directory, and only then resets the journal.
//
// # Concurrency and ownership
//
// Writes are asynchronous: the cache's sink hands newly computed
// decisions to a flusher goroutine owning the journal file, so deciders
// never block on disk. Close drains and syncs the journal; Flush and
// Compact are available mid-run. One process at a time may own a store
// path (the -cache-file contract of the cmd tools) — concurrent writers
// would interleave journal frames. Within the owning process a *Store is
// safe for concurrent use.
//
// # Byte-stability guarantees
//
// Snapshot bytes are deterministic for a given set of decisions (entries
// are sorted before writing), and the witness JSON codecs round-trip
// byte-identically, so two stores holding the same decisions compact to
// identical snapshot files.
package store

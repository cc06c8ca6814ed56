// Package store persists engine decision caches across processes: every
// memoized level decision (one propKey → propResult entry of
// internal/engine.Cache, in its exported engine.Entry form) is written to
// a disk-backed store and warm-loaded on the next Open, so the
// exponential discerning/recording searches are paid once per type and
// level, ever, rather than once per process.
//
// # On-disk layout
//
// A store at path P is one file, the append-only journal P.journal,
// which receives every decision the cache computes. The cache journals
// only the decisions it computed, and it never recomputes a key it
// holds, so the journal holds each decision once. The exception is
// engine.Cache.Purge: a purged store-backed cache journals again
// whatever it then recomputes, and Open collapses such duplicates into
// one decision each. Nothing is written at P itself.
//
// The journal is an internal/logfile framing: the magic "RPRDECIS", the
// little-endian version 2 and an empty meta frame, then one frame per
// decision. A frame is a length, a CRC-32C over the length and the
// payload, and the payload: the fingerprint (uint64), a property code,
// the level and the verdict (one byte each), then, for a positive
// decision, the witness JSON. The checksum makes corruption detection
// independent of the payload: a torn tail from a crash, a bit flip, or a
// truncated copy is caught at load time, and the load keeps every
// decision up to the first bad frame; the file is also physically
// truncated back to that point so appends resume on a clean boundary.
//
// # Crash safety and upgrades
//
// A foreign journal, or a journal of a newer version, is refused and
// left untouched. A torn header reads as empty, and so does a version 1
// journal (a JSON header line and JSON-in-JSON records): an upgraded
// build loads it as zero decisions and rewrites it at Open. Appends are
// buffered; Flush and Close fsync the journal.
//
// Earlier builds could also compact the journal into a snapshot file at
// P. A snapshot left there is neither read nor written: its decisions
// are recomputed on demand, once, and journaled.
//
// # Concurrency and ownership
//
// Writes are asynchronous: the cache's sink hands newly computed
// decisions to a flusher goroutine owning the journal file, so deciders
// never block on disk. Close drains and syncs the journal; Flush is
// available mid-run. One process at a time may own a store path (the
// -cache-file contract of the cmd tools) — concurrent writers would
// interleave journal frames. Within the owning process a *Store is safe
// for concurrent use.
//
// # Byte-stability guarantees
//
// The witness JSON codecs round-trip byte-identically, so a decision
// loaded from the journal re-encodes to the frame it was read from, and
// warm answers carry the same witness bytes as cold ones.
package store

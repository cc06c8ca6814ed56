// Package graphstore persists expanded exploration graphs
// (internal/model.Graph) across process restarts, so a restarted reprod
// serves warm /v1/check traffic without re-expanding state spaces it
// already paid for.
//
// # Layout and identity
//
// A store owns one directory. Each (structural fingerprint, input
// vector) key — the same key engine.GraphCache uses — maps to one file
// in the internal/logfile framing, RPRGRAPH v3: the magic "RPRGRAPH",
// the little-endian version 3 and a meta frame holding the key (process
// and object counts, the fingerprint, the inputs), then append-only
// pages, one frame each, every frame checksummed with CRC-32C over its
// length and payload. A page holds a batch of fixed-width node records:
// the record's index, the node's packed words (model.SnapshotNode:
// state ids of the protocol's canonical closure, object values, output
// history), a 64-bit check value over the words, the Done byte and the
// step and crash successor indices. Records refer to other nodes by
// intern-order position, and pages only ever append nodes or complete
// previously-unexpanded ones (an update record repeats its node's
// words), so the file is a monotone log of model.GraphSnapshot growth.
// The store keeps the persisted words of every file it touched, and a
// spill extends a file only when the snapshot's prefix matches them
// word for word.
//
// # Crash safety
//
// Load reads the file in one piece and scans it to the good prefix: it
// stops at the first torn or checksum-failing page and returns the
// prefix, which is always a valid snapshot (pages apply all-or-nothing,
// so no successor reference can dangle). The next spill truncates the
// file to that good prefix before appending. A file whose header is
// torn loads as empty and is rewritten, and so do v1 files (strings and
// a state dictionary) and v2 files (the same pages behind a
// hand-checksummed header): they are cache misses, and the next spill
// rewrites them from offset 0. A file with a foreign magic, a newer
// format version, or a meta frame naming another key is refused
// outright — never truncated or overwritten. A spill that writes a
// header fsyncs the file and then, best effort, its directory, so a
// newly created file's entry survives a power loss. Records that pass
// the checksums are verified once more on import
// (model.Graph.ImportSnapshot recomputes each check value and validates
// every lane and successor rule), so a corrupted file degrades to a
// partial warm load or a clean re-expansion, never a wrong graph.
//
// # Concurrency and ownership
//
// Load and Spill may be called from any goroutine. Each key has its own
// mutex, which serializes the load, spill and write of that one file;
// the store-wide mutex guards only the key map and the counters, and no
// file I/O or fsync runs under it. So a spill fsyncing one graph never
// delays a load or spill of another, while a load of a key that is
// being spilled waits for that spill and reads the complete file. The
// intended owner is engine.GraphCache, which loads on cache miss and
// spills snapshot deltas asynchronously after walks complete, one graph
// at a time from its background spiller — walks never block on the
// disk. The store assumes it is the directory's only writer.
package graphstore

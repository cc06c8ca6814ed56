// Package graphstore persists expanded exploration graphs
// (internal/model.Graph) across process restarts, so a restarted reprod
// serves warm /v1/check traffic without re-expanding state spaces it
// already paid for.
//
// # Layout and identity
//
// A store owns one directory. Each (structural fingerprint, input
// vector) key — the same key engine.GraphCache uses — maps to one file,
// written as a checksummed binary header followed by append-only pages.
// Every page carries its own CRC-32C and holds a batch of fixed-width
// node records in RPRGRAPH v2 form: the record's index, the node's
// packed words (model.SnapshotNode: state ids of the protocol's
// canonical closure, object values, output history), a 64-bit check
// value over the words, the Done byte and the step and crash successor
// indices. Records refer to other nodes by intern-order position, and
// pages only ever append nodes or complete previously-unexpanded ones
// (an update record repeats its node's words), so the file is a monotone
// log of model.GraphSnapshot growth. The store keeps the persisted words
// of every file it touched, and a spill extends a file only when the
// snapshot's prefix matches them word for word.
//
// # Crash safety
//
// Load is a sequential scan with internal/store's corruption tolerance:
// it stops at the first torn or checksum-failing page and returns the
// good prefix, which is always a valid snapshot (pages apply
// all-or-nothing, so no successor reference can dangle). The next spill
// truncates the file to that good prefix before appending. A file whose
// header is torn loads as empty and is rewritten, and so does a v1 file
// (strings and a state dictionary): it is a cache miss, and the next
// spill rewrites it from offset 0. A file with an alien header or a
// newer format version is refused outright — never truncated or
// overwritten. A spill that writes a header fsyncs the file and then,
// best effort, its directory, so a newly created file's entry survives a
// power loss. Records that pass the container checksums are verified
// once more on import (model.Graph.ImportSnapshot recomputes each check
// value and validates every lane and successor rule), so a corrupted
// file degrades to a partial warm load or a clean re-expansion, never a
// wrong graph.
//
// # Concurrency and ownership
//
// A Store serializes all file access behind one mutex; Load and Spill
// may be called from any goroutine. The intended owner is
// engine.GraphCache, which loads on cache miss and spills snapshot
// deltas asynchronously after walks complete — walks never block on the
// disk. The store assumes it is the directory's only writer.
package graphstore

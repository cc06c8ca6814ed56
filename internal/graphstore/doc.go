// Package graphstore persists expanded exploration graphs
// (internal/model.Graph) across process restarts, so a restarted reprod
// serves warm /v1/check traffic without re-expanding state spaces it
// already paid for.
//
// # Layout and identity
//
// A store owns one directory and keeps every graph in one append-only
// log there, graphs.rprgraph, in the internal/logfile framing, RPRGRAPH
// v4: the magic "RPRGRAPH", the little-endian version 4 and an empty
// meta frame, then one frame per page, every frame checksummed with
// CRC-32C over its length and payload. A graph's key is the same
// (structural fingerprint, input vector) pair engine.GraphCache uses,
// and every page opens with it: the process and object counts, the
// fingerprint and the inputs. The rest of the page is a batch of
// fixed-width node records: the record's index, the node's packed words
// (model.SnapshotNode: state ids of the protocol's canonical closure,
// object values, output history), a 64-bit check value over the words,
// the Done byte and the step and crash successor indices. Records refer
// to other nodes by intern-order position, and pages only ever append
// nodes or complete previously-unexpanded ones (an update record repeats
// its node's words), so a key's pages, in log order, are a monotone log
// of its model.GraphSnapshot growth; the pages of different keys
// interleave in the order they were spilled. A key spilled in one page
// takes the bytes of its RPRGRAPH v3 file, which held the key in its
// meta frame and the same page after it. The store keeps the persisted
// words of every key it touched, and a spill extends a key only when the
// snapshot's prefix matches them word for word.
//
// # Open, load and spill
//
// Open walks the log once, front to back through one small buffer,
// checking every frame's checksum: it fixes the log's good length, the
// end of the last frame before the first torn or checksum-failing one,
// and records the offset of each key's pages, skipping a frame that
// checks out but names no key. Load reads only the key's own pages,
// each at its offset, checks each checksum again and applies the pages
// in order. Spill encodes its pages under the key's lock alone, then
// appends them at the log's end under one store-wide append lock, which
// it holds only for the write, and returns once they are durable.
//
// # Group commit
//
// A spill returns once an fsync that began after its write has
// completed. One fsync runs at a time, through the file of the spill
// that starts it, and covers every page written before it began: spills
// that write while an fsync runs wait for it and then share the next
// one, so a burst of spills (a shutdown's Flush) pays a few fsyncs, not
// one per graph. An fsync error fails every spill it was to cover and
// every later spill of the Store, which writes nothing more.
//
// # Crash safety
//
// The log only grows at its end. Each append first truncates the log to
// its good length, dropping a torn tail a crash or a failed write left,
// and a write error leaves the good length where it was. The log's
// first append writes the header and fsyncs the file and then, best
// effort, its directory before any other append, so the log's directory
// entry survives a power loss. A page that passes its checksum but fails
// the key, count or record checks at Load ends that key's snapshot
// before it and marks the key bad: the shared log cannot drop a page in
// its middle, so the key is served from what loaded and not spilled
// again until the next Load or Open. A torn header and a log of an older
// version are empty, and the next spill rewrites the log from offset 0.
// A log with a foreign magic or a newer format version makes Open fail,
// and the file is never truncated or overwritten. Records that pass the
// checksums are verified once more on import
// (model.Graph.ImportSnapshot recomputes each check value and validates
// every lane and successor rule), so a corrupted log degrades to a
// partial warm load or a clean re-expansion, never a wrong graph.
//
// Versions 1 to 3 kept one file per key, named after the key
// (<fingerprint>-in<inputs>.graph). This version never reads, changes
// or deletes such files: a directory that holds them starts cold, and
// they are safe to delete by hand.
//
// # Concurrency and ownership
//
// Load and Spill may be called from any goroutine. Each key has its own
// mutex, which serializes the load and spill of that key, held through
// the spill's write and its fsync; the append lock serializes writes to
// the log only; the store-wide mutex guards only the key map and the
// counters, and no file I/O or fsync runs under it. So a spill waiting
// for its fsync never delays a load or spill of another key, while a
// load of a key that is being spilled waits for that spill and reads
// its pages. The Store holds no file open between calls and needs no
// Close: every Load and Spill opens the log and closes it before it
// returns. The intended owner is engine.GraphCache, which loads on cache
// miss and spills snapshot deltas asynchronously after walks complete,
// one graph at a time from its background spiller — walks never block
// on the disk. The store assumes it is the directory's only writer.
package graphstore

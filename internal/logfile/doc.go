// Package logfile is the one on-disk framing both persistent stores
// share: the decision journal and snapshot of internal/store, and the
// graph log of internal/graphstore. It owns the crash safety
// discipline, and the stores own only what their payloads mean.
//
// # Layout
//
// A file is an 8-byte magic, a little-endian uint32 version and a meta
// frame, then any number of frames. A frame is a little-endian uint32
// payload length, a uint32 CRC-32C over the length bytes and the
// payload, and the payload. Every format written today leaves the meta
// frame empty; the frames after it are the records. Because the
// checksum covers the length, a zero-filled tail (length 0, checksum 0)
// is no frame.
//
// # Crash safety
//
// Format.Walk is the one reader: it streams a file front to back
// through one small buffer and hands each frame's offset and payload to
// the caller, to the good prefix: the first frame that is torn, fails
// its checksum or is rejected by the caller ends it, and Walk returns
// the prefix's length. A frame whose length runs past the end of the
// file is torn before any of it is read. A missing or empty file, a
// torn header, a damaged meta frame and a file of an older version hold
// nothing durable and read as empty. A file that opens with a foreign
// magic, or with a newer version, is an error: it holds another
// program's data or a newer build's, and callers must neither truncate
// nor overwrite it. A caller that kept a frame's offset reads it back
// later and checks it with Payload. OpenAppend reopens a file for
// appending after its good prefix, truncating the torn or corrupted
// tail first, and SyncDir makes a new or renamed file's directory entry
// durable.
//
// # Concurrency and ownership
//
// The package holds no state. A file has one writer, the store that
// owns it; the package does not lock files.
//
// # Byte-stability guarantees
//
// Encoding is deterministic: the same header and payloads always
// produce the same bytes, and frames are sealed in place
// (StartFrame, EndFrame), so a writer builds a whole spill in one
// buffer.
package logfile

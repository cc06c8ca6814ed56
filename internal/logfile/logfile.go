package logfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	// headerLen is the fixed opening of every file: the magic and the
	// version.
	headerLen = 12
	// frameHeaderLen is the length and checksum before each payload.
	frameHeaderLen = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format names one kind of log file.
type Format struct {
	// Magic is the 8-byte tag opening every file of the format.
	Magic string
	// Version is the newest version this build writes. A file of a newer
	// version is refused; a file of an older one reads as empty.
	Version uint32
	// Name names the format in refusals ("decision-store").
	Name string
	// Legacy, when set, is how files written before the format was
	// framed begin; they read as an older version.
	Legacy string
}

// AppendHeader appends a file header to dst: the magic, the version and
// the meta frame holding meta.
func (f Format) AppendHeader(dst, meta []byte) []byte {
	dst = append(dst, f.Magic...)
	dst = binary.LittleEndian.AppendUint32(dst, f.Version)
	dst, off := StartFrame(dst)
	dst = append(dst, meta...)
	EndFrame(dst, off)
	return dst
}

// HeaderLen is the length of a header whose meta frame holds n bytes.
func HeaderLen(n int) int { return headerLen + frameHeaderLen + n }

// FrameLen is the length of a frame holding n payload bytes.
func FrameLen(n int) int { return frameHeaderLen + n }

// StartFrame reserves a frame's length and checksum at the end of dst
// and returns the extended slice and the frame's offset in it. Append
// the payload, then seal the frame with EndFrame.
func StartFrame(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, frameHeaderLen)...), len(dst)
}

// EndFrame fills in the length and checksum of the frame at off, whose
// payload runs to the end of buf.
func EndFrame(buf []byte, off int) {
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-frameHeaderLen))
	binary.LittleEndian.PutUint32(buf[off+4:], checksum(buf[off:off+4], buf[off+frameHeaderLen:]))
}

// checksum is the CRC-32C of a frame's length bytes and payload. Covering
// the length means an all-zero frame (length 0, checksum 0) fails it.
func checksum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, castagnoli), castagnoli, payload)
}

// frameAt decodes the frame at off: its payload and end offset, or
// ok == false when the frame is torn or fails its checksum.
func frameAt(data []byte, off int) (payload []byte, end int, ok bool) {
	if len(data)-off < frameHeaderLen {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if uint64(n) > uint64(len(data)-off-frameHeaderLen) {
		return nil, 0, false
	}
	end = off + frameHeaderLen + int(n)
	payload = data[off+frameHeaderLen : end]
	if checksum(data[off:off+4], payload) != binary.LittleEndian.Uint32(data[off+4:]) {
		return nil, 0, false
	}
	return payload, end, true
}

// Log is the durable content of one file: its meta frame and the frames
// after it.
type Log struct {
	// Meta is the meta frame's payload.
	Meta []byte
	data []byte // the whole file
	off  int    // end of the meta frame
}

// Read reads the file at path in one piece. A missing or empty file, a
// torn header and a file of an older version hold nothing durable: Read
// returns a nil Log, whose good length is 0. A file that opens with
// anything but the magic, or with a newer version, is an error: it holds
// another program's data or a newer build's, and the caller must neither
// truncate nor overwrite it.
func (f Format) Read(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if f.Legacy != "" {
		n := min(len(data), len(f.Legacy))
		if n > 0 && string(data[:n]) == f.Legacy[:n] {
			return nil, nil // pre-framing, or its header torn
		}
	}
	if n := min(len(data), len(f.Magic)); string(data[:n]) != f.Magic[:n] {
		return nil, fmt.Errorf("%s has no %s header (refusing to overwrite; move the file aside to start fresh)", path, f.Name)
	}
	if len(data) < headerLen {
		return nil, nil
	}
	switch v := binary.LittleEndian.Uint32(data[len(f.Magic):]); {
	case v > f.Version:
		return nil, fmt.Errorf("%s is format version %d, newer than this build's %d", path, v, f.Version)
	case v < f.Version:
		return nil, nil
	}
	// A meta frame that is torn or fails its checksum reads as a torn
	// header: every writer makes the header durable with the first
	// frames after it, so no durable frame can follow a bad one.
	meta, end, ok := frameAt(data, headerLen)
	if !ok {
		return nil, nil
	}
	return &Log{Meta: meta, data: data, off: end}, nil
}

// Scan calls fn with the payload of each frame after the meta frame, in
// file order, until fn returns false or a frame is torn or fails its
// checksum. It returns the good length: the bytes of the header, the
// meta frame and every frame fn accepted. Payloads alias the file's
// bytes. A nil Log has no frames and a good length of 0.
func (l *Log) Scan(fn func(payload []byte) bool) int64 {
	if l == nil {
		return 0
	}
	off := l.off
	for {
		payload, end, ok := frameAt(l.data, off)
		if !ok || !fn(payload) {
			return int64(off)
		}
		off = end
	}
}

// OpenAppend opens the file at path for appending after its good prefix,
// creating it if needed: whatever follows goodLen (a torn or corrupted
// tail) is truncated away, and the file is positioned at goodLen. At a
// goodLen of 0 the caller starts the file with a header. Call it only
// for a file Read did not refuse.
func OpenAppend(path string, goodLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != goodLen {
		err = f.Truncate(goodLen)
	}
	if err == nil {
		_, err = f.Seek(goodLen, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// SyncDir fsyncs a directory, so the entry of a file just created or
// renamed in it survives a power loss. Best effort: some filesystems
// refuse directory fsync.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

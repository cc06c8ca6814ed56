package logfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
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

// Payload returns the payload of frame, which holds one whole frame as
// Walk reported it, or ok == false when it is not exactly one frame or
// fails its checksum.
func Payload(frame []byte) (payload []byte, ok bool) {
	if len(frame) < frameHeaderLen || uint64(binary.LittleEndian.Uint32(frame)) != uint64(len(frame)-frameHeaderLen) {
		return nil, false
	}
	payload = frame[frameHeaderLen:]
	return payload, checksum(frame[:4], payload) == binary.LittleEndian.Uint32(frame[4:])
}

// walkBufLen is the size of the buffer Walk reads a file through; a
// frame too long for it is read into one more buffer, reused for every
// such frame.
const walkBufLen = 32 << 10

// Walk reads the file at path front to back and calls fn with the
// offset and payload of each frame after the meta frame, in file order,
// until fn returns false or a frame is torn or fails its checksum. It
// returns the good length: the bytes of the header, the meta frame and
// every frame fn accepted. The payload is valid only during the call.
//
// A missing or empty file, a torn header, a damaged meta frame and a
// file of an older version hold nothing durable: Walk calls fn for no
// frame and returns 0. A file that opens with anything but the magic,
// or with a newer version, is an error: it holds another program's data
// or a newer build's, and the caller must neither truncate nor
// overwrite it. So is a read that fails for another reason than the
// file's end, which says nothing about the bytes it did not read.
func (f Format) Walk(path string, fn func(off int64, payload []byte) bool) (int64, error) {
	file, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(file, walkBufLen)
	head, err := r.Peek(max(headerLen, len(f.Legacy)))
	if err != nil && err != io.EOF {
		return 0, err
	}
	if f.Legacy != "" {
		n := min(len(head), len(f.Legacy))
		if n > 0 && string(head[:n]) == f.Legacy[:n] {
			return 0, nil // pre-framing, or its header torn
		}
	}
	if n := min(len(head), len(f.Magic)); string(head[:n]) != f.Magic[:n] {
		return 0, fmt.Errorf("%s has no %s header (refusing to overwrite; move the file aside to start fresh)", path, f.Name)
	}
	if len(head) < headerLen {
		return 0, nil
	}
	switch v := binary.LittleEndian.Uint32(head[len(f.Magic):]); {
	case v > f.Version:
		return 0, fmt.Errorf("%s is format version %d, newer than this build's %d", path, v, f.Version)
	case v < f.Version:
		return 0, nil
	}
	r.Discard(headerLen)

	// good stays 0 until the meta frame checks out: a damaged one reads
	// as a torn header, since every writer makes the header durable with
	// the first frames after it, so no durable frame can follow it.
	var good int64
	var long []byte // frames longer than r's buffer
	for off := int64(headerLen); ; {
		h, err := r.Peek(frameHeaderLen)
		if err != nil && err != io.EOF {
			return 0, err
		}
		if len(h) < frameHeaderLen {
			return good, nil
		}
		n := frameHeaderLen + int64(binary.LittleEndian.Uint32(h))
		if n > size-off {
			// Torn, or a length that a flipped bit made huge: nothing
			// that long was ever written, so read none of it.
			return good, nil
		}
		// The whole frame, so its length bytes and payload are checked
		// in place, from r's buffer when it fits.
		var frame []byte
		if n <= int64(r.Size()) {
			frame, err = r.Peek(int(n))
		} else {
			long = slices.Grow(long[:0], int(n))[:n]
			_, err = io.ReadFull(r, long)
			frame = long
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return good, nil // the file shrank since Stat
		}
		if err != nil {
			return 0, err
		}
		payload, ok := Payload(frame)
		if !ok {
			return good, nil
		}
		// The meta frame ends the header; every format written today
		// leaves it empty.
		if off > headerLen && !fn(off, payload) {
			return good, nil
		}
		if n <= int64(r.Size()) {
			r.Discard(int(n))
		}
		off += n
		good = off
	}
}

// OpenAppend opens the file at path for appending after its good prefix,
// creating it if needed: whatever follows goodLen (a torn or corrupted
// tail) is truncated away, and the file is positioned at goodLen. At a
// goodLen of 0 the caller starts the file with a header. Call it only
// for a file Walk did not refuse.
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

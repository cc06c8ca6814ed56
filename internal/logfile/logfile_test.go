package logfile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "TESTLOG!", Version: 3, Name: "test-log", Legacy: `{"legacy":`}

// sample builds a file of testFormat: a header whose meta frame holds
// "key", then three frames, one of them empty. It returns the file and
// the end offset of its header and of each frame.
func sample() (data []byte, ends []int) {
	data = testFormat.AppendHeader(nil, []byte("key"))
	ends = append(ends, len(data))
	for _, p := range []string{"first payload", "", "third"} {
		var off int
		data, off = StartFrame(data)
		data = append(data, p...)
		EndFrame(data, off)
		ends = append(ends, len(data))
	}
	return data, ends
}

// walk writes data as a file at path and walks it: the offsets and
// payloads of the frames it reports, and its good length.
func walk(t *testing.T, path string, data []byte) (offs []int64, payloads []string, goodLen int64, err error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	goodLen, err = testFormat.Walk(path, func(off int64, p []byte) bool {
		offs = append(offs, off)
		payloads = append(payloads, string(p))
		return true
	})
	return offs, payloads, goodLen, err
}

// TestLogRoundTrip writes a header and frames and walks them back whole,
// each frame at the offset it was written at.
func TestLogRoundTrip(t *testing.T) {
	data, ends := sample()
	if got := FrameLen(5); got != ends[3]-ends[2] {
		t.Fatalf("FrameLen(5) = %d, frame is %d bytes", got, ends[3]-ends[2])
	}
	offs, payloads, goodLen, err := walk(t, filepath.Join(t.TempDir(), "log"), data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(payloads, "|") != "first payload||third" || goodLen != int64(len(data)) {
		t.Fatalf("walked payloads %q, good length %d of %d", payloads, goodLen, len(data))
	}
	if want := []int64{int64(ends[0]), int64(ends[1]), int64(ends[2])}; !slices.Equal(offs, want) {
		t.Fatalf("frame offsets %v, want %v", offs, want)
	}
	// Each reported frame, read back on its own, checks out.
	for i, off := range offs {
		if p, ok := Payload(data[off:ends[i+1]]); !ok || string(p) != payloads[i] {
			t.Fatalf("frame at %d: payload %q (ok %v), want %q", off, p, ok, payloads[i])
		}
		if _, ok := Payload(data[off : ends[i+1]-1]); ok {
			t.Fatalf("frame at %d cut by a byte still checks out", off)
		}
	}
	if n, err := testFormat.Walk(filepath.Join(t.TempDir(), "missing"), nil); n != 0 || err != nil {
		t.Fatalf("missing file: good length %d, err %v; want 0, nil", n, err)
	}
	// A frame the caller rejects ends the good prefix before it.
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := testFormat.Walk(path, func(_ int64, p []byte) bool { return len(p) > 0 })
	if err != nil || got != int64(ends[1]) {
		t.Fatalf("walk stopping at the empty frame: good length %d (err %v), want %d", got, err, ends[1])
	}
}

// TestLogLongFrames walks frames longer than the read buffer, beside
// short ones, and a frame whose length runs past the end of the file,
// which is torn without a buffer of that length.
func TestLogLongFrames(t *testing.T) {
	data := testFormat.AppendHeader(nil, nil)
	var want []string
	for i, n := range []int{walkBufLen + 1, 3, 3 * walkBufLen, 0, walkBufLen} {
		p := strings.Repeat(string(rune('a'+i)), n)
		want = append(want, p)
		var off int
		data, off = StartFrame(data)
		data = append(data, p...)
		EndFrame(data, off)
	}
	path := filepath.Join(t.TempDir(), "log")
	_, payloads, goodLen, err := walk(t, path, data)
	if err != nil || goodLen != int64(len(data)) || !slices.Equal(payloads, want) {
		t.Fatalf("good length %d of %d (err %v), %d of %d payloads equal", goodLen, len(data), err, countEqual(payloads, want), len(want))
	}

	// A frame claiming 64 MiB more than the file holds: Walk stops at it
	// without a buffer of that length.
	past, off := StartFrame(append([]byte(nil), data...))
	past = append(past, "tail"...)
	EndFrame(past, off)
	binary.LittleEndian.PutUint32(past[off:], 4+64<<20)
	if err := os.WriteFile(path, past, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := testFormat.Walk(path, func(int64, []byte) bool { return true })
	runtime.ReadMemStats(&after)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("frame past the end: good length %d (err %v), want %d", n, err, len(data))
	}
	// The read buffer and the buffer for long frames, which grows to the
	// longest, 96 KiB: a buffer for the frame past the end is 64 MiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("walking the log allocated %d bytes", got)
	}
}

// countEqual counts the positions at which got and want agree.
func countEqual(got, want []string) int {
	n := 0
	for i := range min(len(got), len(want)) {
		if got[i] == want[i] {
			n++
		}
	}
	return n
}

// TestLogCutAtEveryOffset truncates the file at every length: the good
// length is the last whole-frame boundary at or below the cut, and 0
// while the header (magic, version, meta frame) is incomplete.
func TestLogCutAtEveryOffset(t *testing.T) {
	data, ends := sample()
	path := filepath.Join(t.TempDir(), "log")
	for cut := 0; cut <= len(data); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want = end
			}
		}
		_, _, goodLen, err := walk(t, path, data[:cut])
		if err != nil || goodLen != int64(want) {
			t.Fatalf("cut %d: good length %d (err %v), want %d", cut, goodLen, err, want)
		}
	}
}

// TestLogBitFlipInEveryByte flips one bit in each byte: the walk stops at
// or before the frame holding it, and only flips in the magic or the
// version give an error.
func TestLogBitFlipInEveryByte(t *testing.T) {
	data, ends := sample()
	path := filepath.Join(t.TempDir(), "log")
	for pos := range data {
		for _, bit := range []uint{0, 5, 7} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			_, _, goodLen, err := walk(t, path, mut)
			if err != nil {
				if pos >= headerLen {
					t.Fatalf("flip at %d bit %d (past the version): %v", pos, bit, err)
				}
				continue
			}
			// The frame holding pos starts at the last boundary before it;
			// the header counts as a frame starting at 0.
			start := 0
			for _, end := range ends {
				if end <= pos {
					start = end
				}
			}
			if goodLen > int64(start) {
				t.Fatalf("flip at %d bit %d: good length %d runs past the flipped frame at %d", pos, bit, goodLen, start)
			}
			if pos < len(testFormat.Magic) {
				t.Fatalf("flip at %d bit %d in the magic gave no error", pos, bit)
			}
		}
	}
}

// TestLogRefusalsAndOlderVersions: a foreign magic and a newer version
// are errors; an older version, a legacy file and a torn header read as
// empty.
func TestLogRefusalsAndOlderVersions(t *testing.T) {
	data, ends := sample()
	path := filepath.Join(t.TempDir(), "log")
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"foreign", []byte("somebody else's file\n"), "has no test-log header"},
		{"short foreign", []byte("xy"), "has no test-log header"},
		{"newer", Format{Magic: testFormat.Magic, Version: testFormat.Version + 1}.AppendHeader(nil, []byte("key")), "newer than this build's 3"},
		{"older", append(Format{Magic: testFormat.Magic, Version: testFormat.Version - 1}.AppendHeader(nil, []byte("key")), data[ends[0]:]...), ""},
		{"legacy", []byte(`{"legacy":true}` + "\n" + `{"record":1}` + "\n"), ""},
		{"torn legacy", []byte(`{"leg`), ""},
		{"empty", nil, ""},
		{"torn magic", data[:5], ""},
		{"torn version", data[:10], ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, payloads, goodLen, err := walk(t, path, tc.data)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || payloads != nil || goodLen != 0 {
				t.Fatalf("walked payloads %q, good length %d (err %v); want an empty log", payloads, goodLen, err)
			}
		})
	}
}

// TestLogZeroTailIsTorn appends zeros, as a file system may leave after a
// crash that extended the file but never wrote its data: a zero length
// with a zero checksum is no frame, because the checksum covers the
// length and the CRC-32C of four zero bytes is not zero.
func TestLogZeroTailIsTorn(t *testing.T) {
	data, _ := sample()
	path := filepath.Join(t.TempDir(), "log")
	for _, zeros := range []int{1, 8, 64} {
		_, payloads, goodLen, err := walk(t, path, append(append([]byte(nil), data...), make([]byte, zeros)...))
		if err != nil || goodLen != int64(len(data)) || len(payloads) != 3 {
			t.Fatalf("%d zeros: %d payloads, good length %d of %d (err %v)", zeros, len(payloads), goodLen, len(data), err)
		}
	}
}

// TestLogOpenAppendTruncatesToGoodPrefix drops a torn tail and appends on
// the frame boundary.
func TestLogOpenAppendTruncatesToGoodPrefix(t *testing.T) {
	data, ends := sample()
	path := filepath.Join(t.TempDir(), "log")
	torn := append(append([]byte(nil), data...), data[ends[0]:ends[1]-1]...)
	_, _, goodLen, err := walk(t, path, torn)
	if err != nil || goodLen != int64(len(data)) {
		t.Fatalf("good length %d (err %v), want %d", goodLen, err, len(data))
	}
	f, err := OpenAppend(path, goodLen)
	if err != nil {
		t.Fatal(err)
	}
	frame, off := StartFrame(nil)
	frame = append(frame, "fourth"...)
	EndFrame(frame, off)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), data...), frame...); !bytes.Equal(got, want) {
		t.Fatalf("file after append:\n got % x\nwant % x", got, want)
	}
	SyncDir(filepath.Dir(path))
	// A fresh file at good length 0 is created empty.
	fresh := filepath.Join(t.TempDir(), "fresh")
	if f, err := OpenAppend(fresh, 0); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	if fi, err := os.Stat(fresh); err != nil || fi.Size() != 0 {
		t.Fatalf("fresh file: %v (err %v), want an empty file", fi, err)
	}
}

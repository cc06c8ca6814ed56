package logfile

import (
	"bytes"
	"os"
	"path/filepath"
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

// scan reads data as a file at path and returns its meta, its accepted
// payloads and its good length.
func scan(t *testing.T, path string, data []byte) (meta []byte, payloads []string, goodLen int64, err error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := testFormat.Read(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if lg != nil {
		meta = lg.Meta
	}
	goodLen = lg.Scan(func(p []byte) bool {
		payloads = append(payloads, string(p))
		return true
	})
	return meta, payloads, goodLen, nil
}

// TestLogRoundTrip writes a header and frames and reads them back whole.
func TestLogRoundTrip(t *testing.T) {
	data, ends := sample()
	if got := HeaderLen(3); got != ends[0] {
		t.Fatalf("HeaderLen(3) = %d, header is %d bytes", got, ends[0])
	}
	if got := FrameLen(5); got != ends[3]-ends[2] {
		t.Fatalf("FrameLen(5) = %d, frame is %d bytes", got, ends[3]-ends[2])
	}
	meta, payloads, goodLen, err := scan(t, filepath.Join(t.TempDir(), "log"), data)
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != "key" || strings.Join(payloads, "|") != "first payload||third" || goodLen != int64(len(data)) {
		t.Fatalf("read meta %q, payloads %q, good length %d of %d", meta, payloads, goodLen, len(data))
	}
	if lg, err := testFormat.Read(filepath.Join(t.TempDir(), "missing")); lg != nil || err != nil {
		t.Fatalf("missing file: %v, %v; want nil, nil", lg, err)
	}
	// A frame the caller rejects ends the good prefix before it.
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := testFormat.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.Scan(func(p []byte) bool { return len(p) > 0 }); got != int64(ends[1]) {
		t.Fatalf("scan stopping at the empty frame: good length %d, want %d", got, ends[1])
	}
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
		_, _, goodLen, err := scan(t, path, data[:cut])
		if err != nil || goodLen != int64(want) {
			t.Fatalf("cut %d: good length %d (err %v), want %d", cut, goodLen, err, want)
		}
	}
}

// TestLogBitFlipInEveryByte flips one bit in each byte: the scan stops at
// or before the frame holding it, and only flips in the magic or the
// version give an error.
func TestLogBitFlipInEveryByte(t *testing.T) {
	data, ends := sample()
	path := filepath.Join(t.TempDir(), "log")
	for pos := range data {
		for _, bit := range []uint{0, 5, 7} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			_, _, goodLen, err := scan(t, path, mut)
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
	data, _ := sample()
	path := filepath.Join(t.TempDir(), "log")
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"foreign", []byte("somebody else's file\n"), "has no test-log header"},
		{"short foreign", []byte("xy"), "has no test-log header"},
		{"newer", Format{Magic: testFormat.Magic, Version: testFormat.Version + 1}.AppendHeader(nil, []byte("key")), "newer than this build's 3"},
		{"older", append(Format{Magic: testFormat.Magic, Version: testFormat.Version - 1}.AppendHeader(nil, []byte("key")), data[HeaderLen(3):]...), ""},
		{"legacy", []byte(`{"legacy":true}` + "\n" + `{"record":1}` + "\n"), ""},
		{"torn legacy", []byte(`{"leg`), ""},
		{"empty", nil, ""},
		{"torn magic", data[:5], ""},
		{"torn version", data[:10], ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta, payloads, goodLen, err := scan(t, path, tc.data)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || meta != nil || payloads != nil || goodLen != 0 {
				t.Fatalf("read meta %q, payloads %q, good length %d (err %v); want an empty log", meta, payloads, goodLen, err)
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
		_, payloads, goodLen, err := scan(t, path, append(append([]byte(nil), data...), make([]byte, zeros)...))
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
	_, _, goodLen, err := scan(t, path, torn)
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

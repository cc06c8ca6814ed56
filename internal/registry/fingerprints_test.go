package registry

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from Parse")

// benchTypePool is the /v1/analyze type pool of bench/reprodbench
// (typePool in pools.go), copied as a list so that this test does not
// move when the benchmark's pool does.
var benchTypePool = []string{
	"faa:2", "counter:2", "faa:3", "counter:3", "faa:4", "counter:4", "faa:5",
	"counter:5", "faa:6", "counter:6", "faa:7", "counter:7", "faa:8",
	"counter:8", "faa:9", "counter:9", "faa:10", "counter:10", "faa:11",
	"counter:11", "faa:12", "counter:12", "faa:13", "counter:13", "faa:14",
	"counter:14", "faa:15", "counter:15", "faa:16", "counter:16", "faa:17",
	"counter:17", "faa:18", "counter:18", "faa:19", "counter:19", "faa:20",
	"counter:20", "faa:21", "counter:21", "faa:22", "counter:22", "faa:23",
	"counter:23", "faa:24", "counter:24", "tnn:2,1", "tnn:3,1", "tnn:3,2",
	"tnn:4,1", "tnn:4,2", "tnn:4,3", "tnn:5,1", "tnn:5,2", "tnn:5,3",
	"tnn:5,4", "tnn:6,1", "tnn:6,2", "tnn:6,3", "tnn:6,4", "tnn:6,5",
	"tnn:7,1", "tnn:7,2", "tnn:7,3", "tnn:7,4", "tnn:7,5", "tnn:7,6",
	"tnn:8,1", "tnn:8,2", "tnn:8,3", "tnn:8,4", "tnn:8,5", "tnn:8,6",
	"tnn:8,7", "y:3", "y:4", "y:5", "y:6", "y:7", "y:8", "queue:1", "stack:1",
	"peekqueue:1", "queue:2", "stack:2", "peekqueue:2", "queue:3", "stack:3",
	"peekqueue:3", "queue:4", "stack:4", "peekqueue:4", "cas:2", "cas:3",
	"cas:4", "cas:5", "cas:6", "cas:7", "cas:8", "cas:9", "cas:10",
	"register:1", "swap:1", "register:2", "swap:2", "register:3", "swap:3",
	"tas", "sticky", "x4", "x5", "trivial", "product:tas,register:1",
	"product:tas,swap:1", "product:tas,trivial", "product:tas,faa:2",
	"product:tas,counter:2", "product:tas,faa:3", "product:tas,counter:3",
	"product:tas,faa:4", "product:tas,counter:4", "product:tas,faa:5",
	"product:tas,counter:5", "product:tas,faa:6", "product:tas,counter:6",
	"product:register:1,swap:1", "product:register:1,trivial",
	"product:register:1,faa:2", "product:register:1,counter:2",
	"product:register:1,faa:3", "product:register:1,counter:3",
	"product:register:1,faa:4", "product:register:1,counter:4",
	"product:register:1,faa:5", "product:register:1,counter:5",
	"product:register:1,faa:6", "product:register:1,counter:6",
	"product:swap:1,trivial", "product:swap:1,faa:2",
	"product:swap:1,counter:2", "product:swap:1,faa:3",
	"product:swap:1,counter:3", "product:swap:1,faa:4",
	"product:swap:1,counter:4", "product:swap:1,faa:5",
	"product:swap:1,counter:5", "product:swap:1,faa:6",
	"product:swap:1,counter:6", "product:trivial,faa:2",
	"product:trivial,counter:2", "product:trivial,faa:3",
	"product:trivial,counter:3", "product:trivial,faa:4",
	"product:trivial,counter:4", "product:trivial,faa:5",
	"product:trivial,counter:5", "product:trivial,faa:6",
	"product:trivial,counter:6", "product:faa:2,counter:2",
	"product:faa:2,faa:3", "product:faa:2,counter:3", "product:faa:2,faa:4",
	"product:faa:2,counter:4", "product:faa:2,faa:5",
	"product:faa:2,counter:5", "product:faa:2,faa:6",
	"product:faa:2,counter:6", "product:counter:2,faa:3",
	"product:counter:2,counter:3", "product:counter:2,faa:4",
	"product:counter:2,counter:4", "product:counter:2,faa:5",
	"product:counter:2,counter:5", "product:counter:2,faa:6",
	"product:counter:2,counter:6", "product:faa:3,counter:3",
	"product:faa:3,faa:4", "product:faa:3,counter:4", "product:faa:3,faa:5",
	"product:faa:3,counter:5", "product:faa:3,faa:6",
	"product:faa:3,counter:6", "product:counter:3,faa:4",
	"product:counter:3,counter:4", "product:counter:3,faa:5",
	"product:counter:3,counter:5", "product:counter:3,faa:6",
	"product:counter:3,counter:6", "product:faa:4,counter:4",
	"product:faa:4,faa:5", "product:faa:4,counter:5", "product:faa:4,faa:6",
	"product:faa:4,counter:6", "product:counter:4,faa:5",
	"product:counter:4,counter:5", "product:counter:4,faa:6",
	"product:counter:4,counter:6", "product:faa:5,counter:5",
	"product:faa:5,faa:6", "product:faa:5,counter:6",
	"product:counter:5,faa:6", "product:counter:5,counter:6",
	"product:faa:6,counter:6",
}

// fingerprintDescriptors are the descriptors whose types TestFingerprintsGolden
// pins: the bench type pool, the largest type of the decider difftest,
// and the descriptors of this package's tests, which include every type
// the README names.
func fingerprintDescriptors() []string {
	out := append([]string(nil), benchTypePool...)
	out = append(out, "counter:70",
		"register", "swap", "faa", "cas", "counter", "maxreg", "queue",
		"tnn:5,2", "maxreg:5", "product:tas,register:2", "product:tnn:3,1,tas",
		"product:product:tas,tas,register:2")
	return out
}

// fingerprintLine renders the identity of one parsed type: its
// fingerprint (the decision journal's key), its value and operation
// counts, whether it is readable, and SHA-256 sums of its transition
// table and DOT renderings, which cover value, operation and response
// names.
func fingerprintLine(desc string) (string, error) {
	ft, err := Parse(desc)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\t%016x\t%d\t%d\t%t\t%x\t%x", desc, ft.Fingerprint(),
		ft.NumValues(), ft.NumOps(), ft.Readable(),
		sha256.Sum256([]byte(ft.TransitionTable())), sha256.Sum256([]byte(ft.Dot()))), nil
}

// TestFingerprintsGolden checks that every pinned descriptor still builds
// the type it built when the golden file was written. The fingerprint
// keys every decision-journal record, so a type that moved one value,
// operation or response would turn every stored decision into a miss.
func TestFingerprintsGolden(t *testing.T) {
	var b strings.Builder
	for _, desc := range fingerprintDescriptors() {
		line, err := fingerprintLine(desc)
		if err != nil {
			t.Fatalf("Parse(%q): %v", desc, err)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d descriptors, golden file has %d lines", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("type identity changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

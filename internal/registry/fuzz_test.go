package registry

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// FuzzRegistryParse feeds arbitrary descriptors to Parse and
// ParseProtocol, the parsers of every descriptor an HTTP request names.
// Neither may panic. An accepted type is valid, within the product cell
// bound, and parses again to an equal type with the same fingerprint; an
// accepted protocol is valid and parses again to the same protocol.
func FuzzRegistryParse(f *testing.F) {
	for _, e := range entries {
		f.Add(e.Name)
	}
	for _, e := range protocolEntries {
		f.Add(e.Name)
	}
	for _, desc := range benchTypePool {
		f.Add(desc)
	}
	for _, desc := range protocolPool {
		f.Add(desc)
	}
	for _, desc := range []string{
		"product:product:tas,tas,register:2", "product:tnn:3,1,tas",
		"product:tas,product:x4,trivial", "product:y:128,faa:128",
		"faa:1000000", "register:1000", "product:faa:1000,faa:1000",
		"tnn-wf:100000,1", "product:" + strings.Repeat("tas,", 40) + "tas",
		"", " ", ":", "faa:", "faa:5,", "tnn:-1,-2", "product:", "product:,",
	} {
		f.Add(desc)
	}
	f.Fuzz(func(t *testing.T, desc string) {
		if ft, err := Parse(desc); err == nil {
			if err := ft.Validate(); err != nil {
				t.Fatalf("Parse(%q) accepted an invalid type: %v", desc, err)
			}
			if cells := ft.NumValues() * ft.NumOps(); cells > MaxProductCells {
				t.Fatalf("Parse(%q) built %d table cells, above the bound %d", desc, cells, MaxProductCells)
			}
			again, err := Parse(desc)
			if err != nil {
				t.Fatalf("Parse(%q) failed on the second call: %v", desc, err)
			}
			if !ft.Equal(again) || ft.Fingerprint() != again.Fingerprint() {
				t.Fatalf("Parse(%q) built two different types", desc)
			}
		}
		if pr, err := ParseProtocol(desc); err == nil {
			if err := model.Validate(pr); err != nil {
				t.Fatalf("ParseProtocol(%q) accepted an invalid protocol: %v", desc, err)
			}
			again, err := ParseProtocol(desc)
			if err != nil {
				t.Fatalf("ParseProtocol(%q) failed on the second call: %v", desc, err)
			}
			if pr.Name() != again.Name() || pr.Procs() != again.Procs() {
				t.Fatalf("ParseProtocol(%q) built two different protocols", desc)
			}
		}
	})
}

// Package registry names the executable artifacts for command-line tools
// and the HTTP service: it parses compact descriptors into constructed
// values.
//
// Two registries live here:
//
//   - Types: descriptors such as "tas", "tnn:5,2", "cas:3",
//     "register:2" or "product:tas,register:2" resolve to
//     spec.FiniteType values (Parse, Names, Help).
//   - Protocols: descriptors such as "tnn-wf:3,2", "tnn-rec:3,2",
//     "cas-rec:2" or "tas-reg" resolve to model.Protocol values for the
//     model checker and /v1/check (ParseProtocol, ProtocolNames,
//     ProtocolHelp).
//
// Unknown names error with the full list of valid descriptors, so a typo
// at an API boundary is self-documenting.
//
// # Bounds
//
// Descriptors arrive in HTTP requests before any admission control, so
// both parsers bound them before building anything: a descriptor is at
// most MaxDescriptorLen (128) bytes, every integer parameter at most
// MaxParam (128), and a product type at most MaxProductCells (65536)
// table cells, values × operations. Past a bound the error names it.
// Within the bounds the largest single type has 16641 cells, and the
// slowest descriptor found parses in tens of milliseconds: nested
// products re-parse their components at every comma a split tries.
//
// # Concurrency and stability
//
// The registries are static: parsing allocates a fresh value per call,
// never shares state between calls, and is safe for concurrent use.
// Descriptor strings are stable identifiers — they appear in HTTP
// requests, cache keys derived from the constructed types' structural
// fingerprints remain valid across processes, and renaming an entry is
// an API break.
package registry

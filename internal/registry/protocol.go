package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/proto"
)

// ProtocolEntry describes one registered consensus-protocol family,
// parallel to Entry for types.
type ProtocolEntry struct {
	// Name is the descriptor prefix (e.g. "tnn-wf").
	Name string
	// Usage documents the parameter syntax (e.g. "tnn-wf:n,n'[,procs]").
	Usage string
	// Help is a one-line description.
	Help string
	// Build constructs the protocol from the parsed integer parameters.
	Build func(args []int) (model.Protocol, error)
	// MinArgs and MaxArgs bound the parameter count.
	MinArgs, MaxArgs int
}

// protocolEntries is the static protocol registry: the paper's T_{n,n'}
// algorithms, the CAS baselines and Golab's TAS+registers separation.
var protocolEntries = []ProtocolEntry{
	{
		Name: "tnn-wf", Usage: "tnn-wf:n,n'[,procs]",
		Help:    "the paper's wait-free consensus from one T_{n,n'} object (procs defaults to n)",
		MinArgs: 2, MaxArgs: 3,
		Build: func(a []int) (model.Protocol, error) {
			n, nPrime := a[0], a[1]
			if n <= nPrime || nPrime < 1 {
				return nil, fmt.Errorf("tnn-wf: need n > n' >= 1")
			}
			procs := n
			if len(a) > 2 {
				procs = a[2]
			}
			if procs < 1 {
				return nil, fmt.Errorf("tnn-wf: need procs >= 1")
			}
			return proto.NewTnnWaitFree(n, nPrime, procs), nil
		},
	},
	{
		Name: "tnn-rec", Usage: "tnn-rec:n,n'[,procs]",
		Help:    "the paper's recoverable consensus from one T_{n,n'} object (procs defaults to n')",
		MinArgs: 2, MaxArgs: 3,
		Build: func(a []int) (model.Protocol, error) {
			n, nPrime := a[0], a[1]
			if n <= nPrime || nPrime < 1 {
				return nil, fmt.Errorf("tnn-rec: need n > n' >= 1")
			}
			procs := nPrime
			if len(a) > 2 {
				procs = a[2]
			}
			if procs < 1 {
				return nil, fmt.Errorf("tnn-rec: need procs >= 1")
			}
			return proto.NewTnnRecoverable(n, nPrime, procs), nil
		},
	},
	{
		Name: "cas-wf", Usage: "cas-wf[:procs]",
		Help:    "wait-free consensus from compare-and-swap (default 2 processes)",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (model.Protocol, error) {
			procs := 2
			if len(a) > 0 {
				procs = a[0]
			}
			if procs < 1 {
				return nil, fmt.Errorf("cas-wf: need procs >= 1")
			}
			return proto.NewCASWaitFree(procs), nil
		},
	},
	{
		Name: "cas-rec", Usage: "cas-rec[:procs]",
		Help:    "recoverable consensus from compare-and-swap (default 2 processes)",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (model.Protocol, error) {
			procs := 2
			if len(a) > 0 {
				procs = a[0]
			}
			if procs < 1 {
				return nil, fmt.Errorf("cas-rec: need procs >= 1")
			}
			return proto.NewCASRecoverable(procs), nil
		},
	},
	{
		Name: "tas-reg", Usage: "tas-reg",
		Help:    "classic 2-process consensus from TAS + registers (fails under crashes: Golab's separation)",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (model.Protocol, error) { return proto.NewTASConsensus(), nil },
	},
}

// ProtocolNames returns the registered protocol descriptor names, sorted.
func ProtocolNames() []string {
	out := make([]string, 0, len(protocolEntries))
	for _, e := range protocolEntries {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// ProtocolEntries returns the protocol registry sorted by name.
func ProtocolEntries() []ProtocolEntry {
	out := make([]ProtocolEntry, len(protocolEntries))
	copy(out, protocolEntries)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProtocolHelp renders a usage table of all registered protocols.
func ProtocolHelp() string {
	var b strings.Builder
	for _, e := range ProtocolEntries() {
		fmt.Fprintf(&b, "  %-22s %s\n", e.Usage, e.Help)
	}
	fmt.Fprintf(&b, "  (descriptors: at most %d bytes, parameters at most %d)\n",
		MaxDescriptorLen, MaxParam)
	return b.String()
}

// ParseProtocol resolves a descriptor like "tnn-wf:3,2" or "cas-rec:3"
// into a model-checkable consensus protocol. Unknown names error with
// the list of valid descriptors. Like Parse, it rejects descriptors
// longer than MaxDescriptorLen and parameters above MaxParam before
// building anything.
func ParseProtocol(desc string) (model.Protocol, error) {
	if err := checkLen("protocol", desc); err != nil {
		return nil, err
	}
	desc = strings.TrimSpace(desc)
	if desc == "" {
		return nil, fmt.Errorf("empty protocol descriptor")
	}
	name, rest, hasArgs := strings.Cut(desc, ":")
	for _, e := range protocolEntries {
		if e.Name != name {
			continue
		}
		args, err := parseArgs(name, rest, hasArgs)
		if err != nil {
			return nil, err
		}
		if len(args) < e.MinArgs || len(args) > e.MaxArgs {
			return nil, fmt.Errorf("%s: want %d..%d parameters, got %d (usage: %s)",
				name, e.MinArgs, e.MaxArgs, len(args), e.Usage)
		}
		return e.Build(args)
	}
	return nil, fmt.Errorf("unknown protocol %q (valid names: %s)",
		name, strings.Join(ProtocolNames(), ", "))
}

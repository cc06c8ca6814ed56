package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/spec"
	"repro/internal/types"
)

// Entry describes one registered type family.
type Entry struct {
	// Name is the descriptor prefix (e.g. "tnn").
	Name string
	// Usage documents the parameter syntax (e.g. "tnn:n,n'").
	Usage string
	// Help is a one-line description.
	Help string
	// Build constructs the type from the parsed integer parameters.
	Build func(args []int) (*spec.FiniteType, error)
	// MinArgs and MaxArgs bound the parameter count.
	MinArgs, MaxArgs int
}

// entries is the static registry.
var entries = []Entry{
	{
		Name: "register", Usage: "register[:k]", Help: "read/write register over k values (default 2); cons=1",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			k := 2
			if len(a) > 0 {
				k = a[0]
			}
			if k < 1 {
				return nil, fmt.Errorf("register: k must be >= 1")
			}
			return types.Register(k), nil
		},
	},
	{
		Name: "tas", Usage: "tas", Help: "test-and-set bit; cons=2, rcons=1 (Golab's gap)",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (*spec.FiniteType, error) { return types.TestAndSet(), nil },
	},
	{
		Name: "swap", Usage: "swap[:k]", Help: "swap object over k values (default 2); cons=2",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			k := 2
			if len(a) > 0 {
				k = a[0]
			}
			if k < 1 {
				return nil, fmt.Errorf("swap: k must be >= 1")
			}
			return types.Swap(k), nil
		},
	},
	{
		Name: "faa", Usage: "faa[:m]", Help: "fetch-and-add mod m (default 8); cons=2",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			m := 8
			if len(a) > 0 {
				m = a[0]
			}
			if m < 2 {
				return nil, fmt.Errorf("faa: modulus must be >= 2")
			}
			return types.FetchAdd(m), nil
		},
	},
	{
		Name: "cas", Usage: "cas[:k]", Help: "compare-and-swap over k proposals (default 2); cons=rcons=inf",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			k := 2
			if len(a) > 0 {
				k = a[0]
			}
			if k < 2 {
				return nil, fmt.Errorf("cas: k must be >= 2")
			}
			return types.CompareAndSwap(k), nil
		},
	},
	{
		Name: "sticky", Usage: "sticky", Help: "sticky bit; cons=rcons=inf",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (*spec.FiniteType, error) { return types.StickyBit(), nil },
	},
	{
		Name: "counter", Usage: "counter[:m]", Help: "bounded counter with blind increment; cons=1",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			m := 4
			if len(a) > 0 {
				m = a[0]
			}
			if m < 2 {
				return nil, fmt.Errorf("counter: bound must be >= 2")
			}
			return types.Counter(m), nil
		},
	},
	{
		Name: "maxreg", Usage: "maxreg[:m]", Help: "max-register over 0..m-1; cons=1",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			m := 4
			if len(a) > 0 {
				m = a[0]
			}
			if m < 2 {
				return nil, fmt.Errorf("maxreg: bound must be >= 2")
			}
			return types.MaxRegister(m), nil
		},
	},
	{
		Name: "queue", Usage: "queue[:cap]", Help: "bounded FIFO queue over {0,1} (default cap 2); cons=2",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			c := 2
			if len(a) > 0 {
				c = a[0]
			}
			if c < 1 || c > 4 {
				return nil, fmt.Errorf("queue: capacity must be in [1,4]")
			}
			return types.Queue(c), nil
		},
	},
	{
		Name: "peekqueue", Usage: "peekqueue[:cap]", Help: "queue with Peek (readable); cons=rcons=inf (Herlihy's augmented queue)",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			c := 2
			if len(a) > 0 {
				c = a[0]
			}
			if c < 1 || c > 4 {
				return nil, fmt.Errorf("peekqueue: capacity must be in [1,4]")
			}
			return types.PeekQueue(c), nil
		},
	},
	{
		Name: "stack", Usage: "stack[:cap]", Help: "bounded LIFO stack over {0,1}; cons=2",
		MinArgs: 0, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			c := 2
			if len(a) > 0 {
				c = a[0]
			}
			if c < 1 || c > 4 {
				return nil, fmt.Errorf("stack: capacity must be in [1,4]")
			}
			return types.Stack(c), nil
		},
	},
	{
		Name: "tnn", Usage: "tnn:n,n'", Help: "the paper's T_{n,n'}; cons=n, rcons=n' (Section 4)",
		MinArgs: 2, MaxArgs: 2,
		Build: func(a []int) (*spec.FiniteType, error) {
			if a[0] <= a[1] || a[1] < 1 {
				return nil, fmt.Errorf("tnn: need n > n' >= 1")
			}
			return types.Tnn(a[0], a[1]), nil
		},
	},
	{
		Name: "y", Usage: "y:n", Help: "readable chain family Y_n; cons=n, rcons=n-1",
		MinArgs: 1, MaxArgs: 1,
		Build: func(a []int) (*spec.FiniteType, error) {
			if a[0] < 2 {
				return nil, fmt.Errorf("y: need n >= 2")
			}
			return types.TnnReadable(a[0]), nil
		},
	},
	{
		Name: "x4", Usage: "x4", Help: "readable type with cons=4, rcons=2 (paper's gap-2 corollary, n=4)",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (*spec.FiniteType, error) { return types.XFour(), nil },
	},
	{
		Name: "x5", Usage: "x5", Help: "readable type with cons=5, rcons=3 (paper's gap-2 corollary, n=5)",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (*spec.FiniteType, error) { return types.XFive(), nil },
	},
	{
		Name: "trivial", Usage: "trivial", Help: "one-value no-op type; cons=1",
		MinArgs: 0, MaxArgs: 0,
		Build: func([]int) (*spec.FiniteType, error) { return types.Trivial(), nil },
	},
}

// Names returns the registered descriptor names, sorted, including the
// structural "product" combinator.
func Names() []string {
	out := make([]string, 0, len(entries)+1)
	for _, e := range entries {
		out = append(out, e.Name)
	}
	out = append(out, "product")
	sort.Strings(out)
	return out
}

// Entries returns the registry sorted by name.
func Entries() []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Help renders a usage table of all registered descriptors.
func Help() string {
	var b strings.Builder
	for _, e := range Entries() {
		fmt.Fprintf(&b, "  %-14s %s\n", e.Usage, e.Help)
	}
	b.WriteString("  product:A,B    independent pair of two registered types\n")
	fmt.Fprintf(&b, "  (descriptors: at most %d bytes, parameters at most %d, products at most %d table cells)\n",
		MaxDescriptorLen, MaxParam, MaxProductCells)
	return b.String()
}

// Bounds on a descriptor, checked by Parse and ParseProtocol before
// anything is built. Descriptors arrive from HTTP requests, so they are
// untrusted input, and the cost of building a type or protocol grows
// with its parameters.
const (
	// MaxDescriptorLen bounds a descriptor's length in bytes.
	MaxDescriptorLen = 128
	// MaxParam bounds every integer parameter of a descriptor.
	MaxParam = 128
	// MaxProductCells bounds the transition table of a product type,
	// values × operations. A larger product is rejected before it is
	// built.
	MaxProductCells = 1 << 16
)

// Parse resolves a descriptor like "tnn:5,2", "tas" or
// "product:tas,register:2" into a type. Descriptors longer than
// MaxDescriptorLen, parameters above MaxParam and products of more than
// MaxProductCells table cells are rejected before any type is built.
func Parse(desc string) (*spec.FiniteType, error) {
	if err := checkLen("type", desc); err != nil {
		return nil, err
	}
	desc = strings.TrimSpace(desc)
	if desc == "" {
		return nil, fmt.Errorf("empty type descriptor")
	}
	name, rest, hasArgs := strings.Cut(desc, ":")
	if name == "product" {
		if !hasArgs {
			return nil, fmt.Errorf("product needs two component descriptors: product:A,B")
		}
		a, b, err := splitProductArgs(rest)
		if err != nil {
			return nil, err
		}
		return types.Product(a, b), nil
	}
	for _, e := range entries {
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
	return nil, fmt.Errorf("unknown type %q (valid names: %s)", name, strings.Join(Names(), ", "))
}

// checkLen rejects a descriptor longer than MaxDescriptorLen.
func checkLen(kind, desc string) error {
	if len(desc) > MaxDescriptorLen {
		return fmt.Errorf("%s descriptor of %d bytes exceeds the maximum of %d", kind, len(desc), MaxDescriptorLen)
	}
	return nil
}

// parseArgs parses the comma-separated integer parameters of a
// descriptor, rejecting any above MaxParam.
func parseArgs(name, rest string, hasArgs bool) ([]int, error) {
	var args []int
	for more := hasArgs && rest != ""; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%s: bad parameter %q", name, part)
		}
		if v > MaxParam {
			return nil, fmt.Errorf("%s: parameter %d exceeds the maximum of %d", name, v, MaxParam)
		}
		args = append(args, v)
	}
	return args, nil
}

// splitProductArgs splits "A,B" at the top-level comma, where A and B may
// themselves contain commas inside their own parameter lists, and returns
// the two component types. The split point is the first comma that
// leaves both sides parseable (every comma position is tried in order);
// when none does, the error of the last side tried is reported. A pair
// whose product would exceed MaxProductCells is rejected here, before
// the product is built.
func splitProductArgs(rest string) (*spec.FiniteType, *spec.FiniteType, error) {
	var last error
	for i, c := range rest {
		if c != ',' {
			continue
		}
		a, err := Parse(rest[:i])
		if err != nil {
			last = err
			continue
		}
		b, err := Parse(rest[i+1:])
		if err != nil {
			last = err
			continue
		}
		values, ops := a.NumValues()*b.NumValues(), a.NumOps()+b.NumOps()
		if values*ops > MaxProductCells {
			return nil, nil, fmt.Errorf("product: %d values × %d operations = %d table cells exceed the maximum of %d",
				values, ops, values*ops, MaxProductCells)
		}
		return a, b, nil
	}
	if last != nil {
		return nil, nil, fmt.Errorf("cannot split product components in %q: %w", rest, last)
	}
	return nil, nil, fmt.Errorf("cannot split product components in %q", rest)
}

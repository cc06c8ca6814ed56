package types

import (
	"fmt"
	"strconv"

	"repro/internal/spec"
)

// Response code conventions shared by the zoo. Each constructor documents
// its own responses; the constants below are the common ones.
const (
	// RespOK is returned by operations whose response carries no
	// information (e.g. a register Write).
	RespOK spec.Response = 1000
	// RespReadBase is the base response code used for Read responses:
	// reading a value with index i returns RespReadBase + i.
	RespReadBase spec.Response = 2000
)

// indexedNames returns prefix0, prefix1, ..., prefix{k-1}.
func indexedNames(prefix string, k int) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// Register returns a readable read/write register over k values
// ("v0"..."v{k-1}"), with Write_i operations (response RespOK) and a Read
// operation. Registers have consensus number 1.
func Register(k int) *spec.FiniteType {
	if k < 1 {
		panic(fmt.Sprintf("Register: need k >= 1, got %d", k))
	}
	b := spec.NewBuilder(fmt.Sprintf("register[%d]", k))
	names := indexedNames("v", k)
	writes := indexedNames("write", k)
	b.Values(names...)
	b.Ops(writes...)
	b.Ops("read")
	b.NameResponse(RespOK, "ok")
	for _, from := range names {
		for i, w := range writes {
			b.Transition(from, w, RespOK, names[i])
		}
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// TestAndSet returns a readable test-and-set bit: TAS returns the old value
// (0 or 1) and sets the bit; Read returns the current value. Test-and-set
// has consensus number 2 (Herlihy) and recoverable consensus number 1
// (Golab): it is 2-discerning but not 2-recording.
func TestAndSet() *spec.FiniteType {
	b := spec.NewBuilder("test-and-set")
	b.Values("0", "1")
	b.Ops("TAS", "read")
	b.NameResponse(0, "0")
	b.NameResponse(1, "1")
	b.Transition("0", "TAS", 0, "1")
	b.Transition("1", "TAS", 1, "1")
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// Swap returns a readable swap object over k values: Swap_i writes value i
// and returns the old value's index; Read returns the current value. Swap
// has consensus number 2.
func Swap(k int) *spec.FiniteType {
	if k < 1 {
		panic(fmt.Sprintf("Swap: need k >= 1, got %d", k))
	}
	b := spec.NewBuilder(fmt.Sprintf("swap[%d]", k))
	names := indexedNames("v", k)
	swaps := indexedNames("swap", k)
	b.Values(names...)
	b.Ops(swaps...)
	b.Ops("read")
	for from := 0; from < k; from++ {
		for i, sw := range swaps {
			b.Transition(names[from], sw, spec.Response(from), names[i])
		}
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// FetchAdd returns a readable fetch-and-add object over Z_m: FAA returns
// the old value and increments modulo m; Read returns the current value.
// Fetch-and-add has consensus number 2.
func FetchAdd(m int) *spec.FiniteType {
	if m < 2 {
		panic(fmt.Sprintf("FetchAdd: need modulus >= 2, got %d", m))
	}
	b := spec.NewBuilder(fmt.Sprintf("fetch-and-add[%d]", m))
	names := indexedNames("", m)
	b.Values(names...)
	b.Ops("FAA", "read")
	for v := 0; v < m; v++ {
		b.Transition(names[v], "FAA", spec.Response(v), names[(v+1)%m])
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// CompareAndSwap returns a readable compare-and-swap object over the values
// {bot, v0, ..., v{k-1}}. CAS_i succeeds (response 1, value becomes vi) if
// the current value is bot, and otherwise fails, returning a response that
// identifies the current value. Read returns the current value.
// Compare-and-swap is n-discerning and n-recording for every n, so it has
// unbounded consensus number and unbounded recoverable consensus number.
func CompareAndSwap(k int) *spec.FiniteType {
	if k < 2 {
		panic(fmt.Sprintf("CompareAndSwap: need k >= 2 proposal values, got %d", k))
	}
	b := spec.NewBuilder(fmt.Sprintf("compare-and-swap[%d]", k))
	names := append([]string{"bot"}, indexedNames("v", k)...)
	cas := indexedNames("cas", k)
	b.Values(names...)
	b.Ops(cas...)
	b.Ops("read")
	// Response conventions: a successful CAS returns 100; a failed CAS
	// returns 200 + index of the value that was already installed.
	b.NameResponse(100, "success")
	for i := 0; i < k; i++ {
		b.NameResponse(200+spec.Response(i), "lost:"+names[i+1])
	}
	for i, op := range cas {
		b.Transition("bot", op, 100, names[i+1])
		for j := 0; j < k; j++ {
			b.Transition(names[j+1], op, 200+spec.Response(j), names[j+1])
		}
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// StickyBit returns a readable sticky bit: the first Set_i operation fixes
// the value to i; later Set operations return the fixed value and leave it
// unchanged. Read returns the current value. Sticky bits are n-discerning
// and n-recording for every n.
func StickyBit() *spec.FiniteType {
	b := spec.NewBuilder("sticky-bit")
	b.Values("bot", "0", "1")
	b.Ops("set0", "set1", "read")
	b.NameResponse(0, "stuck:0")
	b.NameResponse(1, "stuck:1")
	b.Transition("bot", "set0", 0, "0")
	b.Transition("bot", "set1", 1, "1")
	for _, v := range []string{"0", "1"} {
		r := spec.Response(0)
		if v == "1" {
			r = 1
		}
		b.Transition(v, "set0", r, v)
		b.Transition(v, "set1", r, v)
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// Counter returns a readable bounded counter over {0..m-1}: Inc increments
// (saturating at m-1) and returns RespOK (no information), Read returns the
// current value. Counters with uninformative Inc have consensus number 1.
func Counter(m int) *spec.FiniteType {
	if m < 2 {
		panic(fmt.Sprintf("Counter: need bound >= 2, got %d", m))
	}
	b := spec.NewBuilder(fmt.Sprintf("counter[%d]", m))
	names := indexedNames("", m)
	b.Values(names...)
	b.Ops("inc", "read")
	b.NameResponse(RespOK, "ok")
	for v := 0; v < m; v++ {
		next := v + 1
		if next >= m {
			next = m - 1
		}
		b.Transition(names[v], "inc", RespOK, names[next])
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// MaxRegister returns a readable max-register over {0..m-1}: WriteMax_i
// raises the value to max(current, i) and returns RespOK; Read returns the
// current value. Max-registers have consensus number 1.
func MaxRegister(m int) *spec.FiniteType {
	if m < 2 {
		panic(fmt.Sprintf("MaxRegister: need bound >= 2, got %d", m))
	}
	b := spec.NewBuilder(fmt.Sprintf("max-register[%d]", m))
	names := indexedNames("", m)
	wmax := indexedNames("wmax", m)
	b.Values(names...)
	b.Ops(wmax...)
	b.Ops("read")
	b.NameResponse(RespOK, "ok")
	for v := 0; v < m; v++ {
		for i, op := range wmax {
			next := v
			if i > v {
				next = i
			}
			b.Transition(names[v], op, RespOK, names[next])
		}
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// Queue returns a bounded FIFO queue holding at most cap elements from
// {0, 1}. Enq_i appends i (response RespOK; full queues drop the element),
// Deq removes and returns the head (response 0 or 1; empty queues return
// response 99). The queue is not readable (Deq mutates; Enq is
// uninformative). Queues have consensus number 2.
func Queue(capacity int) *spec.FiniteType {
	if capacity < 1 || capacity > 4 {
		panic(fmt.Sprintf("Queue: capacity must be in [1,4], got %d", capacity))
	}
	b := spec.NewBuilder(fmt.Sprintf("queue[%d]", capacity))
	// Values are queue contents as strings over {0,1}, length <= capacity.
	var states []string
	var gen func(prefix string)
	gen = func(prefix string) {
		states = append(states, "q"+prefix)
		if len(prefix) == capacity {
			return
		}
		gen(prefix + "0")
		gen(prefix + "1")
	}
	gen("")
	b.Values(states...)
	b.Ops("enq0", "enq1", "deq")
	b.NameResponse(RespOK, "ok")
	b.NameResponse(99, "empty")
	b.NameResponse(0, "0")
	b.NameResponse(1, "1")
	for _, st := range states {
		contents := st[1:]
		for i := 0; i < 2; i++ {
			next := st
			if len(contents) < capacity {
				next = st + fmt.Sprintf("%d", i)
			}
			b.Transition(st, fmt.Sprintf("enq%d", i), RespOK, next)
		}
		if len(contents) == 0 {
			b.Transition(st, "deq", 99, st)
		} else {
			head := spec.Response(contents[0] - '0')
			b.Transition(st, "deq", head, "q"+contents[1:])
		}
	}
	return b.MustBuild()
}

// PeekQueue returns the bounded FIFO queue augmented with a Peek
// operation that returns the entire queue contents without changing them
// — which makes the type readable. Herlihy showed the augmented queue has
// unbounded consensus number; the deciders confirm it is n-discerning and
// n-recording at every tested n (the head of the queue records the first
// enqueuer forever and Peek makes it observable).
func PeekQueue(capacity int) *spec.FiniteType {
	if capacity < 1 || capacity > 4 {
		panic(fmt.Sprintf("PeekQueue: capacity must be in [1,4], got %d", capacity))
	}
	b := spec.NewBuilder(fmt.Sprintf("peek-queue[%d]", capacity))
	var states []string
	var gen func(prefix string)
	gen = func(prefix string) {
		states = append(states, "q"+prefix)
		if len(prefix) == capacity {
			return
		}
		gen(prefix + "0")
		gen(prefix + "1")
	}
	gen("")
	b.Values(states...)
	b.Ops("enq0", "enq1", "deq", "peek")
	b.NameResponse(RespOK, "ok")
	b.NameResponse(99, "empty")
	b.NameResponse(0, "0")
	b.NameResponse(1, "1")
	for _, st := range states {
		contents := st[1:]
		for i := 0; i < 2; i++ {
			next := st
			if len(contents) < capacity {
				next = st + fmt.Sprintf("%d", i)
			}
			b.Transition(st, fmt.Sprintf("enq%d", i), RespOK, next)
		}
		if len(contents) == 0 {
			b.Transition(st, "deq", 99, st)
		} else {
			head := spec.Response(contents[0] - '0')
			b.Transition(st, "deq", head, "q"+contents[1:])
		}
	}
	b.ReadOp("peek", RespReadBase)
	return b.MustBuild()
}

// Stack returns a bounded LIFO stack holding at most cap elements from
// {0, 1}: Push_i (response RespOK; full stacks drop), Pop removes and
// returns the top (response 0 or 1; empty stacks return 99). Like the
// queue it is non-readable; stacks have consensus number 2.
func Stack(capacity int) *spec.FiniteType {
	if capacity < 1 || capacity > 4 {
		panic(fmt.Sprintf("Stack: capacity must be in [1,4], got %d", capacity))
	}
	b := spec.NewBuilder(fmt.Sprintf("stack[%d]", capacity))
	var states []string
	var gen func(prefix string)
	gen = func(prefix string) {
		states = append(states, "s"+prefix)
		if len(prefix) == capacity {
			return
		}
		gen(prefix + "0")
		gen(prefix + "1")
	}
	gen("")
	b.Values(states...)
	b.Ops("push0", "push1", "pop")
	b.NameResponse(RespOK, "ok")
	b.NameResponse(99, "empty")
	b.NameResponse(0, "0")
	b.NameResponse(1, "1")
	for _, st := range states {
		contents := st[1:]
		for i := 0; i < 2; i++ {
			next := st
			if len(contents) < capacity {
				next = st + fmt.Sprintf("%d", i)
			}
			b.Transition(st, fmt.Sprintf("push%d", i), RespOK, next)
		}
		if len(contents) == 0 {
			b.Transition(st, "pop", 99, st)
		} else {
			top := spec.Response(contents[len(contents)-1] - '0')
			b.Transition(st, "pop", top, "s"+contents[:len(contents)-1])
		}
	}
	return b.MustBuild()
}

// Trivial returns a one-value type whose single operation does nothing.
// It is not n-discerning or n-recording for any n >= 2. (It is vacuously
// readable: with a single value, the no-op identifies it.)
func Trivial() *spec.FiniteType {
	b := spec.NewBuilder("trivial")
	b.Values("v")
	b.Ops("noop")
	b.NameResponse(RespOK, "ok")
	b.Transition("v", "noop", RespOK, "v")
	return b.MustBuild()
}

package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// blockLen is the length of the blocks a timed phase is cut into. The
// time metrics cover the blocks in which the hypervisor stole the least
// CPU time from this VM: on a shared host, a block with steal runs its
// ops up to a third slower, for reasons outside the program.
const blockLen = 500 * time.Millisecond

// opTime is one measured op: when it ended, counted from the start of its
// phase, and how long it took.
type opTime struct {
	end, latency time.Duration
}

// sample is the state of the process and the VM at a block boundary.
type sample struct {
	at    time.Duration // since the phase started
	cpu   time.Duration // process CPU time
	steal int64         // VM steal time in clock ticks; -1 if unknown
}

// sampler takes a sample at every block boundary of a phase.
type sampler struct {
	start time.Time
	done  chan struct{}
	out   chan []sample
}

// startSampler takes the phase's first sample and samples on every
// blockLen until stop.
func startSampler(start time.Time) *sampler {
	s := &sampler{start: start, done: make(chan struct{}), out: make(chan []sample, 1)}
	first := []sample{s.take()}
	go func() {
		t := time.NewTicker(blockLen)
		defer t.Stop()
		samples := first
		for {
			select {
			case <-t.C:
				samples = append(samples, s.take())
			case <-s.done:
				s.out <- samples
				return
			}
		}
	}()
	return s
}

// stop ends the sampling with a sample at the end of the phase and
// returns every sample, in time order.
func (s *sampler) stop() []sample {
	close(s.done)
	return append(<-s.out, s.take())
}

func (s *sampler) take() sample {
	return sample{at: time.Since(s.start), cpu: cpuTime(), steal: stealTicks()}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the VM's steal time so far, from /proc/stat: the clock
// ticks in which the hypervisor ran something else while this VM had
// work. It is -1 where the kernel does not report it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	return parseSteal(string(data))
}

// parseSteal reads the steal field of /proc/stat's summary line
// ("cpu user nice system idle iowait irq softirq steal ...").
func parseSteal(stat string) int64 {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// steady is the part of a phase its time metrics cover.
type steady struct {
	blocks, kept int
	ops          int
	wall, cpu    time.Duration
	p50, p99     float64 // nearest-rank latency percentiles, ms
}

// summarize measures the ops that ended in the kept blocks. A block runs
// from one sample to the next; times is in the order the ops ended.
func summarize(samples []sample, times []opTime) steady {
	keep := keptBlocks(samples)
	st := steady{blocks: len(keep)}
	var lat []float64
	j := 0
	for i, kept := range keep {
		from, to := samples[i], samples[i+1]
		for ; j < len(times) && times[j].end < to.at; j++ {
			if kept {
				lat = append(lat, float64(times[j].latency)/float64(time.Millisecond))
			}
		}
		if kept {
			st.kept++
			st.wall += to.at - from.at
			st.cpu += to.cpu - from.cpu
		}
	}
	slices.Sort(lat)
	st.ops, st.p50, st.p99 = len(lat), quantile(lat, 50), quantile(lat, 99)
	return st
}

// keptBlocks marks the blocks in which the hypervisor stole no more CPU
// time than in the median block: at least half of the blocks, and all of
// them when the host stole none or does not say.
func keptBlocks(samples []sample) []bool {
	keep := make([]bool, len(samples)-1)
	steal := make([]int64, len(keep))
	known := true
	for i := range keep {
		steal[i] = samples[i+1].steal - samples[i].steal
		known = known && samples[i].steal >= 0 && samples[i+1].steal >= 0
	}
	median := slices.Sorted(slices.Values(steal))[(len(steal)-1)/2]
	for i, s := range steal {
		keep[i] = !known || s <= median
	}
	return keep
}

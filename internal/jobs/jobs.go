package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Defaults for Config fields left at zero.
const (
	DefaultWorkers      = 2
	DefaultQueueLimit   = 64
	DefaultReplayLimit  = 256
	DefaultHistoryLimit = 128
	DefaultJobTimeout   = 5 * time.Minute
)

// Submission errors. Servers map ErrQueueFull to HTTP 429.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity — the backpressure signal.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("jobs: manager closed")
)

// State is a job's lifecycle state.
type State string

// The job lifecycle: Queued -> Running -> one of the terminal states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress event of a job. Seq increases by 1 per event
// within a job, starting at 1, so subscribers can detect replay-buffer
// gaps. Terminal events have Kind "job.<terminal state>".
type Event struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	Data any    `json:"data,omitempty"`
}

// Config tunes a Manager. Zero values select the defaults above.
type Config struct {
	// Workers is the number of jobs run concurrently.
	Workers int
	// QueueLimit bounds jobs waiting to run; Submit beyond it returns
	// ErrQueueFull.
	QueueLimit int
	// ReplayLimit bounds the per-job event replay buffer; older events
	// are dropped (subscribers see the gap via Seq).
	ReplayLimit int
	// HistoryLimit bounds how many finished jobs stay resolvable by ID.
	HistoryLimit int
	// DefaultTimeout applies to jobs submitted without one.
	DefaultTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.ReplayLimit <= 0 {
		c.ReplayLimit = DefaultReplayLimit
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = DefaultHistoryLimit
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = DefaultJobTimeout
	}
	return c
}

// Spec describes one job to Submit.
type Spec struct {
	// Kind labels the work ("analyze", "check", "theorem13", ...).
	Kind string
	// Label is a free-form description for job listings.
	Label string
	// Priority orders the queue: higher runs first; ties run in
	// submission order.
	Priority int
	// Timeout bounds the job's run; 0 selects Config.DefaultTimeout.
	Timeout time.Duration
	// Run does the work. It must honor ctx and may stream progress via
	// j.Publish. Its result (or error) becomes the job's terminal state.
	Run func(ctx context.Context, j *Job) (any, error)
}

// Stats is a snapshot of a Manager's counters for /v1/stats and
// /metrics.
type Stats struct {
	// Queued and Running are current gauge values.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Done, Failed, Canceled and Rejected are lifetime totals. Rejected
	// counts Submit calls refused by the queue bound.
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	Canceled uint64 `json:"canceled"`
	Rejected uint64 `json:"rejected"`
}

// Manager is a bounded-queue asynchronous job runner: Submit enqueues by
// priority (rejecting with ErrQueueFull at capacity), a fixed pool of
// workers runs jobs under per-job contexts with timeouts, and every job
// fans progress events out to subscribers with a bounded replay buffer.
// Finished jobs stay resolvable by ID up to the history limit. All
// methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	jobs    map[string]*Job
	history []string // terminal job IDs, oldest first
	seq     int64
	queued  int
	running int
	closed  bool

	done, failed, canceled, rejected uint64

	wg sync.WaitGroup
}

// NewManager starts a manager with cfg's worker pool. Close releases it.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{cfg: cfg, ctx: ctx, cancel: cancel, jobs: make(map[string]*Job)}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues a job and returns it with its view as queued, taken
// before any worker can pop it: a fast job may be done by the time
// Submit returns, but the view still shows the state it was queued in.
// It returns ErrQueueFull when the queue is at capacity (the caller
// should back off) and ErrClosed during shutdown.
func (m *Manager) Submit(spec Spec) (*Job, View, error) {
	if spec.Run == nil {
		return nil, View{}, fmt.Errorf("jobs: spec has no Run function")
	}
	if spec.Timeout <= 0 {
		spec.Timeout = m.cfg.DefaultTimeout
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, View{}, ErrClosed
	}
	if m.queued >= m.cfg.QueueLimit {
		m.rejected++
		return nil, View{}, ErrQueueFull
	}
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("j%06d", m.seq),
		seq:     m.seq,
		spec:    spec,
		mgr:     m,
		state:   StateQueued,
		created: time.Now(),
		subs:    make(map[int]chan Event),
	}
	m.jobs[j.id] = j
	heap.Push(&m.queue, j)
	m.queued++
	m.cond.Signal()
	j.publish("job.queued", nil)
	// Workers pop under m.mu, so the job is still queued here.
	return j, j.View(), nil
}

// Get resolves a job by ID (queued, running, or finished within the
// history limit).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: queued jobs finalize as
// canceled immediately, running jobs have their context canceled and
// finalize when Run returns. It reports whether the job was found in a
// non-terminal state.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	return j.requestCancel()
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Queued: m.queued, Running: m.running,
		Done: m.done, Failed: m.failed, Canceled: m.canceled, Rejected: m.rejected,
	}
}

// Close shuts the manager down: intake stops (Submit returns ErrClosed),
// queued jobs finalize as canceled, running jobs have their contexts
// canceled, and Close waits for the workers to finish — up to ctx's
// deadline, after which it returns ctx.Err() with workers still
// draining. Subscribers of every job see a terminal event and a closed
// channel.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
	} else {
		m.closed = true
		var drop []*Job
		for m.queue.Len() > 0 {
			drop = append(drop, heap.Pop(&m.queue).(*Job))
		}
		m.cond.Broadcast()
		m.mu.Unlock()
		for _, j := range drop {
			j.requestCancel()
		}
		// Cancel running jobs via the shared parent context.
		m.cancel()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker runs jobs from the queue until the manager closes and drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*Job)
		m.mu.Unlock()
		m.run(j)
	}
}

// run executes one job and finalizes it.
func (m *Manager) run(j *Job) {
	ctx, cancel := context.WithTimeout(m.ctx, j.spec.Timeout)
	defer cancel()
	if !j.start(cancel) {
		// Canceled while queued (popped by Close or raced with Cancel).
		return
	}
	result, err := j.spec.Run(ctx, j)
	j.finish(result, err, ctx.Err())
}

// retireLocked moves the manager's counters for a job that left state
// from (queued or running) for terminal state to, and appends the job
// to the history ring, evicting the oldest finished job beyond the
// limit. The caller holds m.mu and the job's lock, so the counters move
// in the same critical section as the job's terminal event.
func (m *Manager) retireLocked(id string, from, to State) {
	switch from {
	case StateQueued:
		m.queued--
	case StateRunning:
		m.running--
	}
	switch to {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	m.history = append(m.history, id)
	for len(m.history) > m.cfg.HistoryLimit {
		delete(m.jobs, m.history[0])
		m.history = m.history[1:]
	}
}

// jobHeap orders jobs by priority (higher first), then submission order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

package jobs

import (
	"context"
	"sync"
	"time"
)

// subBuffer is the per-subscriber channel capacity. A subscriber that
// falls this far behind the live event stream is dropped (its channel is
// closed); SSE handlers recover by re-reading the job's terminal state.
const subBuffer = 256

// Job is one unit of asynchronous work. Its event stream is ordered and
// bounded: Publish appends to a replay ring and fans out to subscribers,
// and the final lifecycle event ("job.done" / "job.failed" /
// "job.canceled") always closes every subscriber channel.
type Job struct {
	id   string
	seq  int64 // submission order, fixed
	spec Spec
	mgr  *Manager

	mu        sync.Mutex
	state     State
	created   time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    any
	cancelReq bool
	cancel    context.CancelFunc // set while running

	events  []Event // replay ring; events[0].Seq reveals dropped history
	nextSeq int64
	subs    map[int]chan Event
	subID   int
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the job's kind label.
func (j *Job) Kind() string { return j.spec.Kind }

// View is a JSON-ready snapshot of a job.
type View struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Label    string `json:"label,omitempty"`
	State    State  `json:"state"`
	Priority int    `json:"priority,omitempty"`
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	Error    string `json:"error,omitempty"`
	Result   any    `json:"result,omitempty"`
	// Events is the number of events published so far.
	Events int64 `json:"events"`
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.id, Kind: j.spec.Kind, Label: j.spec.Label, State: j.state,
		Priority: j.spec.Priority, Created: j.created.UTC().Format(time.RFC3339Nano),
		Events: j.nextSeq,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.state == StateDone {
		v.Result = j.result
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Publish appends a progress event to the job's stream: into the bounded
// replay ring and to every live subscriber. Run functions call it to
// stream engine progress; the manager calls it for lifecycle events.
// Publishing to a terminal job is a no-op.
func (j *Job) Publish(kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.publishLocked(kind, data)
}

// publish is Publish without the terminal guard, for lifecycle events.
func (j *Job) publish(kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(kind, data)
}

func (j *Job) publishLocked(kind string, data any) {
	j.nextSeq++
	e := Event{Seq: j.nextSeq, Kind: kind, Data: data}
	j.events = append(j.events, e)
	if limit := j.mgr.cfg.ReplayLimit; len(j.events) > limit {
		drop := len(j.events) - limit
		j.events = append(j.events[:0], j.events[drop:]...)
	}
	for id, ch := range j.subs {
		select {
		case ch <- e:
		default:
			// Slow subscriber: drop it rather than block the publisher.
			close(ch)
			delete(j.subs, id)
		}
	}
}

// Subscribe attaches to the job's event stream. It returns the buffered
// replay of events with Seq > afterSeq (pass 0 for all retained), a live
// channel, and a cancel function. The channel is closed after the
// terminal event is delivered, when the subscriber falls too far behind,
// or on cancel. Subscribing to an already-terminal job returns the
// replay and a closed channel.
func (j *Job) Subscribe(afterSeq int64) (replay []Event, ch <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.events {
		if e.Seq > afterSeq {
			replay = append(replay, e)
		}
	}
	c := make(chan Event, subBuffer)
	if j.state.Terminal() {
		close(c)
		return replay, c, func() {}
	}
	j.subID++
	id := j.subID
	j.subs[id] = c
	return replay, c, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if ch, ok := j.subs[id]; ok {
			close(ch)
			delete(j.subs, id)
		}
	}
}

// requestCancel flips the job toward cancellation. Queued jobs finalize
// immediately; running jobs get their context canceled and finalize when
// Run returns. Reports whether the job was non-terminal. Like every
// lifecycle transition it takes the manager's lock before the job's, the
// order Submit uses.
func (j *Job) requestCancel() bool {
	j.mgr.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		j.mgr.mu.Unlock()
		return false
	}
	j.cancelReq = true
	if j.state == StateRunning {
		cancel := j.cancel
		j.mu.Unlock()
		j.mgr.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	// Queued: finalize here; the worker skips it in start.
	j.finalizeLocked(StateCanceled, nil, context.Canceled)
	j.mgr.retireLocked(j.id, StateQueued, StateCanceled)
	j.mu.Unlock()
	j.mgr.mu.Unlock()
	return true
}

// start transitions a popped job to running. It returns false when the
// job was canceled while queued (the worker then skips it).
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mgr.mu.Lock()
	defer j.mgr.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.publishLocked("job.running", nil)
	j.mgr.queued--
	j.mgr.running++
	return true
}

// finish finalizes a running job from Run's outcome.
func (j *Job) finish(result any, err, ctxErr error) {
	j.mgr.mu.Lock()
	defer j.mgr.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	to := StateDone
	switch {
	case err == nil:
		// Done even if cancellation raced a successful completion.
	case j.cancelReq || j.mgr.ctx.Err() != nil:
		to = StateCanceled
	default:
		to = StateFailed
		if ctxErr != nil {
			// Preserve the more precise deadline error when Run surfaced a
			// wrapped context error.
			err = ctxErr
		}
	}
	j.finalizeLocked(to, result, err)
	j.mgr.retireLocked(j.id, StateRunning, to)
}

// finalizeLocked records the terminal state, publishes the terminal
// event and closes every subscriber channel. Caller holds j.mu.
func (j *Job) finalizeLocked(to State, result any, err error) {
	j.state = to
	j.finished = time.Now()
	j.result = result
	if to != StateDone {
		j.err = err
	} else {
		j.err = nil
	}
	data := map[string]any{"state": to}
	if j.err != nil {
		data["error"] = j.err.Error()
	}
	j.publishLocked("job."+string(to), data)
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
}

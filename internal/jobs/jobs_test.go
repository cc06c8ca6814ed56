package jobs_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

func drain(t *testing.T, replay []jobs.Event, ch <-chan jobs.Event) []jobs.Event {
	t.Helper()
	out := append([]jobs.Event(nil), replay...)
	timeout := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, e)
		case <-timeout:
			t.Fatalf("event stream did not close; got %d events", len(out))
		}
	}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close(context.Background())

	j, _, err := m.Submit(jobs.Spec{
		Kind: "demo",
		Run: func(ctx context.Context, j *jobs.Job) (any, error) {
			j.Publish("step", map[string]int{"n": 1})
			j.Publish("step", map[string]int{"n": 2})
			return "result", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, ch, cancel := j.Subscribe(0)
	defer cancel()
	events := drain(t, replay, ch)

	var kinds []string
	lastSeq := int64(0)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("non-increasing seq: %+v after %d", e, lastSeq)
		}
		lastSeq = e.Seq
		kinds = append(kinds, e.Kind)
	}
	want := []string{"job.queued", "job.running", "step", "step", "job.done"}
	if len(kinds) != len(want) {
		t.Fatalf("got kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("got kinds %v, want %v", kinds, want)
		}
	}
	v := j.View()
	if v.State != jobs.StateDone || v.Result != "result" || v.Error != "" {
		t.Fatalf("view = %+v", v)
	}
	st := m.Stats()
	if st.Done != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubscribeAfterTerminal(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close(context.Background())
	j, _, err := m.Submit(jobs.Spec{Kind: "demo", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the terminal state via a live subscription...
	_, ch, cancel := j.Subscribe(0)
	drain(t, nil, ch)
	cancel()
	// ...then a late subscriber sees the full replay and a closed channel.
	replay, ch2, cancel2 := j.Subscribe(0)
	defer cancel2()
	events := drain(t, replay, ch2)
	if len(events) == 0 || events[len(events)-1].Kind != "job.failed" {
		t.Fatalf("late subscriber events: %+v", events)
	}
	if v := j.View(); v.State != jobs.StateFailed || v.Error != "boom" {
		t.Fatalf("view = %+v", v)
	}
}

func TestQueueFullRejects(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1, QueueLimit: 1})
	defer m.Close(context.Background())

	release := make(chan struct{})
	started := make(chan struct{})
	block := func(ctx context.Context, _ *jobs.Job) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, _, err := m.Submit(jobs.Spec{Kind: "block", Run: block}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Queue slot 1 of 1.
	if _, _, err := m.Submit(jobs.Spec{Kind: "wait", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Submit(jobs.Spec{Kind: "over", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, nil
	}})
	if !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(release)
}

func TestPriorityOrdering(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close(context.Background())

	release := make(chan struct{})
	started := make(chan struct{})
	if _, _, err := m.Submit(jobs.Spec{Kind: "gate", Run: func(ctx context.Context, _ *jobs.Job) (any, error) {
		close(started)
		<-release
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	mk := func(name string, prio int) {
		if _, _, err := m.Submit(jobs.Spec{Kind: name, Priority: prio,
			Run: func(context.Context, *jobs.Job) (any, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			}}); err != nil {
			t.Fatal(err)
		}
	}
	mk("low", 0)
	mk("high", 5)
	mk("mid", 3)
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish; order=%v", order)
		}
		time.Sleep(time.Millisecond)
	}
	if order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Fatalf("execution order %v, want [high mid low]", order)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close(context.Background())

	started := make(chan struct{})
	running, _, err := m.Submit(jobs.Spec{Kind: "running", Run: func(ctx context.Context, _ *jobs.Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(jobs.Spec{Kind: "queued", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	if !m.Cancel(queued.ID()) {
		t.Fatal("Cancel(queued) = false")
	}
	if st := queued.State(); st != jobs.StateCanceled {
		t.Fatalf("queued job state = %s", st)
	}
	if !m.Cancel(running.ID()) {
		t.Fatal("Cancel(running) = false")
	}
	_, ch, cancel := running.Subscribe(0)
	drain(t, nil, ch)
	cancel()
	if st := running.State(); st != jobs.StateCanceled {
		t.Fatalf("running job state = %s", st)
	}
	if m.Cancel(running.ID()) {
		t.Fatal("Cancel of terminal job reported true")
	}
	if st := m.Stats(); st.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", st.Canceled)
	}
}

func TestTimeoutFailsJob(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	defer m.Close(context.Background())
	j, _, err := m.Submit(jobs.Spec{Kind: "slow", Timeout: 20 * time.Millisecond,
		Run: func(ctx context.Context, _ *jobs.Job) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel := j.Subscribe(0)
	drain(t, nil, ch)
	cancel()
	v := j.View()
	if v.State != jobs.StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if !errors.Is(context.DeadlineExceeded, context.DeadlineExceeded) || v.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("error = %q", v.Error)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1})
	started := make(chan struct{})
	if _, _, err := m.Submit(jobs.Spec{Kind: "block", Run: func(ctx context.Context, _ *jobs.Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(jobs.Spec{Kind: "queued", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := queued.State(); st != jobs.StateCanceled {
		t.Fatalf("queued job after Close: %s", st)
	}
	if _, _, err := m.Submit(jobs.Spec{Kind: "late", Run: func(context.Context, *jobs.Job) (any, error) {
		return nil, nil
	}}); !errors.Is(err, jobs.ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
}

func TestReplayRingBounded(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 1, ReplayLimit: 8})
	defer m.Close(context.Background())
	j, _, err := m.Submit(jobs.Spec{Kind: "chatty", Run: func(_ context.Context, j *jobs.Job) (any, error) {
		for i := 0; i < 100; i++ {
			j.Publish("tick", i)
		}
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel := j.Subscribe(0)
	drain(t, nil, ch)
	cancel()
	replay, ch2, cancel2 := j.Subscribe(0)
	defer cancel2()
	drain(t, nil, ch2)
	if len(replay) > 8 {
		t.Fatalf("replay holds %d events, limit 8", len(replay))
	}
	// The terminal event must be retained.
	if replay[len(replay)-1].Kind != "job.done" {
		t.Fatalf("last replayed event %+v, want job.done", replay[len(replay)-1])
	}
	// Seq gap is visible: first retained event's Seq > 1.
	if replay[0].Seq <= 1 {
		t.Fatalf("expected a visible gap, first seq = %d", replay[0].Seq)
	}
}

// TestSubmitViewIsQueued submits jobs that finish at once to live
// workers: a worker may pop and finish a job before Submit's caller
// looks at it, yet the view Submit returns must show the job as queued,
// the state a 202 reply promises.
func TestSubmitViewIsQueued(t *testing.T) {
	m := jobs.NewManager(jobs.Config{Workers: 4, QueueLimit: 256, HistoryLimit: 256})
	defer m.Close(context.Background())
	const total = 200
	submitted := make([]*jobs.Job, 0, total)
	for i := 0; i < total; i++ {
		j, view, err := m.Submit(jobs.Spec{Kind: "instant", Run: func(context.Context, *jobs.Job) (any, error) {
			return "ok", nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if view.ID != j.ID() || view.Kind != "instant" || view.State != jobs.StateQueued ||
			view.Started != "" || view.Finished != "" || view.Result != nil || view.Events != 1 {
			t.Fatalf("job %d: submission view = %+v, want the queued job", i, view)
		}
		submitted = append(submitted, j)
	}
	for _, j := range submitted {
		_, ch, cancel := j.Subscribe(0)
		drain(t, nil, ch)
		cancel()
		if st := j.State(); st != jobs.StateDone {
			t.Fatalf("job %s ended %s, want done", j.ID(), st)
		}
	}
}

// TestCountersMatchTerminalEvent checks that a job's terminal event and
// the manager's counters move together: once a subscriber has drained a
// job's stream, Stats counts the job as done. Instantly finishing jobs,
// submitted a round per worker, make the window between the two wide
// enough to hit when they are updated apart.
func TestCountersMatchTerminalEvent(t *testing.T) {
	const n, workers = 500, 4
	m := jobs.NewManager(jobs.Config{Workers: workers})
	defer m.Close(context.Background())
	drained := 0
	for drained < n {
		var round []*jobs.Job
		for range workers {
			j, _, err := m.Submit(jobs.Spec{Kind: "instant", Run: func(context.Context, *jobs.Job) (any, error) {
				return nil, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			round = append(round, j)
		}
		for _, j := range round {
			replay, ch, cancel := j.Subscribe(0)
			events := drain(t, replay, ch)
			cancel()
			if last := events[len(events)-1].Kind; last != "job.done" {
				t.Fatalf("job %s ended with %s", j.ID(), last)
			}
			drained++
			if st := m.Stats(); st.Done < uint64(drained) {
				t.Fatalf("after draining %d jobs' streams: stats %+v count fewer done", drained, st)
			}
		}
		if st := m.Stats(); st.Done != uint64(drained) || st.Running != 0 || st.Queued != 0 {
			t.Fatalf("after draining %d jobs' streams: stats %+v, want exactly those done", drained, st)
		}
	}
}

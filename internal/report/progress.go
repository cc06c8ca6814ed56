package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
)

// ProgressLine renders one engine progress event as a single log line,
// the format the cmd tools print to stderr under -progress.
func ProgressLine(ev engine.Event) string {
	switch ev.Kind {
	case "analyze.start":
		return fmt.Sprintf("[engine] %s: analyzing n=2..%d", ev.Type, ev.N)
	case "level.done":
		suffix := ""
		if ev.Cached {
			suffix = ", cached"
		}
		return fmt.Sprintf("[engine] %s: %d-%s=%s (%s%s)",
			ev.Type, ev.N, ev.Property, yesNo(ev.OK), ev.Elapsed.Round(10*time.Microsecond), suffix)
	case "shard.done":
		return fmt.Sprintf("[engine] %s: %d-%s %s (%s)",
			ev.Type, ev.N, ev.Property, ev.Detail(), ev.Elapsed.Round(10*time.Microsecond))
	case "analyze.done":
		return fmt.Sprintf("[engine] %s: analysis done in %s", ev.Type, ev.Elapsed.Round(10*time.Microsecond))
	case "check.start":
		return fmt.Sprintf("[engine] %s: checking", ev.Type)
	case "check.done":
		return fmt.Sprintf("[engine] %s: check %s (%s, %s)",
			ev.Type, passFail(ev.OK), ev.Detail(), ev.Elapsed.Round(10*time.Microsecond))
	case "checkbatch.start":
		return fmt.Sprintf("[engine] %s: batch checking %d requests", ev.Type, ev.N)
	case "checkbatch.done":
		return fmt.Sprintf("[engine] %s: batch check %s (%s, %s)",
			ev.Type, passFail(ev.OK), ev.Detail(), ev.Elapsed.Round(10*time.Microsecond))
	case "chain.start":
		return fmt.Sprintf("[engine] %s: building Theorem 13 chain", ev.Type)
	case "chain.stage":
		return fmt.Sprintf("[engine] %s: chain stage %d is %s", ev.Type, ev.N, ev.Detail())
	}
	return fmt.Sprintf("[engine] %s: %s", ev.Type, ev.Kind)
}

// ProgressWriter returns an engine progress consumer that writes one
// ProgressLine per event to w.
func ProgressWriter(w io.Writer) func(engine.Event) {
	return func(ev engine.Event) { fmt.Fprintln(w, ProgressLine(ev)) }
}

func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

func passFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

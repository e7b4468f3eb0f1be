// Package stream defines the incremental investigation events the agent
// runtime publishes while it works. The paper's framework is interactive
// — an operator watches a trained agent think, search and self-learn —
// yet an HTTP client that only sees the final answer experiences the
// whole multi-step Auto-GPT loop as dead air. Streaming the intermediate
// THOUGHTS / COMMAND / observation steps and the per-round partial
// answers drops perceived latency from full-investigation time to
// time-to-first-step.
//
// The package is deliberately tiny: an Event record and a nil-safe
// Observer callback. Producers (internal/autogpt, internal/agent) emit
// through an Observer they do not own; the session runtime
// (internal/session) owns the per-session bounded buffer behind it and
// serves it as SSE. Observation is strictly passive — no producer ever
// changes behaviour based on whether an observer is attached, which is
// what keeps the simulated path byte-identical with streaming on or off.
package stream

import "fmt"

// Event types. A Terminal event ends the operation the stream is
// following; everything else is an intermediate step.
const (
	// EventOp marks the start of a session operation (train, ask,
	// investigate, report); Text carries the operation name.
	EventOp = "op"
	// EventGoal marks the start of one Auto-GPT training goal.
	EventGoal = "goal"
	// EventThoughts carries the model's THOUGHTS text for one step.
	EventThoughts = "thoughts"
	// EventCommand is the command the model chose for one step.
	EventCommand = "command"
	// EventObservation is the execution result fed back into history.
	EventObservation = "observation"
	// EventRound reports one knowledge-testing round: confidence and
	// verdict after the round's answer.
	EventRound = "round"
	// EventPartial carries the round's (not yet final) answer text.
	EventPartial = "partial"
	// EventLearn reports one self-learning pass: the proposed queries,
	// how many new knowledge items they yielded and the URLs those items
	// were memorized from.
	EventLearn = "learn"
	// EventAnswer is the final answer of an ask/investigate/report
	// operation. Terminal.
	EventAnswer = "answer"
	// EventDone ends an operation that has no answer payload (train).
	// Terminal.
	EventDone = "done"
	// EventError ends an operation that failed, including context
	// cancellation mid-investigation. Terminal.
	EventError = "error"
)

// Event is one step of a running investigation. ID is assigned by the
// session event buffer (0 until published); all other fields are set by
// the producer and zero values are omitted on the wire.
type Event struct {
	ID int64 `json:"id,omitempty"`
	// Incident scopes the event to an incident when the operation runs
	// on behalf of the autonomous incident pipeline (internal/incident):
	// the processor tees the session's step events into the incident's
	// event log, stamped with the incident ID, so one SSE subscriber or
	// log reader can tell which incident a step served. Empty for plain
	// interactive sessions.
	Incident   string   `json:"incident,omitempty"`
	Type       string   `json:"type"`
	Step       int      `json:"step,omitempty"`
	Round      int      `json:"round,omitempty"`
	Goal       string   `json:"goal,omitempty"`
	Command    string   `json:"command,omitempty"`
	Arg        string   `json:"arg,omitempty"`
	Text       string   `json:"text,omitempty"`
	Confidence int      `json:"confidence,omitempty"`
	Verdict    string   `json:"verdict,omitempty"`
	Queries    []string `json:"queries,omitempty"`
	NewItems   int      `json:"new_items,omitempty"`
	// Sources lists the URLs a learn event's pass memorized, in commit
	// order — the provenance an auditor checks an answer against.
	Sources []string `json:"sources,omitempty"`
	Err     string   `json:"error,omitempty"`
	// Terminal marks the event that ends the operation this stream is
	// following; the SSE layer closes the response after sending it.
	Terminal bool `json:"terminal,omitempty"`
}

// Describe renders the event as one human-readable line: the incident
// event log stores it, and cmd/bob prints it for -trace. It never reads
// Sources, so a learn event renders the same with or without them.
func (e Event) Describe() string {
	switch e.Type {
	case EventGoal:
		return e.Goal
	case EventCommand:
		if e.Arg != "" {
			return e.Command + " " + e.Arg
		}
		return e.Command
	case EventRound:
		return fmt.Sprintf("round %d: confidence %d, verdict %s", e.Round, e.Confidence, e.Verdict)
	case EventLearn:
		return fmt.Sprintf("round %d: %d queries, %d new items", e.Round, len(e.Queries), e.NewItems)
	case EventAnswer:
		return fmt.Sprintf("confidence %d: %s", e.Confidence, e.Text)
	case EventError:
		return e.Err
	}
	return e.Text
}

// Observer receives events as they happen. A nil Observer is valid and
// discards everything, so instrumentation is always optional and the
// un-observed hot path pays one nil check.
type Observer func(Event)

// Emit publishes e through o, tolerating a nil observer.
func (o Observer) Emit(e Event) {
	if o != nil {
		o(e)
	}
}

// Tee fans one event out to every given observer in order, skipping nil
// ones. It is the bridge primitive the incident pipeline uses to mirror
// a session's step events into an incident's event log while the
// session's own SSE buffer keeps receiving them unchanged. A Tee of
// zero or all-nil observers behaves like a nil Observer.
func Tee(obs ...Observer) Observer {
	// Compact away nils once so the hot emit path only ranges live ones.
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e)
		}
	}
}

// Scoped returns an observer that stamps every event with the incident
// ID before forwarding to next — the incident-scoped half of a Tee.
func Scoped(incident string, next Observer) Observer {
	if next == nil {
		return nil
	}
	return func(e Event) {
		e.Incident = incident
		next(e)
	}
}

package incident

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/stream"
)

// StoreConfig configures a Store.
type StoreConfig struct {
	// Clock stamps filings, transitions and event-log entries. Nil
	// means time.Now; tests inject a fixed clock so a drained batch is
	// byte-identical run to run.
	Clock func() time.Time
	// Path, when set, persists the queue as an append-only journal:
	// File, every terminal transition and every reopen append one
	// record holding the incident's full state, and Load replays the
	// journal and compacts it to one record per incident. The crash
	// contract: acknowledged filings and outcomes survive, a torn last
	// record is dropped, and non-terminal incidents load back as open —
	// a claim held by a dead process must not strand its incident.
	Path string
}

// Stats is the store half of the `incidents` stats block: queue gauges
// and lifecycle totals. The processor contributes the leader/follower
// counters next to it.
type Stats struct {
	Filed         int64 `json:"filed"`
	QueueDepth    int   `json:"queue_depth"` // currently open
	Claimed       int   `json:"claimed"`     // currently claimed, not yet investigating
	Investigating int   `json:"investigating"`
	Resolved      int64 `json:"resolved"`
	Escalated     int64 `json:"escalated"`
	Reopened      int64 `json:"reopened"`
	// PersistErrors counts journal appends that failed; each is logged,
	// and the incident lives on in memory.
	PersistErrors int64 `json:"persist_errors"`
}

// Store owns the incident table: filings, atomic lifecycle
// transitions (compare-and-swap on status, so two concurrent
// processors can never both claim one incident), the append-only
// per-incident event logs, and optional journal persistence.
type Store struct {
	mu            sync.Mutex
	cfg           StoreConfig
	seq           int64
	incidents     map[string]*Incident
	order         []string // ascending incident IDs, filing order
	filed         int64
	reopened      int64
	persistErrors int64
	onFile        func()
}

// NewStore returns an empty store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Store{cfg: cfg, incidents: map[string]*Incident{}}
}

// OnFile registers a callback invoked (outside the store lock) after
// every successful File — the processor's wake-up kick.
func (st *Store) OnFile(fn func()) {
	st.mu.Lock()
	st.onFile = fn
	st.mu.Unlock()
}

// File validates and opens a new incident, assigning the next ID in
// filing order ("inc-000001", ...). A filing that carries its own ID
// keeps it — the store's sequence is not advanced — and filing a
// duplicate ID is an error.
func (st *Store) File(f Filing) (Incident, error) {
	f, err := f.validate()
	if err != nil {
		return Incident{}, err
	}
	st.mu.Lock()
	id := f.ID
	if id == "" {
		st.seq++
		id = fmt.Sprintf("inc-%06d", st.seq)
	} else if _, taken := st.incidents[id]; taken {
		st.mu.Unlock()
		return Incident{}, fmt.Errorf("incident id %s already filed", id)
	}
	st.filed++
	now := st.cfg.Clock()
	inc := &Incident{
		ID:       id,
		Type:     f.Type,
		Severity: f.Severity,
		Title:    f.Title,
		Question: f.Question,
		Source:   f.Source,
		Detail:   f.Detail,
		Status:   StatusOpen,
		Created:  now,
		Updated:  now,
	}
	st.appendEventLocked(inc, EvFiled, fmt.Sprintf("%s incident filed via %s", f.Severity, f.Source))
	st.incidents[inc.ID] = inc
	st.order = append(st.order, inc.ID)
	kick := st.onFile
	st.persistLocked(inc)
	out := inc.copy()
	st.mu.Unlock()
	if kick != nil {
		kick()
	}
	return out, nil
}

// Get returns a deep copy of the incident, including its event log.
func (st *Store) Get(id string) (Incident, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return Incident{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return inc.copy(), nil
}

// List returns summaries (no event logs) of every incident in
// ascending ID order, optionally filtered by status ("" = all).
func (st *Store) List(status Status) []Incident {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Incident, 0, len(st.order))
	for _, id := range st.order {
		inc := st.incidents[id]
		if status != "" && inc.Status != status {
			continue
		}
		out = append(out, inc.summary())
	}
	return out
}

// OpenQueue returns up to limit open incidents in processing order:
// severity first (critical before warning before info), then filing
// order. The order is deterministic, so every worker count sees the
// same batch boundaries.
func (st *Store) OpenQueue(limit int) []Incident {
	st.mu.Lock()
	var open []*Incident
	for _, id := range st.order {
		if inc := st.incidents[id]; inc.Status == StatusOpen {
			open = append(open, inc)
		}
	}
	sort.SliceStable(open, func(i, j int) bool {
		ri, rj := sevRank(open[i].Severity), sevRank(open[j].Severity)
		if ri != rj {
			return ri < rj
		}
		return open[i].ID < open[j].ID
	})
	if limit > 0 && len(open) > limit {
		open = open[:limit]
	}
	out := make([]Incident, len(open))
	for i, inc := range open {
		out[i] = inc.summary()
	}
	st.mu.Unlock()
	return out
}

// Claim atomically moves an open incident to claimed. It returns false
// when the incident is unknown or not open — the compare-and-swap that
// keeps two processors from investigating the same incident.
func (st *Store) Claim(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok || inc.Status != StatusOpen {
		return false
	}
	inc.Status = StatusClaimed
	st.appendEventLocked(inc, EvClaimed, "")
	return true
}

// Start moves a claimed incident to investigating, recording the
// session the investigation runs on and the group leader.
func (st *Store) Start(id, session, leader string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status != StatusClaimed {
		return fmt.Errorf("%w: %s is %s, want claimed", ErrInvalidState, id, inc.Status)
	}
	inc.Status = StatusInvestigating
	inc.Session = session
	inc.Leader = leader
	what := "leading the investigation"
	if leader != id {
		what = "following leader " + leader
	}
	st.appendEventLocked(inc, EvInvestigating, fmt.Sprintf("%s on session %s", what, session))
	return nil
}

// SetHint records the leader's resolution hint on a follower. Like
// AppendEvent it leaves terminal incidents alone.
func (st *Store) SetHint(id, hint string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if inc, ok := st.incidents[id]; ok && !inc.Status.Terminal() {
		inc.Hint = hint
		st.appendEventLocked(inc, EvHint, hint)
	}
}

// Release reopens a claimed or investigating incident — the cancel
// path: a processor losing its context mid-investigation puts the
// incident back where another (or a later) processor can claim it.
// Terminal incidents are left alone.
func (st *Store) Release(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok || inc.Status == StatusOpen || inc.Status.Terminal() {
		return
	}
	inc.Status = StatusOpen
	inc.Session = ""
	inc.Leader = ""
	st.reopened++
	st.appendEventLocked(inc, EvReopened, "investigation interrupted; incident re-queued")
	st.persistLocked(inc)
}

// Close finishes an investigating incident with the processor's
// outcome. The compare-and-swap against StatusInvestigating means a
// manual resolve/escalate that raced ahead wins and the processor's
// late outcome is dropped.
func (st *Store) Close(id string, out Outcome) error {
	if out.Status != StatusResolved && out.Status != StatusEscalated {
		return fmt.Errorf("%w: close to %s", ErrInvalidState, out.Status)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status != StatusInvestigating {
		return fmt.Errorf("%w: %s is %s, want investigating", ErrInvalidState, id, inc.Status)
	}
	st.closeLocked(inc, out)
	return nil
}

// Transition applies a manual resolve or escalate from the API: legal
// from any non-terminal state, illegal (ErrInvalidState → 409) once
// the incident is resolved or escalated.
func (st *Store) Transition(id string, to Status, note string) (Incident, error) {
	if !to.Terminal() {
		return Incident{}, fmt.Errorf("%w: manual transition to %s", ErrInvalidState, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return Incident{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status.Terminal() {
		return Incident{}, fmt.Errorf("%w: %s is already %s", ErrInvalidState, id, inc.Status)
	}
	out := Outcome{Status: to, Note: note}
	if to == StatusResolved {
		out.Resolution = note
		out.Note = ""
	}
	st.closeLocked(inc, out)
	return inc.copy(), nil
}

// closeLocked applies a terminal outcome under the store lock.
func (st *Store) closeLocked(inc *Incident, out Outcome) {
	inc.Status = out.Status
	inc.Resolution = out.Resolution
	inc.Confidence = out.Confidence
	inc.Verdict = out.Verdict
	inc.Turns = out.Turns
	if out.Hint != "" {
		inc.Hint = out.Hint
	}
	kind, text := EvResolved, out.Resolution
	if out.Status == StatusEscalated {
		kind, text = EvEscalated, out.Note
	}
	st.appendEventLocked(inc, kind, text)
	st.persistLocked(inc)
}

// Observer returns a stream.Observer that appends every session step
// event to the incident's log — the bridge the processor tees a
// session's observer into, so each investigation step lands in the
// incident record as it happens.
func (st *Store) Observer(id string) stream.Observer {
	return func(e stream.Event) {
		st.AppendEvent(id, e.Type, e.Describe())
	}
}

// AppendEvent appends one event to the incident's log. Unknown IDs are
// ignored (the incident may have been superseded), and so are terminal
// incidents: a record is final once its outcome is journaled, so what
// Get returns for it is exactly what survives a restart.
func (st *Store) AppendEvent(id, kind, text string) {
	st.mu.Lock()
	if inc, ok := st.incidents[id]; ok && !inc.Status.Terminal() {
		st.appendEventLocked(inc, kind, text)
	}
	st.mu.Unlock()
}

func (st *Store) appendEventLocked(inc *Incident, kind, text string) {
	now := st.cfg.Clock()
	inc.Updated = now
	inc.Events = append(inc.Events, Event{
		Seq:  int64(len(inc.Events) + 1),
		Time: now,
		Kind: kind,
		Text: text,
	})
}

// Stats returns the queue gauges and lifecycle totals.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{Filed: st.filed, Reopened: st.reopened, PersistErrors: st.persistErrors}
	for _, inc := range st.incidents {
		switch inc.Status {
		case StatusOpen:
			s.QueueDepth++
		case StatusClaimed:
			s.Claimed++
		case StatusInvestigating:
			s.Investigating++
		case StatusResolved:
			s.Resolved++
		case StatusEscalated:
			s.Escalated++
		}
	}
	return s
}

// journalRecord is one line of the journal: an incident's full state at
// a persist point, plus the store counters at that moment, so replay
// restores the counters from the last record.
type journalRecord struct {
	Seq      int64     `json:"seq"`
	Filed    int64     `json:"filed"`
	Reopened int64     `json:"reopened"`
	Incident *Incident `json:"incident,omitempty"`
	// Incidents is read, never written: the legacy store file was one
	// object of this shape holding the whole table.
	Incidents []Incident `json:"incidents,omitempty"`
}

// recordLocked encodes inc's journal record as one newline-terminated
// line: the only on-disk write shape, for appends and compaction alike.
func (st *Store) recordLocked(inc *Incident) ([]byte, error) {
	line, err := json.Marshal(journalRecord{Seq: st.seq, Filed: st.filed, Reopened: st.reopened, Incident: inc})
	return append(line, '\n'), err
}

// persistLocked appends inc's current state to the journal with one
// write to a file opened O_APPEND, so a persist costs the incident's
// size, not the store's, and a crash can tear only the last record.
// Claims are deliberately not persisted on their own — a claim is
// transient state that reverts to open on restart anyway. A failure is
// counted and logged; the in-memory store carries on.
func (st *Store) persistLocked(inc *Incident) {
	if st.cfg.Path == "" {
		return
	}
	line, err := st.recordLocked(inc)
	if err == nil {
		err = appendFile(st.cfg.Path, line)
	}
	if err != nil {
		st.persistErrors++
		log.Printf("incident: persist %s: %v", inc.ID, err)
	}
}

func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load restores the queue by replaying the journal (or a legacy
// whole-store file): the last record per ID wins, and first appearance
// keeps filing order. Incidents persisted mid-flight come back open,
// so no incident is ever stranded by a dead claimant. A last record
// without its newline that does not decode was torn by a crash
// mid-append: it is dropped and logged. Any other record that does not
// decode is an error, and the file is left as it was. Load then
// compacts the journal to one record per incident (tmp + rename), which
// also cuts off a torn tail before the next append could be glued onto
// it. A missing file is an empty queue, not an error.
func (st *Store) Load() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cfg.Path == "" {
		return nil
	}
	data, err := os.ReadFile(st.cfg.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	incidents := map[string]*Incident{}
	var order []string
	var last journalRecord
	for rest := data; len(rest) > 0; {
		line, next, complete := bytes.Cut(rest, []byte{'\n'})
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if complete {
				return fmt.Errorf("incident: parse journal %s at byte %d: %w", st.cfg.Path, len(data)-len(rest), err)
			}
			log.Printf("incident: journal %s: dropped a torn last record (%d bytes)", st.cfg.Path, len(rest))
			break
		}
		incs := rec.Incidents
		if rec.Incident != nil {
			incs = append(incs, *rec.Incident)
		}
		for i := range incs {
			inc := incs[i]
			if !inc.Status.Terminal() && inc.Status != StatusOpen {
				inc.Status = StatusOpen
				inc.Session = ""
				inc.Leader = ""
			}
			if _, seen := incidents[inc.ID]; !seen {
				order = append(order, inc.ID)
			}
			incidents[inc.ID] = &inc
		}
		last = rec
		rest = next
	}
	st.seq, st.filed, st.reopened = last.Seq, last.Filed, last.Reopened
	st.incidents, st.order = incidents, order
	return st.compactLocked()
}

// compactLocked rewrites the journal atomically (tmp + rename) as one
// record per incident in filing order, so a restart replays live state
// only.
func (st *Store) compactLocked() error {
	var buf bytes.Buffer
	for _, id := range st.order {
		line, err := st.recordLocked(st.incidents[id])
		if err != nil {
			return fmt.Errorf("incident: compact %s: %w", st.cfg.Path, err)
		}
		buf.Write(line)
	}
	tmp := st.cfg.Path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("incident: compact %s: %w", st.cfg.Path, err)
	}
	if err := os.Rename(tmp, st.cfg.Path); err != nil {
		return fmt.Errorf("incident: compact %s: %w", st.cfg.Path, err)
	}
	return nil
}

// copy deep-copies the incident, including the event log.
func (inc *Incident) copy() Incident {
	out := *inc
	out.Events = append([]Event(nil), inc.Events...)
	return out
}

// summary copies the incident without its event log.
func (inc *Incident) summary() Incident {
	out := *inc
	out.Events = nil
	return out
}

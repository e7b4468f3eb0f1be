package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/prompt"
)

// Span kinds. A client span wraps one request the load generator sends;
// gateway and backend spans wrap the handlers that serve it and join the
// client span through the X-Request-ID header the gateway forwards.
// Model and web spans hang off the backend span whose request context
// carried them; calls made outside any request (the incident
// processor's) have no parent.
type spanKind uint8

const (
	spanClient spanKind = iota + 1
	spanGateway
	spanBackend
	spanSim    // the sim model, wrapped at the backend registry
	spanRemote // the remote backend client, wrapped the same way
	spanWeb    // one simulated web wait (websim.Options.Clock)
)

// opKind names what a client request does.
type opKind uint8

const (
	opAsk opKind = iota + 1
	opLearn
	opFile
	opCreate
	opEvents
	opDelete
	opScrape
)

var opNames = [...]string{"", "ask", "learn", "file", "create", "events", "delete", "scrape"}

func (o opKind) String() string { return opNames[o] }

// span is one timed call into a layer. It holds no pointers, so the
// garbage collector does not scan the recorded spans: a traced run
// records several per request.
type span struct {
	id, parent uint64
	req        uint64 // X-Request-ID number (client, gateway and backend spans)
	kind       spanKind
	op         opKind        // client spans
	start, end time.Duration // since the tracer was created
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. The untraced run has
// none: nothing is wrapped and the program runs as deployed.
type tracer struct {
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.base) }

// reqPrefix starts every X-Request-ID the load generator sends.
const reqPrefix = "pb-"

func reqNumber(header string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(header, reqPrefix), 10, 64)
	return n
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// middleware records a span of the given kind around every request h
// serves and puts the span ID into the request context, which session
// operations pass down to the model and the web.
func (t *tracer) middleware(kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{id: id, req: reqNumber(r.Header.Get("X-Request-ID")), kind: kind, start: t.since(start), end: t.since(time.Now())})
	})
}

// webClock is the websim.Clock of the traced run: it really sleeps, like
// the default timer, and records each wait.
type webClock struct{ t *tracer }

func (c webClock) Sleep(ctx context.Context, d time.Duration) error {
	start := time.Now()
	timer := time.NewTimer(d)
	defer timer.Stop()
	var err error
	select {
	case <-timer.C:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.t.add(span{id: c.t.newID(), parent: parentOf(ctx), kind: spanWeb, start: c.t.since(start), end: c.t.since(time.Now())})
	return err
}

// tracedModel records a span around every completion of the model it
// wraps.
type tracedModel struct {
	inner llm.Model
	t     *tracer
	kind  spanKind
}

func (m *tracedModel) record(ctx context.Context, start time.Time) {
	m.t.add(span{id: m.t.newID(), parent: parentOf(ctx), kind: m.kind, start: m.t.since(start), end: m.t.since(time.Now())})
}

func (m *tracedModel) Complete(ctx context.Context, encoded string) (string, error) {
	start := time.Now()
	out, err := m.inner.Complete(ctx, encoded)
	m.record(ctx, start)
	return out, err
}

// tracedParsed keeps the llm.ParsedCompleter fast path of a model that
// has one: dropping it would send every sim completion through
// Encode→Parse and measure a different program.
type tracedParsed struct {
	*tracedModel
	pc llm.ParsedCompleter
}

func (m tracedParsed) CompleteParsed(ctx context.Context, p prompt.Prompt) (string, error) {
	start := time.Now()
	out, err := m.pc.CompleteParsed(ctx, p)
	m.record(ctx, start)
	return out, err
}

func wrapModel(inner llm.Model, t *tracer, kind spanKind) llm.Model {
	tm := &tracedModel{inner: inner, t: t, kind: kind}
	if pc, ok := inner.(llm.ParsedCompleter); ok {
		return tracedParsed{tracedModel: tm, pc: pc}
	}
	return tm
}

// stockSim and stockRemote rebuild what the backend package registers at
// init for "sim" and "remote"; the registry has no getter, so the traced
// run wraps these and restores them when it ends.
func stockSim(backend.Options) (llm.Model, error) { return llm.NewSim(), nil }

func stockRemote(o backend.Options) (llm.Model, error) {
	return backend.NewRemote(backend.RemoteConfig{
		Endpoint:    o.Endpoint,
		APIKey:      o.APIKey,
		Upstream:    o.Upstream,
		BatchWindow: o.BatchWindow,
		BatchMax:    o.BatchMax,
		Hedge:       o.Hedge,
		HedgeDelay:  o.HedgeDelay,
		Fallback:    llm.NewSim(),
		Counters:    o.Counters,
	})
}

// installModelTracing re-registers "sim" and "remote" so every session
// built afterwards records model spans into t. The returned function
// puts the stock factories back.
func installModelTracing(t *tracer) (restore func()) {
	wrap := func(f backend.Factory, kind spanKind) backend.Factory {
		return func(o backend.Options) (llm.Model, error) {
			m, err := f(o)
			if err != nil {
				return nil, err
			}
			return wrapModel(m, t, kind), nil
		}
	}
	backend.Register("sim", wrap(stockSim, spanSim))
	backend.Register("remote", wrap(stockRemote, spanRemote))
	return func() {
		backend.Register("sim", stockSim)
		backend.Register("remote", stockRemote)
	}
}

// covered returns how much of [start, end) the intervals cover, counting
// overlapping intervals once.
func covered(start, end time.Duration, ivs []span) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curS, curE time.Duration
	open := false
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// opTrace is one client operation joined with the spans that served it.
type opTrace struct {
	client   span
	gateway  []span
	backend  []span
	children []span // model and web spans under the backend spans
}

// layerSums is the per-layer time inside one operation.
type layerSums struct {
	hop, self, sim, remote, web time.Duration
	simCalls, remoteCalls       int
}

func (o opTrace) layers() layerSums {
	var l layerSums
	var handler time.Duration
	for _, b := range o.backend {
		handler += b.dur()
		var kids []span
		for _, c := range o.children {
			if c.parent == b.id {
				kids = append(kids, c)
			}
		}
		l.self += b.dur() - covered(b.start, b.end, kids)
	}
	for _, c := range o.children {
		switch c.kind {
		case spanSim:
			l.sim += c.dur()
			l.simCalls++
		case spanRemote:
			l.remote += c.dur()
			l.remoteCalls++
		case spanWeb:
			l.web += c.dur()
		}
	}
	l.hop = o.client.dur() - handler
	return l
}

// joined groups the recorded spans by client operation. Spans from
// calls with no request above them (the incident processor) are
// returned separately; spans under requests the measured phase did not
// send are dropped.
func joined(spans []span) (ops []opTrace, orphans []span) {
	byReq := map[uint64]*opTrace{}
	var order []uint64
	backendReq := map[uint64]uint64{}
	for _, s := range spans {
		switch s.kind {
		case spanClient:
			byReq[s.req] = &opTrace{client: s}
			order = append(order, s.req)
		case spanBackend:
			backendReq[s.id] = s.req
		}
	}
	for _, s := range spans {
		switch s.kind {
		case spanGateway:
			if o := byReq[s.req]; o != nil {
				o.gateway = append(o.gateway, s)
			}
		case spanBackend:
			if o := byReq[s.req]; o != nil {
				o.backend = append(o.backend, s)
			}
		case spanSim, spanRemote, spanWeb:
			if s.parent == 0 {
				orphans = append(orphans, s)
			} else if o := byReq[backendReq[s.parent]]; o != nil {
				o.children = append(o.children, s)
			}
		}
	}
	for _, req := range order {
		ops = append(ops, *byReq[req])
	}
	return ops, orphans
}

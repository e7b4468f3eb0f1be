package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/llm/backend"
	"repro/internal/session"
)

// The investigate workload: one operator at a time opens a fresh session
// on the remote model, follows its event stream and runs a self-learning
// investigation. The remote model is llmstub with a fixed latency, and
// every web request waits, so the workload mostly waits: on the remote
// client (a fresh response cache per session, so every prompt goes
// upstream) and on the retrieval fan-out.
const (
	investigateStubLatency = 3 * time.Millisecond
	investigateWebLatency  = 500 * time.Microsecond
	// subscribeLead is how long after opening the event stream the
	// investigation is sent.
	subscribeLead = time.Millisecond
	// investigateWindows is how many windows the measured phase runs in;
	// each records its CPU time per investigation.
	investigateWindows = 10
)

type investigateWorkload struct {
	bodies [][]byte
	refs   []agent.Answer
}

func (w *investigateWorkload) deployConfig(o options) deployConfig {
	return deployConfig{
		capacity:    64,
		webLatency:  investigateWebLatency,
		stub:        o.stub,
		stubLatency: investigateStubLatency,
	}
}

func (w *investigateWorkload) op() opKind { return opLearn }

// prepare runs every question's investigation on a fresh in-process sim
// agent: the remote model is the same sim behind llmstub, so each final
// answer over HTTP must equal these.
func (w *investigateWorkload) prepare(o options) error {
	ctx := context.Background()
	w.bodies, w.refs = nil, nil
	for _, q := range quizQuestions() {
		a, _, err := session.NewAgent(session.Config{Seed: worldSeed})
		if err != nil {
			return err
		}
		inv, err := a.Investigate(ctx, q)
		if err != nil {
			return err
		}
		ref, err := normalized(inv.Final)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, ref)
		body, _ := json.Marshal(session.QuestionRequest{Question: q})
		w.bodies = append(w.bodies, body)
	}
	return nil
}

// setup has nothing to add: investigations open their own sessions.
func (w *investigateWorkload) setup(context.Context, *deployment, options) error { return nil }

func (w *investigateWorkload) measure(ctx context.Context, d *deployment, base *client, o options, secs float64, begin func()) (*phase, error) {
	// One investigation in flight: its event stream and its requests are
	// the generator's two connections.
	c := newClient(d.url, 2, base.tr)
	defer c.close()
	rng := rand.New(rand.NewSource(o.seed))
	p := &phase{}
	for i := 0; i < 3; i++ {
		w.investigate(ctx, c, rng.Intn(len(w.bodies)), false, p)
	}
	warm := *p
	*p = phase{attempted: warm.attempted, failed: warm.failed}
	begin()
	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	for k := 1; k <= investigateWindows; k++ {
		done, ops := p.cpuWindow(), p.ops
		end := start.Add(time.Duration(k) * deadline.Sub(start) / investigateWindows)
		for inject := o.inject && k == 1; time.Now().Before(end); inject = false {
			w.investigate(ctx, c, rng.Intn(len(w.bodies)), inject, p)
		}
		done(p.ops - ops)
	}
	p.capacity = float64(p.ops) / time.Since(start).Seconds()
	return p, nil
}

// streamResult is what the event-stream reader saw.
type streamResult struct {
	first  time.Time
	events int64
}

// investigate runs one investigation end to end. With broken set, the
// investigation is sent without its question, which the service must
// refuse.
func (w *investigateWorkload) investigate(ctx context.Context, c *client, q int, broken bool, p *phase) {
	p.attempted++
	fallbacks := backend.Snapshot().Fallbacks
	var latency, firstEvent, ack time.Duration
	var events int64
	t0 := time.Now()
	ok := func() bool {
		r, err := c.do(ctx, opCreate, http.MethodPost, "/v1/sessions", []byte(`{"model":"remote"}`))
		if err != nil || r.status != http.StatusCreated {
			return false
		}
		ack = r.done.Sub(t0)
		var st session.Status
		if json.Unmarshal(r.body, &st) != nil || st.ID == "" {
			return false
		}
		path := "/v1/sessions/" + st.ID
		// The operator subscribes, then asks. The gateway relays the
		// stream's headers only with its first event, so the benchmark
		// cannot see the subscription land: it gives the subscription a
		// fixed head start, and the stream replays from the session's
		// first event (?after=0) should it land late all the same.
		sctx, stop := context.WithCancel(ctx)
		defer stop()
		done := make(chan streamResult, 1)
		go func() {
			resp, end, err := c.stream(sctx, opEvents, path+"/events?after=0")
			if err != nil {
				done <- streamResult{}
				return
			}
			done <- readEvents(resp, end)
		}()

		body := w.bodies[q]
		if broken {
			body = []byte(`{}`)
		}
		sleepUntil(time.Now().Add(subscribeLead))
		tl := time.Now()
		lr, err := c.do(ctx, opLearn, http.MethodPost, path+"/learn", body)
		good := err == nil && lr.status == http.StatusOK
		if good {
			var inv agent.Investigation
			good = json.Unmarshal(lr.body, &inv) == nil && reflect.DeepEqual(inv.Final, w.refs[q])
		}
		// Deleting the session also ends a stream whose operation never
		// started.
		dr, err := c.do(ctx, opDelete, http.MethodDelete, path, nil)
		if err != nil || dr.status != http.StatusOK {
			stop() // the stream may never end on its own
		}
		sr := <-done
		if !good || err != nil || dr.status != http.StatusOK || sr.events == 0 {
			return false
		}
		latency, firstEvent, events = lr.done.Sub(tl), sr.first.Sub(tl), sr.events
		return true
	}()
	// A completion the remote path could not serve fell back to the sim
	// model: the answer may match, but the operation failed.
	if !ok || backend.Snapshot().Fallbacks != fallbacks {
		p.failed++
		return
	}
	p.ops++
	p.latency = append(p.latency, sample{t0, latency})
	p.firstEvent = append(p.firstEvent, sample{t0, firstEvent})
	p.ack = append(p.ack, sample{t0, ack})
	p.events += events
}

// readEvents reads an SSE stream to its end, noting when the first
// event arrived and how many there were. A stream refused with an
// error status has no events.
func readEvents(resp *http.Response, end func()) streamResult {
	defer end()
	defer resp.Body.Close()
	var sr streamResult
	if resp.StatusCode != http.StatusOK {
		return sr
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if strings.HasPrefix(line, "event: ") && !strings.HasPrefix(line, "event: close") {
			if sr.events == 0 {
				sr.first = time.Now()
			}
			sr.events++
		}
		if err != nil {
			return sr
		}
	}
}

func (w *investigateWorkload) layers(metricSet, *phase, []opTrace) {}

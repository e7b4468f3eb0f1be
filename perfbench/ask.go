package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/quiz"
	"repro/internal/session"
)

// The ask workload: operators asking trained sessions questions. There
// are more sessions than the two backends hold, and popularity is Zipf,
// so the tail of asks restores sessions from the shared snapshot
// directory. Phase 1 is an open loop at askRate; phase 2 is a closed
// loop with one client per core.
const (
	askSessions = 128
	askCapacity = 48 // per backend: 96 live of 128
	// askRate is about a fifth of the closed-loop capacity of the commit
	// the benchmark was written on, 4000 to 6800 asks/s on a shared
	// 2-core host (BENCHMARK.json records it too). At 2000 and 2500 the
	// open loop tipped, in some runs during slow spells of the host, into
	// a congested state with a p50 two to eight times higher.
	askRate = 1000.0
	// askZipfS shapes session popularity (rand.Zipf's s, with v = 1).
	askZipfS = 1.1
	// askWindows is how many windows the closed loop runs in; each
	// records its CPU time per ask.
	askWindows = 8
)

type askWorkload struct {
	questions []string
	bodies    [][]byte
	refs      []agent.Answer
}

func (w *askWorkload) sizing(o options) (sessions, capacity int, rate float64) {
	if o.short {
		return 12, 4, 200
	}
	return askSessions, askCapacity, askRate
}

func (w *askWorkload) deployConfig(o options) deployConfig {
	_, capacity, _ := w.sizing(o)
	return deployConfig{capacity: capacity}
}

func (w *askWorkload) op() opKind { return opAsk }

func quizQuestions() []string {
	var qs []string
	for _, c := range append(quiz.Conclusions(), quiz.ExtendedConclusions()...) {
		qs = append(qs, c.Question)
	}
	return qs
}

// normalized round-trips v through JSON, the form a client decodes.
func normalized[T any](v T) (T, error) {
	var out T
	b, err := json.Marshal(v)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(b, &out)
}

// prepare computes each question's reference answer on one trained
// in-process agent. Every session is trained on the same world and
// role, so every session must give exactly these answers.
func (w *askWorkload) prepare(o options) error {
	ctx := context.Background()
	a, _, err := session.NewAgent(session.Config{Seed: worldSeed})
	if err != nil {
		return err
	}
	if _, err := a.Train(ctx); err != nil {
		return err
	}
	w.questions = quizQuestions()
	w.bodies, w.refs = nil, nil
	for _, q := range w.questions {
		ans, err := a.Ask(ctx, q)
		if err != nil {
			return err
		}
		if ans, err = normalized(ans); err != nil {
			return err
		}
		w.refs = append(w.refs, ans)
		body, _ := json.Marshal(session.QuestionRequest{Question: q})
		w.bodies = append(w.bodies, body)
	}
	return nil
}

func askSessionID(i int) string { return fmt.Sprintf("ask-%03d", i) }

// setup creates and trains every session through the gateway.
func (w *askWorkload) setup(ctx context.Context, d *deployment, o options) error {
	sessions, _, _ := w.sizing(o)
	c := newClient(d.url, conns(), nil)
	defer c.close()
	ids := make(chan int, sessions)
	for i := 0; i < sessions; i++ {
		ids <- i
	}
	close(ids)
	var wg sync.WaitGroup
	errs := make(chan error, conns())
	for k := 0; k < conns(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				body, _ := json.Marshal(session.CreateRequest{ID: askSessionID(i), Train: true})
				r, err := c.do(ctx, opCreate, http.MethodPost, "/v1/sessions", body)
				if err == nil && r.status != http.StatusCreated {
					err = fmt.Errorf("create %s: %d %s", askSessionID(i), r.status, r.body)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// ask sends one ask and checks the answer against the reference.
func (w *askWorkload) ask(ctx context.Context, c *client, sess string, q int) (response, bool) {
	r, err := c.do(ctx, opAsk, http.MethodPost, "/v1/sessions/"+sess+"/ask", w.bodies[q])
	if err != nil || r.status != http.StatusOK {
		reportFailure("ask %s: %v %d %.200s", sess, err, r.status, r.body)
		return r, false
	}
	var got agent.Answer
	if err := json.Unmarshal(r.body, &got); err != nil || !reflect.DeepEqual(got, w.refs[q]) {
		reportFailure("ask %s question %d: answer %.200s differs from the reference", sess, q, r.body)
		return r, false
	}
	return r, true
}

func (w *askWorkload) measure(ctx context.Context, d *deployment, c *client, o options, secs float64, begin func()) (*phase, error) {
	sessions, _, rate := w.sizing(o)
	rng := rand.New(rand.NewSource(o.seed))
	zipfFor := func(rng *rand.Rand) *rand.Zipf { return rand.NewZipf(rng, askZipfS, 1, uint64(sessions-1)) }

	// Warm-up: a closed loop long enough to touch the popular sessions
	// and open every connection.
	warm := closedLoop(time.Now().Add(time.Duration(secs*float64(time.Second)/10)), conns(), o.seed+1, w.closedAsk(ctx, c, zipfFor))
	begin()

	stopScrape := w.scrape(ctx, c)
	open := secs * 0.6
	due := poissonArrivals(rng, rate, open)
	zipf := zipfFor(rng)
	sess := make([]string, len(due))
	qs := make([]int, len(due))
	for i := range due {
		sess[i] = askSessionID(int(zipf.Uint64()))
		qs[i] = rng.Intn(len(w.questions))
	}
	if o.inject {
		sess[len(sess)/2] = "no-such-session"
	}
	p := openLoop(time.Now(), due, conns(), func(_, i int, at time.Time, p *phase) {
		p.attempted++
		r, ok := w.ask(ctx, c, sess[i], qs[i])
		if !ok {
			p.failed++
			return
		}
		p.ops++
		p.latency = append(p.latency, sample{at, r.done.Sub(at)})
		p.firstEvent = append(p.firstEvent, sample{at, r.head.Sub(at)})
		p.ack = append(p.ack, sample{at, r.head.Sub(at)})
	})

	start := time.Now()
	end := start.Add(time.Duration((secs - open) * float64(time.Second)))
	closed := &phase{}
	for k := 1; k <= askWindows; k++ {
		done := closed.cpuWindow()
		q := closedLoop(start.Add(time.Duration(k)*end.Sub(start)/askWindows), conns(), o.seed*100+int64(k), w.closedAsk(ctx, c, zipfFor))
		done(q.ops)
		closed.merge(q)
	}
	p.cpuPerOp = closed.cpuPerOp
	p.capacity = windowedRate(closed.completions, start, end)
	p.attempted += closed.attempted + warm.attempted
	p.failed += closed.failed + warm.failed
	p.ops += closed.ops
	p.scrapes, p.scrapeBytes = stopScrape()
	p.snapshotKB = fileSizesKB(filepath.Join(d.dir, "snapshots", "*.json"))
	return p, nil
}

// closedAsk builds a closed-loop client: each request asks a
// Zipf-popular session a uniformly drawn question.
func (w *askWorkload) closedAsk(ctx context.Context, c *client, zipfFor func(*rand.Rand) *rand.Zipf) func(*rand.Rand) func(*phase) {
	return func(rng *rand.Rand) func(*phase) {
		z := zipfFor(rng)
		return func(p *phase) {
			p.attempted++
			r, ok := w.ask(ctx, c, askSessionID(int(z.Uint64())), rng.Intn(len(w.questions)))
			if !ok {
				p.failed++
				return
			}
			p.ops++
			p.completions = append(p.completions, r.done)
		}
	}
}

// scrape fetches GET /v1/metrics through the gateway once a second until
// the returned function is called; that function returns each scrape's
// time and size.
func (w *askWorkload) scrape(ctx context.Context, c *client) func() ([]time.Duration, []int) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var times []time.Duration
	var sizes []int
	go func() {
		defer close(done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			start := time.Now()
			r, err := c.do(ctx, opScrape, http.MethodGet, "/v1/metrics", nil)
			if err == nil && r.status == http.StatusOK {
				times = append(times, r.done.Sub(start))
				sizes = append(sizes, len(r.body))
			}
		}
	}()
	return func() ([]time.Duration, []int) {
		close(stop)
		<-done
		return times, sizes
	}
}

func (w *askWorkload) layers(m metricSet, p *phase, ops []opTrace) {
	m.set("session.snapshot_p50_kb", "KB", median(p.snapshotKB))
	m.set("metrics.scrape_p50_ms", "ms", ms(quantile(p.scrapes, 0.5)))
	var kb []float64
	for _, b := range p.scrapeBytes {
		kb = append(kb, float64(b)/1024)
	}
	m.set("metrics.scrape_kb", "KB", median(kb))
}

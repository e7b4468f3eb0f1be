package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/incident"
	"repro/internal/session"
)

// The incidents workload: storm bursts filed through the gateway. A
// burst of burstSize filings of an incident.SimBatch falls due at once;
// each backend's processor claims, groups and investigates what lands
// on it, and each backend's store rewrites its whole file on every
// filing and every terminal transition, so the write path gets dearer
// as the stores grow.
const (
	incidentWorkers    = 2
	incidentWebLatency = 200 * time.Microsecond
	burstSize          = 41 // the size of SimBatch(42)
	// drainTimeout bounds the wait, after a burst is filed, for every
	// incident to reach a terminal state.
	drainTimeout = 60 * time.Second
)

type incidentsWorkload struct {
	// want is the status each (type, leader title) ends in: a group's
	// outcome is its leader's, and the leader's investigation depends
	// only on its type's question and its own title.
	want map[leaderKey]incident.Status
}

type leaderKey struct{ typ, title string }

func (w *incidentsWorkload) deployConfig(o options) deployConfig {
	return deployConfig{capacity: 64, webLatency: incidentWebLatency, incidentWorkers: incidentWorkers}
}

func (w *incidentsWorkload) op() opKind { return opFile }

// burstCount is how many bursts a run of secs seconds files after its
// one warm-up burst: one per second. On a 2-core host a burst ends in
// about 0.8 s.
func burstCount(secs float64) int { return max(1, int(secs)) }

// prepare finds the outcome of every filing that could lead a group in
// this run: each one alone, drained serially by a Processor in process.
func (w *incidentsWorkload) prepare(o options) error {
	fs := bursts(rand.New(rand.NewSource(o.seed)), 1+burstCount(o.seconds))
	mgr := session.NewManager(session.ManagerConfig{})
	defer mgr.Shutdown()
	w.want = map[leaderKey]incident.Status{}
	for _, f := range fs {
		k := leaderKey{f.Type, f.Title}
		if _, done := w.want[k]; done {
			continue
		}
		st := incident.NewStore(incident.StoreConfig{})
		proc := incident.NewProcessor(st, mgr, incident.ProcessorConfig{
			Workers:  1,
			MaxTurns: 4,
			Session:  session.Config{Seed: worldSeed},
		})
		inc, err := st.File(f)
		if err != nil {
			return err
		}
		if err := proc.Drain(context.Background()); err != nil {
			return err
		}
		if inc, err = st.Get(inc.ID); err != nil {
			return err
		}
		w.want[k] = inc.Status
	}
	return nil
}

// setup has nothing to add: the processors start with the deployment.
func (w *incidentsWorkload) setup(context.Context, *deployment, options) error { return nil }

// filed is one accepted filing.
type filed struct {
	id, typ string
	due     time.Time
}

// bursts returns the filings of n bursts in order. Each burst is
// burstSize filings of a SimBatch from its own seed, kept in batch
// order: SimBatch sizes range from about 35 to 70 with the seed, and a
// fixed size keeps the load the same from seed to seed.
func bursts(rng *rand.Rand, n int) []incident.Filing {
	var fs []incident.Filing
	for len(fs) < n*burstSize {
		batch := incident.SimBatch(rng.Uint64())
		for len(batch) < burstSize {
			batch = incident.SimBatch(rng.Uint64())
		}
		keep := rng.Perm(len(batch))[:burstSize]
		sort.Ints(keep)
		for _, i := range keep {
			fs = append(fs, batch[i])
		}
	}
	return fs
}

func (w *incidentsWorkload) measure(ctx context.Context, d *deployment, c *client, o options, secs float64, begin func()) (*phase, error) {
	rng := rand.New(rand.NewSource(o.seed))
	warm, err := w.run(ctx, d, c, rng, false)
	if err != nil {
		return nil, err
	}
	begin()
	// Bursts go back to back: each falls due when the one before it has
	// ended. Overlapping bursts (an open loop over bursts) make group
	// formation depend on arrival timing from burst to burst, and their
	// latencies spread about twice as much from run to run.
	p := &phase{}
	start := time.Now()
	for b := 0; b < burstCount(secs); b++ {
		done := p.cpuWindow()
		q, err := w.run(ctx, d, c, rng, o.inject && b == 0)
		if err != nil {
			return nil, err
		}
		done(q.ops)
		p.merge(q)
		p.queueDepthMax = max(p.queueDepthMax, q.queueDepthMax)
	}
	p.capacity = float64(p.ops) / time.Since(start).Seconds()
	p.attempted += warm.attempted
	p.failed += warm.failed
	p.storeKB = fileSizesKB(filepath.Join(d.dir, "incidents-*.json"))
	return p, nil
}

// run files one burst, waits for every accepted incident to end, and
// reads each one's timeline back from the stores.
func (w *incidentsWorkload) run(ctx context.Context, d *deployment, c *client, rng *rand.Rand, inject bool) (*phase, error) {
	fs := bursts(rng, 1)
	if inject {
		fs = append(fs, incident.Filing{Type: "bogus", Severity: "none"})
	}
	due := make([]time.Duration, len(fs)) // all at once
	terminal0 := terminalCount(d)

	sampled := make(chan int, 1)
	stop := make(chan struct{})
	go func() { sampled <- sampleQueueDepth(d, stop) }()

	var mu sync.Mutex
	var accepted []filed
	start := time.Now()
	p := openLoop(start, due, conns(), func(_, i int, at time.Time, p *phase) {
		p.attempted++
		body, _ := json.Marshal(fs[i])
		r, err := c.do(ctx, opFile, http.MethodPost, "/v1/incidents", body)
		var inc incident.Incident
		if err != nil || r.status != http.StatusCreated || json.Unmarshal(r.body, &inc) != nil {
			p.failed++
			return
		}
		p.ack = append(p.ack, sample{at, r.done.Sub(at)})
		mu.Lock()
		accepted = append(accepted, filed{id: inc.ID, typ: inc.Type, due: at})
		mu.Unlock()
	})

	deadline := time.Now().Add(drainTimeout)
	for terminalCount(d)-terminal0 < int64(len(accepted)) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	// A processor closes a group's session after the group's last
	// outcome; wait for that too, so that heap_mb sees an idle
	// deployment.
	for liveSessions(d) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	p.queueDepthMax = <-sampled

	for _, f := range accepted {
		inc, err := lookup(d, f.id)
		if err != nil {
			return nil, err
		}
		leader := inc
		if inc.Leader != inc.ID {
			if leader, err = lookup(d, inc.Leader); err != nil {
				return nil, err
			}
		}
		claimed, ended := timeline(inc)
		want, known := w.want[leaderKey{leader.Type, leader.Title}]
		if ended.IsZero() || claimed.IsZero() || !known || inc.Status != want {
			p.failed++
			continue
		}
		p.ops++
		p.latency = append(p.latency, sample{f.due, ended.Sub(f.due)})
		p.firstEvent = append(p.firstEvent, sample{f.due, claimed.Sub(f.due)})
	}
	return p, nil
}

// timeline returns when the incident was first claimed and when it
// first reached a terminal state (zero times when it never did).
func timeline(inc incident.Incident) (claimed, ended time.Time) {
	for _, e := range inc.Events {
		switch e.Kind {
		case incident.EvClaimed:
			if claimed.IsZero() {
				claimed = e.Time
			}
		case incident.EvResolved, incident.EvEscalated:
			if ended.IsZero() {
				ended = e.Time
			}
		}
	}
	return claimed, ended
}

func lookup(d *deployment, id string) (incident.Incident, error) {
	for _, n := range d.nodes {
		inc, err := n.store.Get(id)
		if err == nil {
			return inc, nil
		}
		if !errors.Is(err, incident.ErrNotFound) {
			return inc, err
		}
	}
	return incident.Incident{}, fmt.Errorf("incident %s is in no store", id)
}

func liveSessions(d *deployment) int {
	n := 0
	for _, nd := range d.nodes {
		n += nd.mgr.Len()
	}
	return n
}

func terminalCount(d *deployment) int64 {
	var n int64
	for _, nd := range d.nodes {
		st := nd.store.Stats()
		n += st.Resolved + st.Escalated
	}
	return n
}

// sampleQueueDepth samples the open incidents over all stores at 10 Hz
// until stop closes, and returns the largest sample.
func sampleQueueDepth(d *deployment, stop <-chan struct{}) int {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	max := 0
	for {
		select {
		case <-stop:
			return max
		case <-t.C:
		}
		depth := 0
		for _, n := range d.nodes {
			depth += n.store.Stats().QueueDepth
		}
		if depth > max {
			max = depth
		}
	}
}

func (w *incidentsWorkload) layers(m metricSet, p *phase, ops []opTrace) {
	var handler []time.Duration
	for _, o := range ops {
		if o.client.op == w.op() {
			for _, b := range o.backend {
				handler = append(handler, b.dur())
			}
		}
	}
	m.set("incident.ack_handler_p50_ms", "ms", ms(quantile(handler, 0.5)))
	m.set("incident.ack_handler_p99_ms", "ms", ms(quantile(handler, 0.99)))
	m.set("incident.store_kb", "KB", median(p.storeKB))
	m.set("incident.queue_depth_max", "count", float64(p.queueDepthMax))
}

// Ask hot-path benchmarks: the cost of one knowledge-test query (§3.4's
// answer → confidence → follow-up loop) through every entry point. The
// serving north star routes millions of these through Agent.Ask, so the
// suite pins the trajectory of the whole path — retrieval, prompt
// encoding, the model's evidence build — cold and warm, direct and over
// HTTP, serial and parallel. scripts/bench.sh records the results as
// BENCH_ask.json.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/agent"
	"repro/internal/eval"
	"repro/internal/quiz"
	"repro/internal/session"
)

// askQuestion is the paper's headline comparative question; answering it
// exercises retrieval, evidence extraction and comparative reasoning.
var askQuestion = quiz.Conclusions()[0].Question

// trainedAskAgent returns a trained Bob built through the process-wide
// training memo; the agent owns its memory, so the benchmark cannot
// dirty the memo.
func trainedAskAgent(b *testing.B) *agent.Agent {
	b.Helper()
	bob, _, err := eval.TrainedBob(context.Background(), eval.DefaultSetup())
	if err != nil {
		b.Fatal(err)
	}
	return bob
}

// BenchmarkAskWarm measures the steady-state ask: same question,
// unchanged memory — the shape of confidence re-checks inside the
// self-learning loop and of repeated operator queries. With the
// evidence and knowledge-text caches this is the designed fast path.
func BenchmarkAskWarm(b *testing.B) {
	ctx := context.Background()
	bob := trainedAskAgent(b)
	if _, err := bob.Ask(ctx, askQuestion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bob.Ask(ctx, askQuestion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskWarmRotating rotates through every conclusion question, so
// each ask warms a different cache line — the multi-question steady
// state of a busy session, bounded-cache behaviour included.
func BenchmarkAskWarmRotating(b *testing.B) {
	ctx := context.Background()
	bob := trainedAskAgent(b)
	qs := make([]string, 0, 8)
	for _, c := range quiz.Conclusions() {
		qs = append(qs, c.Question)
	}
	for _, q := range qs {
		if _, err := bob.Ask(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bob.Ask(ctx, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAskParallel drives concurrent asks against one trained agent
// — reads only, which is exactly what GOMAXPROCS HTTP handlers do to a
// hot session's memory and model.
func BenchmarkAskParallel(b *testing.B) {
	ctx := context.Background()
	bob := trainedAskAgent(b)
	if _, err := bob.Ask(ctx, askQuestion); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := bob.Ask(ctx, askQuestion); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAskHTTP measures one ask through the full serving stack —
// HTTP round-trip, session lookup, op lock, agent, JSON response — with
// the session always live (no eviction churn; that's HTTPAskParallel's
// job).
func BenchmarkAskHTTP(b *testing.B) {
	m := session.NewManager(session.ManagerConfig{Capacity: 4, Defaults: benchSessionConfig})
	defer m.Shutdown()
	s, err := m.Create("bench", benchSessionConfig)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Train(context.Background()); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(session.Handler(m))
	defer srv.Close()
	url := srv.URL + "/v1/sessions/bench/ask"
	body := []byte(fmt.Sprintf(`{"question":%q}`, askQuestion))
	post := func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ask: %d", resp.StatusCode)
		}
	}
	post() // warm
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		post()
	}
}

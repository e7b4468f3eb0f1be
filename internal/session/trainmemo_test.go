package session

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/quiz"
	"repro/internal/stream"
)

// pristineSession builds an untrained session named "memo" on a frozen
// clock, so two of them differ only in how they were trained.
func pristineSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s, err := newSession("memo", cfg, new(atomic.Int64), func() time.Time { return at })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.markClosed)
	return s
}

func resetTrainMemo(t *testing.T) {
	evalcache.ResetSegmentCacheForTest()
	t.Cleanup(evalcache.ResetSegmentCacheForTest)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func eventsJSON(t *testing.T, s *Session) string {
	t.Helper()
	evs, _, _ := s.Events(0)
	return mustJSON(t, evs)
}

// wantTrainCounts checks the memo's hit and miss counters.
func wantTrainCounts(t *testing.T, hits, misses int64) {
	t.Helper()
	st := evalcache.SegmentStats()
	if st.TrainHits != hits || st.TrainMisses != misses {
		t.Fatalf("train hits/misses = %d/%d, want %d/%d", st.TrainHits, st.TrainMisses, hits, misses)
	}
}

// TestTrainMemoHitMatchesMiss is the byte-identity contract of the
// training memo: a session trained on a hit is indistinguishable from
// one that ran the Auto-GPT loop — events (IDs and JSON), report,
// snapshot bytes and every quiz answer. Web latency is not part of the
// key, so a session that differs only in latency hits too.
func TestTrainMemoHitMatchesMiss(t *testing.T) {
	ctx := context.Background()
	resetTrainMemo(t)
	cfg := Config{Seed: 42}
	miss := pristineSession(t, cfg)
	missRep, err := miss.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantTrainCounts(t, 0, 1)
	slow := cfg
	slow.WebOptions.Latency = time.Millisecond
	var hits []*Session
	for _, c := range []Config{cfg, slow} {
		s := pristineSession(t, c)
		rep, err := s.Train(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, missRep) || mustJSON(t, rep) != mustJSON(t, missRep) {
			t.Errorf("hit report %+v, miss report %+v", rep, missRep)
		}
		hits = append(hits, s)
	}
	wantTrainCounts(t, 2, 1)
	if st := evalcache.SegmentStats(); st.TrainEntries != 1 {
		t.Errorf("train entries = %d, want 1", st.TrainEntries)
	}

	hit := hits[0]
	if got, want := eventsJSON(t, hit), eventsJSON(t, miss); got != want {
		t.Errorf("hit events differ:\nhit  %s\nmiss %s", got, want)
	}
	if got, want := mustJSON(t, hit.snapshotLocked()), mustJSON(t, miss.snapshotLocked()); got != want {
		t.Errorf("hit snapshot differs:\nhit  %s\nmiss %s", got, want)
	}
	if !hit.Status().Trained || hit.MemoryLen() != miss.MemoryLen() {
		t.Errorf("hit status %+v, miss memory %d", hit.Status(), miss.MemoryLen())
	}
	for _, c := range append(quiz.Conclusions(), quiz.ExtendedConclusions()...) {
		want, err := miss.Ask(ctx, c.Question)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range hits {
			got, err := s.Ask(ctx, c.Question)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: hit answered %+v, miss %+v", c.Question, got, want)
			}
		}
	}
}

// TestTrainMemoKeyIgnoresInvestigationKnobs: TrainKey drops the
// settings training never reads, so a session tuned only in those hits
// the default session's entry — and that hit is what the tuned session
// trains to with the memo cold.
func TestTrainMemoKeyIgnoresInvestigationKnobs(t *testing.T) {
	ctx := context.Background()
	resetTrainMemo(t)
	tuned := Config{Seed: 42, AgentConfig: agent.Config{
		ConfidenceThreshold: 9, MaxRounds: 2, KnowledgeItems: 4, LearnResults: 3, RetrievalWorkers: 1,
	}}
	tuned.AgentConfig.Runner.RetrievalWorkers = 1
	if TrainKey(tuned) != TrainKey(Config{Seed: 42}) {
		t.Fatal("investigation knobs changed the training key")
	}
	trainSnapshot := func() (string, string, string) {
		s := pristineSession(t, tuned)
		rep, err := s.Train(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return eventsJSON(t, s), mustJSON(t, rep), mustJSON(t, s.snapshotLocked())
	}
	coldEvents, coldRep, coldSnap := trainSnapshot()
	evalcache.ResetSegmentCacheForTest()
	if _, err := pristineSession(t, Config{Seed: 42}).Train(ctx); err != nil {
		t.Fatal(err)
	}
	hitEvents, hitRep, hitSnap := trainSnapshot()
	wantTrainCounts(t, 1, 1)
	if hitEvents != coldEvents || hitRep != coldRep || hitSnap != coldSnap {
		t.Errorf("tuned session trained on a hit differs from its cold training")
	}
}

// TestTrainMemoBypass covers every training the memo must not replay:
// each trains for real and counts a miss, never a hit.
func TestTrainMemoBypass(t *testing.T) {
	ctx := context.Background()
	trainTwice := func(t *testing.T, cfg Config) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := pristineSession(t, cfg).Train(ctx); err != nil {
				t.Fatal(err)
			}
		}
		wantTrainCounts(t, 0, 2)
		if st := evalcache.SegmentStats(); st.TrainEntries != 0 {
			t.Errorf("bypassed trainings stored %d entries", st.TrainEntries)
		}
	}

	t.Run("failure-rate", func(t *testing.T) {
		resetTrainMemo(t)
		cfg := Config{Seed: 42}
		cfg.WebOptions.FailureRate = 0.05
		trainTwice(t, cfg)
	})

	t.Run("remote", func(t *testing.T) {
		resetTrainMemo(t)
		sim := llm.NewSim()
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			served.Add(1)
			var req struct {
				Messages []struct {
					Content string `json:"content"`
				} `json:"messages"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			type choice struct {
				Message struct {
					Role    string `json:"role"`
					Content string `json:"content"`
				} `json:"message"`
			}
			var resp struct {
				Choices []choice `json:"choices"`
			}
			for _, m := range req.Messages {
				out, err := sim.Complete(r.Context(), m.Content)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				var c choice
				c.Message.Role, c.Message.Content = "assistant", out
				resp.Choices = append(resp.Choices, c)
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
		}))
		defer srv.Close()
		t.Setenv(backend.EnvEndpoint, srv.URL)
		trainTwice(t, Config{Seed: 42, Model: "remote"})
		if served.Load() == 0 {
			t.Error("remote trainings never reached the server")
		}
	})

	t.Run("self-learn-first", func(t *testing.T) {
		resetTrainMemo(t)
		cfg := Config{Seed: 42}
		if _, err := pristineSession(t, cfg).Train(ctx); err != nil {
			t.Fatal(err)
		}
		s := pristineSession(t, cfg)
		learned, err := s.SelfLearn(ctx, []string{"submarine cable vulnerabilities"})
		if err != nil || learned == 0 {
			t.Fatalf("self-learn: %d items, %v", learned, err)
		}
		if _, err := s.Train(ctx); err != nil {
			t.Fatal(err)
		}
		wantTrainCounts(t, 0, 2)
	})

	t.Run("cancelled", func(t *testing.T) {
		resetTrainMemo(t)
		cfg := Config{Seed: 42}
		s := pristineSession(t, cfg)
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// Cancel on the first training step: the training fails midway.
		if err := s.Tee(ctx, func(e stream.Event) {
			if e.Type == stream.EventGoal {
				cancel()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Train(cctx); err == nil {
			t.Fatal("cancelled training succeeded")
		}
		wantTrainCounts(t, 0, 1)
		if st := evalcache.SegmentStats(); st.TrainEntries != 0 {
			t.Fatalf("cancelled training stored %d entries", st.TrainEntries)
		}
		// The key is still free: the next identical training runs.
		if _, err := pristineSession(t, cfg).Train(ctx); err != nil {
			t.Fatal(err)
		}
		wantTrainCounts(t, 0, 2)
	})
}

// TestTrainMemoConcurrentMissTrainsOnce starts eight trainings of one
// fresh key at once: exactly one runs the Auto-GPT loop, the rest wait
// for it and replay, and all eight see the same events and report.
func TestTrainMemoConcurrentMissTrainsOnce(t *testing.T) {
	ctx := context.Background()
	resetTrainMemo(t)
	const n = 8
	cfg := Config{Role: agent.IncidentAnalystRole("2021 Facebook outage"), Seed: 42}
	sessions := make([]*Session, n)
	for i := range sessions {
		sessions[i] = pristineSession(t, cfg)
	}
	reports := make([]agent.TrainReport, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			reports[i], errs[i] = s.Train(ctx)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	wantTrainCounts(t, n-1, 1)
	want := eventsJSON(t, sessions[0])
	for i, s := range sessions[1:] {
		if got := eventsJSON(t, s); got != want {
			t.Errorf("session %d events differ:\n%s\nwant\n%s", i+1, got, want)
		}
		if !reflect.DeepEqual(reports[i+1], reports[0]) {
			t.Errorf("session %d report %+v, want %+v", i+1, reports[i+1], reports[0])
		}
	}
}

// TestTrainMemoStatsExposed: the memo's counters ride in the
// memory_segments block of GET /v1/stats and so reach /v1/metrics.
func TestTrainMemoStatsExposed(t *testing.T) {
	resetTrainMemo(t)
	srv, _ := newTestServer(t, ManagerConfig{})
	for _, id := range []string{"first", "second"} {
		if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: id, Train: true}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	code, body := doJSON(t, "GET", srv.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var raw struct {
		Segments map[string]int64 `json:"memory_segments"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"train_hits": 1, "train_misses": 1, "train_entries": 1} {
		if got, ok := raw.Segments[key]; !ok || got != want {
			t.Errorf("memory_segments.%s = %d (present %v), want %d", key, got, ok, want)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"repro_stats_memory_segments_train_hits 1\n",
		"repro_stats_memory_segments_train_misses 1\n",
		"repro_stats_memory_segments_train_entries 1\n",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// Package eval runs the reproduction's experiments. Each experiment
// regenerates one result of the paper's evaluation (§4) or one ablation
// DESIGN.md calls for, and prints the corresponding table or series.
//
// Experiment index (see DESIGN.md §4 for the full mapping):
//
//	E1  conclusion-consistency table (baseline vs trained agent, §4.2)
//	E2  confidence trajectory per self-learning round (§4.2 case studies)
//	E3  planning-ability overlap vs the human reference plan (§4.3)
//	E4  end-to-end pipeline walk of the Figure 1 architecture
//	E5  confidence-threshold sweep (§3's effort/quality tradeoff)
//	E6  source-availability ablation (§5's Auto-GPT crawler limitation)
//	E7  response-plan value under simulated storms (stormsim + cost)
//	E8  adversarial knowledge-memory injection (§5 security)
//	E9  multi-model ensemble robustness (§5 multi-LLM)
//	E10 research-question generation (§5 open question 1)
//	E11 multimodal capability gate (§5 see-and-listen)
//	E12 long-term robustness under world drift (§5)
//	A1  memory-retrieval scoring ablation
//	A2  chain-of-thought decomposition ablation
//	A3  search-ranking ablation (BM25 vs term frequency, with SEO spam)
package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/agent"
	"repro/internal/autogpt"
	"repro/internal/corpus"
	"repro/internal/evalcache"
	"repro/internal/index"
	"repro/internal/memory"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/quiz"
	"repro/internal/session"
	"repro/internal/websim"
)

// Setup fixes the world, web and agent configuration for an experiment.
type Setup struct {
	Seed        uint64
	WebOptions  websim.Options
	AgentConfig agent.Config
	MemoryW     memory.Weights
	// Model selects the LLM backend by registry name (empty = "sim"),
	// resolved through session.Config exactly as the daemon does.
	Model string
	// Workers bounds how many investigations the fan-out experiments
	// (E1, E2, E5, E6, A1, A2) and the E7 seed sweep run concurrently.
	// 0 means GOMAXPROCS; 1 forces the serial path. Results are
	// byte-identical either way: every fanned-out task runs on an
	// independent clone of the trained agent — its own memory snapshot
	// and its own websim fork — so goroutine scheduling cannot leak
	// between investigations.
	Workers int
}

// DefaultSetup is the standard configuration all experiments start from.
func DefaultSetup() Setup {
	return Setup{Seed: 42}
}

// workers resolves the effective fan-out width.
func (s Setup) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// sessionConfig maps a Setup onto the shared session factory's config.
func (s Setup) sessionConfig() session.Config {
	return session.Config{
		Role:          agent.BobRole(),
		Seed:          s.Seed,
		Model:         s.Model,
		WebOptions:    s.WebOptions,
		AgentConfig:   s.AgentConfig,
		MemoryWeights: s.MemoryW,
	}
}

// NewBob builds the simulated web and a fresh (untrained) agent Bob
// through the session factory — the same construction path the CLI, the
// repl and the daemon use. The web is a copy-on-write fork of the
// process-wide cached engine for (Seed, EnableSocial), so repeated calls
// share one generated corpus and one built index instead of regenerating
// both.
func NewBob(s Setup) (*agent.Agent, *websim.Engine, error) {
	return session.NewAgent(s.sessionConfig())
}

// trainedState returns the memory store and training report a fresh
// Train produces under s. The training goes through the process-wide
// memo sessions share (evalcache.TrainAgent, keyed on session.TrainKey),
// so each distinct configuration runs the Auto-GPT loop once per process
// while the memo holds it. The store is the caller's own.
func trainedState(ctx context.Context, s Setup) (*memory.Store, agent.TrainReport, error) {
	bob, _, err := NewBob(s)
	if err != nil {
		return nil, agent.TrainReport{}, err
	}
	report, err := evalcache.TrainAgent(ctx, session.TrainKey(s.sessionConfig()), bob)
	if err != nil {
		return nil, agent.TrainReport{}, fmt.Errorf("eval: train: %w", err)
	}
	return bob.Memory, report, nil
}

// TrainedBob builds and trains Bob. Training is deterministic per Setup,
// so the post-training knowledge state is computed once per distinct
// configuration (see trainedState); the returned agent owns its memory
// and a fresh engine fork that training never touched.
func TrainedBob(ctx context.Context, s Setup) (*agent.Agent, *websim.Engine, error) {
	st, _, err := trainedState(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	bob, eng, err := session.NewAgent(s.sessionConfig())
	if err != nil {
		return nil, nil, err
	}
	bob.Memory = st
	return bob, eng, nil
}

// investigateAll answers each conclusion with a full self-learning
// investigation, fanned out over Setup.Workers. Every conclusion gets an
// independent clone of the trained agent — its own memory snapshot and
// websim fork — so each investigation starts from the same post-training
// knowledge state regardless of order or scheduling, and the serial path
// (Workers=1) is byte-identical to the parallel one. Results are
// collected by conclusion index, not completion order.
func investigateAll(ctx context.Context, s Setup, set []quiz.Conclusion) ([]agent.Investigation, error) {
	proto, _, err := TrainedBob(ctx, s)
	if err != nil {
		return nil, err
	}
	return parallel.Map(ctx, s.workers(), set, func(ctx context.Context, _ int, c quiz.Conclusion) (agent.Investigation, error) {
		bob := session.Fork(proto, s.Seed, s.WebOptions)
		inv, err := bob.Investigate(ctx, c.Question)
		if err != nil {
			return agent.Investigation{}, fmt.Errorf("eval: investigate q%d: %w", c.ID, err)
		}
		return inv, nil
	})
}

// resultsOf grades one investigation per conclusion into quiz results.
func resultsOf(set []quiz.Conclusion, invs []agent.Investigation) []quiz.Result {
	out := make([]quiz.Result, len(set))
	for i, c := range set {
		out[i] = quiz.Result{
			Conclusion: c,
			Verdict:    invs[i].Final.Verdict,
			Confidence: invs[i].Final.Confidence,
			Rounds:     len(invs[i].Rounds),
			Consistent: quiz.Consistent(c, invs[i].Final.Verdict),
			Answer:     invs[i].Final.Text,
		}
	}
	return out
}

// --- E1: conclusion consistency ---

// E1Row is one line of the conclusion-consistency table.
type E1Row struct {
	QID                int    `json:"qid"`
	Statement          string `json:"statement"`
	BaselineVerdict    string `json:"baseline_verdict"`
	BaselineConsistent bool   `json:"baseline_consistent"`
	AgentVerdict       string `json:"agent_verdict"`
	AgentConfidence    int    `json:"agent_confidence"`
	Rounds             int    `json:"rounds"`
	AgentConsistent    bool   `json:"agent_consistent"`
}

// E1Result is the full table plus headline scores.
type E1Result struct {
	Rows          []E1Row `json:"rows"`
	BaselineScore int     `json:"baseline_score"`
	AgentScore    int     `json:"agent_score"`
	Total         int     `json:"total"`
}

// RunE1 reproduces §4.2: the untrained baseline model versus trained Bob
// with self-learning, graded on all eight conclusions. Both passes fan
// out one independent agent clone per conclusion (see investigateAll).
func RunE1(ctx context.Context, s Setup) (E1Result, error) {
	conclusions := quiz.Conclusions()
	baseline, _, err := NewBob(s) // untrained: the vanilla-LLM baseline
	if err != nil {
		return E1Result{}, err
	}
	baseRes, err := parallel.Map(ctx, s.workers(), conclusions, func(ctx context.Context, _ int, c quiz.Conclusion) (quiz.Result, error) {
		bob := session.Fork(baseline, s.Seed, s.WebOptions)
		ans, err := bob.Ask(ctx, c.Question)
		if err != nil {
			return quiz.Result{}, fmt.Errorf("eval e1 baseline q%d: %w", c.ID, err)
		}
		return quiz.Result{
			Conclusion: c,
			Verdict:    ans.Verdict,
			Confidence: ans.Confidence,
			Rounds:     1,
			Consistent: quiz.Consistent(c, ans.Verdict),
			Answer:     ans.Text,
		}, nil
	})
	if err != nil {
		return E1Result{}, err
	}
	invs, err := investigateAll(ctx, s, conclusions)
	if err != nil {
		return E1Result{}, fmt.Errorf("eval e1 agent: %w", err)
	}
	agentRes := resultsOf(conclusions, invs)
	var out E1Result
	for i := range agentRes {
		out.Rows = append(out.Rows, E1Row{
			QID:                agentRes[i].Conclusion.ID,
			Statement:          agentRes[i].Conclusion.Statement,
			BaselineVerdict:    baseRes[i].Verdict,
			BaselineConsistent: baseRes[i].Consistent,
			AgentVerdict:       agentRes[i].Verdict,
			AgentConfidence:    agentRes[i].Confidence,
			Rounds:             agentRes[i].Rounds,
			AgentConsistent:    agentRes[i].Consistent,
		})
	}
	out.BaselineScore, _ = quiz.Score(baseRes)
	out.AgentScore, out.Total = quiz.Score(agentRes)
	return out, nil
}

// --- E2: confidence trajectories ---

// E2Trajectory is the per-round confidence series for one question.
type E2Trajectory struct {
	QID         int      `json:"qid"`
	Question    string   `json:"question"`
	Confidences []int    `json:"confidences"`
	Verdicts    []string `json:"verdicts"`
	Searches    []int    `json:"searches_per_round"`
	NewItems    []int    `json:"new_items_per_round"`
	Saturated   bool     `json:"saturated"`
}

// RunE2 reproduces the §4.2 case-study dynamics: every trajectory starts
// from the same post-training knowledge state — each question is
// investigated by an independent clone of the trained agent, fanned out
// over Setup.Workers with results collected in question order.
func RunE2(ctx context.Context, s Setup) ([]E2Trajectory, error) {
	conclusions := quiz.Conclusions()
	invs, err := investigateAll(ctx, s, conclusions)
	if err != nil {
		return nil, fmt.Errorf("eval e2: %w", err)
	}
	out := make([]E2Trajectory, 0, len(conclusions))
	for i, c := range conclusions {
		inv := invs[i]
		tr := E2Trajectory{QID: c.ID, Question: c.Question, Saturated: inv.Saturated}
		for _, r := range inv.Rounds {
			tr.Confidences = append(tr.Confidences, r.Confidence)
			tr.Verdicts = append(tr.Verdicts, r.Verdict)
			tr.Searches = append(tr.Searches, len(r.Searches))
			tr.NewItems = append(tr.NewItems, r.NewItems)
		}
		out = append(out, tr)
	}
	return out, nil
}

// --- E3: planning ability ---

// E3Result is the plan-overlap report.
type E3Result struct {
	Items  []agent.PlanItem `json:"items"`
	Report plan.Report      `json:"report"`
}

// RunE3 reproduces §4.3: the trained agent proposes a shutdown strategy,
// scored against the human reference plan.
func RunE3(ctx context.Context, s Setup) (E3Result, error) {
	bob, _, err := TrainedBob(ctx, s)
	if err != nil {
		return E3Result{}, err
	}
	// As in the paper, the agent first studies response planning. With
	// the standard (crawler-less) web only the operations handbook is
	// reachable, so the expected outcome matches §4.3: predictive
	// shutdown and redundancy utilization covered, the rest missing.
	if _, err := bob.SelfLearn(ctx, planStudyQueries()); err != nil {
		return E3Result{}, err
	}
	items, err := bob.Plan(ctx)
	if err != nil {
		return E3Result{}, err
	}
	return E3Result{Items: items, Report: plan.Compare(items)}, nil
}

// --- E4: end-to-end pipeline ---

// E4Result walks the Figure 1 architecture once and reports every
// pipeline counter.
type E4Result struct {
	Train         agent.TrainReport   `json:"train"`
	MemoryItems   int                 `json:"memory_items"`
	WebStats      websim.Stats        `json:"web_stats"`
	Investigated  agent.Investigation `json:"investigated"`
	SawRestricted bool                `json:"saw_restricted"`
}

// RunE4 trains Bob, investigates the paper's flagship question, and
// reports the traffic and memory the pipeline generated.
func RunE4(ctx context.Context, s Setup) (E4Result, error) {
	bob, eng, err := NewBob(s)
	if err != nil {
		return E4Result{}, err
	}
	train, err := bob.Train(ctx)
	if err != nil {
		return E4Result{}, err
	}
	inv, err := bob.Investigate(ctx, quiz.Conclusions()[0].Question)
	if err != nil {
		return E4Result{}, err
	}
	return E4Result{
		Train:         train,
		MemoryItems:   bob.Memory.Len(),
		WebStats:      eng.Stats(),
		Investigated:  inv,
		SawRestricted: bob.SawSource("dl.acm.org"),
	}, nil
}

// --- E5: threshold sweep ---

// E5Row is one threshold's cost/quality outcome.
type E5Row struct {
	Threshold      int     `json:"threshold"`
	MeanRounds     float64 `json:"mean_rounds"`
	TotalSearches  int     `json:"total_searches"`
	MeanConfidence float64 `json:"mean_confidence"`
	Consistent     int     `json:"consistent"`
	Total          int     `json:"total"`
}

// RunE5 sweeps the confidence threshold, reproducing §3's claim that a
// higher threshold buys answer quality with a longer self-learning
// process. The sweep is flattened into one (threshold, conclusion) task
// list and fanned out over Setup.Workers: the trained knowledge state is
// shared across thresholds (training never reads the threshold), so
// every task is an independent clone investigating one question under
// one threshold, and rows are reassembled in threshold order.
func RunE5(ctx context.Context, s Setup, thresholds []int) ([]E5Row, error) {
	if len(thresholds) == 0 {
		thresholds = []int{3, 5, 7, 9}
	}
	conclusions := quiz.Conclusions()
	protos := make([]*agent.Agent, len(thresholds))
	for i, th := range thresholds {
		cfg := s
		cfg.AgentConfig.ConfidenceThreshold = th
		proto, _, err := TrainedBob(ctx, cfg)
		if err != nil {
			return nil, err
		}
		protos[i] = proto
	}
	type task struct{ ti, ci int }
	tasks := make([]task, 0, len(thresholds)*len(conclusions))
	for ti := range thresholds {
		for ci := range conclusions {
			tasks = append(tasks, task{ti, ci})
		}
	}
	invs, err := parallel.Map(ctx, s.workers(), tasks, func(ctx context.Context, _ int, t task) (agent.Investigation, error) {
		bob := session.Fork(protos[t.ti], s.Seed, s.WebOptions)
		inv, err := bob.Investigate(ctx, conclusions[t.ci].Question)
		if err != nil {
			return agent.Investigation{}, fmt.Errorf("eval e5 th=%d q%d: %w", thresholds[t.ti], conclusions[t.ci].ID, err)
		}
		return inv, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]E5Row, 0, len(thresholds))
	for ti, th := range thresholds {
		row := E5Row{Threshold: th}
		var roundSum, confSum int
		results := make([]quiz.Result, 0, len(conclusions))
		for ci, c := range conclusions {
			inv := invs[ti*len(conclusions)+ci]
			roundSum += len(inv.Rounds)
			confSum += inv.Final.Confidence
			for _, r := range inv.Rounds {
				row.TotalSearches += len(r.Searches)
			}
			results = append(results, quiz.Result{
				Conclusion: c,
				Verdict:    inv.Final.Verdict,
				Consistent: quiz.Consistent(c, inv.Final.Verdict),
			})
		}
		row.MeanRounds = float64(roundSum) / 8
		row.MeanConfidence = float64(confSum) / 8
		row.Consistent, row.Total = quiz.Score(results)
		out = append(out, row)
	}
	return out, nil
}

// --- E6: source-availability ablation ---

// E6Row is one source configuration's outcome.
type E6Row struct {
	Config     string  `json:"config"`
	Consistent int     `json:"consistent"`
	Total      int     `json:"total"`
	MeanRounds float64 `json:"mean_rounds"`
	PlanMatch  int     `json:"plan_matched"`
}

// RunE6 compares degraded search, the standard configuration (no social
// crawling — Auto-GPT's limitation), and the crawler extension that adds
// Twitter/Reddit content (§5's proposed integrated crawler).
func RunE6(ctx context.Context, s Setup) ([]E6Row, error) {
	configs := []struct {
		name string
		mod  func(Setup) Setup
	}{
		{"degraded-search", func(s Setup) Setup {
			s.WebOptions.MaxResults = 2
			return s
		}},
		{"standard", func(s Setup) Setup { return s }},
		{"with-crawler", func(s Setup) Setup {
			s.WebOptions.EnableSocial = true
			return s
		}},
	}
	var out []E6Row
	for _, cfg := range configs {
		setup := cfg.mod(s)
		invs, err := investigateAll(ctx, setup, quiz.Conclusions())
		if err != nil {
			return nil, fmt.Errorf("eval e6 %s: %w", cfg.name, err)
		}
		row := E6Row{Config: cfg.name}
		roundSum := 0
		for _, inv := range invs {
			roundSum += len(inv.Rounds)
		}
		row.MeanRounds = float64(roundSum) / 8
		row.Consistent, row.Total = quiz.Score(resultsOf(quiz.Conclusions(), invs))
		// Every configuration studies planning with the same queries from
		// the same post-training state; only the crawler-enabled web can
		// actually reach the social material that carries the remaining
		// plan elements.
		planner, _, err := TrainedBob(ctx, setup)
		if err != nil {
			return nil, err
		}
		if _, err := planner.SelfLearn(ctx, planStudyQueries()); err != nil {
			return nil, err
		}
		items, err := planner.Plan(ctx)
		if err != nil {
			return nil, err
		}
		row.PlanMatch = plan.Compare(items).Matched
		out = append(out, row)
	}
	return out, nil
}

// planStudyQueries are the searches an agent runs to study response
// planning before being asked for a plan.
func planStudyQueries() []string {
	return []string{
		"operator response planning severe space weather",
		"storm shutdown playbooks response planning discussion",
	}
}

// --- A1: memory-retrieval ablation ---

// A1Row is one retrieval-weighting outcome.
type A1Row struct {
	Weights    string  `json:"weights"`
	Consistent int     `json:"consistent"`
	Total      int     `json:"total"`
	MeanRounds float64 `json:"mean_rounds"`
}

// RunA1 compares retrieval scorings for the knowledge memory.
func RunA1(ctx context.Context, s Setup) ([]A1Row, error) {
	variants := []struct {
		name string
		w    memory.Weights
	}{
		{"relevance-only", memory.RelevanceOnly},
		{"rel+rec+imp", memory.DefaultWeights},
		{"recency-heavy", memory.Weights{Relevance: 0.2, Recency: 0.7, Importance: 0.1}},
	}
	var out []A1Row
	for _, v := range variants {
		setup := s
		setup.MemoryW = v.w
		invs, err := investigateAll(ctx, setup, quiz.Conclusions())
		if err != nil {
			return nil, fmt.Errorf("eval a1 %s: %w", v.name, err)
		}
		row := A1Row{Weights: v.name}
		roundSum := 0
		for _, inv := range invs {
			roundSum += len(inv.Rounds)
		}
		row.MeanRounds = float64(roundSum) / 8
		row.Consistent, row.Total = quiz.Score(resultsOf(quiz.Conclusions(), invs))
		out = append(out, row)
	}
	return out, nil
}

// --- A2: chain-of-thought ablation ---

// A2Row is one CoT configuration's training outcome.
type A2Row struct {
	CoT         bool `json:"cot"`
	Searches    int  `json:"searches"`
	PagesRead   int  `json:"pages_read"`
	FactsSaved  int  `json:"facts_saved"`
	MemoryItems int  `json:"memory_items"`
}

// RunA2 compares training with and without chain-of-thought query
// decomposition. The web is constrained to one result per query — the
// regime the paper describes CoT for, where a single search step is too
// ambiguous/thin to carry a goal and must be decomposed into subplans.
// The two training runs are independent, so they fan out in parallel.
func RunA2(ctx context.Context, s Setup) ([]A2Row, error) {
	return parallel.Map(ctx, s.workers(), []bool{false, true}, func(ctx context.Context, _ int, cot bool) (A2Row, error) {
		setup := s
		setup.WebOptions.MaxResults = 1
		setup.AgentConfig.Runner = autogpt.Config{ChainOfThought: cot}
		store, report, err := trainedState(ctx, setup)
		if err != nil {
			return A2Row{}, err
		}
		row := A2Row{CoT: cot, MemoryItems: store.Len()}
		for _, g := range report.Goals {
			row.Searches += g.Searches
			row.PagesRead += g.PagesRead
			row.FactsSaved += g.FactsSaved
		}
		return row, nil
	})
}

// --- A3: search-ranking ablation ---

// A3Query is one relevance judgment: the document the query should rank
// first.
type A3Query struct {
	Query   string `json:"query"`
	WantDoc string `json:"want_doc"`
}

// A3Judgments returns the standard judged query set, covering the
// searches the agent actually issues.
func A3Judgments() []A3Query {
	return []A3Query{
		{"route analysis specific path of EllaLink geomagnetic latitude", "route-ellalink"},
		{"route analysis specific path of Grace Hopper geomagnetic latitude", "route-grace-hopper"},
		{"geographic spread of Google data center locations", "dcmap-google"},
		{"geographic spread of Facebook data center locations", "dcmap-facebook"},
		{"how geomagnetically induced currents affect power systems", "science-gic"},
		{"coronal mass ejection solar superstorm formation", "science-cme"},
		{"submarine cable powered repeaters solar storms", "tech-repeaters"},
		{"operator response planning severe space weather", "ops-handbook"},
		{"what happened during the 2021 Facebook outage", "incident-2021-facebook-outage"},
	}
}

// A3Row is one ranking's retrieval quality.
type A3Row struct {
	Ranking string  `json:"ranking"`
	MRR     float64 `json:"mrr"`
	P1      float64 `json:"p_at_1"`
}

// seoSpamDocs are keyword-stuffed pages published into the A3 engines
// only: long documents that repeat the domain vocabulary without
// carrying any facts. A raw term-frequency ranking drowns in them; BM25's
// saturation and length normalization shrug them off. (They are never
// part of the agent experiments.)
func seoSpamDocs() []corpus.Document {
	stuff := func(phrase string, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(phrase)
			b.WriteString(" ")
		}
		return b.String()
	}
	return []corpus.Document{
		{
			ID: "seo-spam-routes", URL: "https://seo.example.com/routes",
			Site: "seo.example.com", Title: "Route analysis specific path geomagnetic latitude cable guide",
			Body:   stuff("route analysis specific path geomagnetic latitude cable map profile", 60),
			Source: corpus.SourceBlog, Year: 2023,
		},
		{
			ID: "seo-spam-storms", URL: "https://seo.example.com/storms",
			Site: "seo.example.com", Title: "Solar storm power systems geomagnetically induced currents explained fast",
			Body:   stuff("solar storm power systems geomagnetically induced currents data center locations spread", 60),
			Source: corpus.SourceBlog, Year: 2023,
		},
	}
}

// RunA3 compares BM25 against the naive term-frequency baseline on the
// judged query set, in the presence of keyword-stuffed spam. Each
// ranking gets a copy-on-write fork of the cached engine: publishing the
// spam into a fork clones the shared index, so the pollution never leaks
// into the base corpus the agent experiments share.
func RunA3(s Setup) []A3Row {
	judge := A3Judgments()
	rows := make([]A3Row, 0, 2)
	for _, r := range []struct {
		name    string
		ranking index.Ranking
	}{{"bm25", index.RankBM25}, {"tf", index.RankTF}} {
		opts := s.WebOptions
		opts.Ranking = r.ranking
		eng := evalcache.Engine(s.Seed, opts)
		for _, spam := range seoSpamDocs() {
			eng.Publish(spam)
		}
		var mrr, p1 float64
		for _, j := range judge {
			results, err := eng.Search(context.Background(), j.Query, 10)
			if err != nil {
				continue
			}
			for i, res := range results {
				if res.DocID == j.WantDoc {
					mrr += 1 / float64(i+1)
					if i == 0 {
						p1++
					}
					break
				}
			}
		}
		n := float64(len(judge))
		rows = append(rows, A3Row{Ranking: r.name, MRR: mrr / n, P1: p1 / n})
	}
	return rows
}

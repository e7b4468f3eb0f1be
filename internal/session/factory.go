// Package session is the concurrent runtime behind every way of talking
// to a research agent. The paper's framework is explicitly interactive —
// an operator converses with a trained agent that self-learns on demand
// (§3.2, §4) — and before this package existed each entry point (the bob
// CLI, the repl, the quizrunner, the eval harness, the daemon) hand-wired
// its own world→corpus→engine→model→memory→agent stack. Session extracts
// that construction into one factory and adds what a long-running,
// multi-user service needs on top of it:
//
//   - Session: one named, long-lived agent whose operations (Train, Ask,
//     Investigate, Plan, Report, ...) are serialized per session and
//     honor context cancellation, so many HTTP requests or goroutines can
//     share it safely.
//   - Manager: owns sessions by ID with a full lifecycle (Create → Train →
//     Ask/Learn/Plan/Report → Snapshot → Close), bounded capacity with
//     LRU eviction of idle sessions, and snapshot/restore of
//     memory, config and event tail to disk. Session IDs are hashed over
//     independent lock shards, restores are singleflighted, and eviction
//     snapshots drain through a background writer pool, so operations on
//     unrelated sessions never wait on one another's locks or I/O.
//   - Handler: the HTTP JSON API that turns websimd into a multi-user
//     agent service.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/llm/backend"
	"repro/internal/memory"
	"repro/internal/websim"
)

// Config describes one agent stack: the world seed, the simulated-web
// options, the model backend, the agent tuning and the memory retrieval
// weights. It is the unit of snapshot/restore, so everything needed to
// rebuild an identical stack must live here.
type Config struct {
	// Role defines who the agent is. A zero Role means BobRole.
	Role agent.Role `json:"role"`
	// Seed selects the generated world/corpus.
	Seed uint64 `json:"seed"`
	// Model selects the LLM backend by registry name (see
	// internal/llm/backend): "sim" (the default), "ensemble", or
	// "remote". Empty means "sim", keeping old snapshots and callers
	// byte-identical.
	Model string `json:"model,omitempty"`
	// WebOptions configures the simulated web the agent investigates.
	WebOptions websim.Options `json:"web_options"`
	// AgentConfig tunes the self-learning loop.
	AgentConfig agent.Config `json:"agent_config"`
	// MemoryWeights configures knowledge-memory retrieval scoring.
	MemoryWeights memory.Weights `json:"memory_weights"`
}

func (c Config) withDefaults() Config {
	if c.Role.Name == "" {
		c.Role = agent.BobRole()
	}
	return c
}

// NewAgent builds the full agent stack for cfg — the one construction
// path shared by the CLI, the repl, the eval harness and the daemon. The
// web is a copy-on-write fork of the process-wide cached engine for
// (Seed, EnableSocial), so repeated construction shares one generated
// corpus and one built index instead of regenerating both. The model is
// resolved from the backend registry by cfg.Model; an unknown name
// fails with backend.ErrUnknown (mapped to 400 by the HTTP layer).
func NewAgent(cfg Config) (*agent.Agent, *websim.Engine, error) {
	cfg = cfg.withDefaults()
	model, err := backend.New(cfg.Model)
	if err != nil {
		return nil, nil, err
	}
	eng := evalcache.Engine(cfg.Seed, cfg.WebOptions)
	store := memory.NewStore(cfg.MemoryWeights)
	return agent.New(cfg.Role, model, eng, store, cfg.AgentConfig), eng, nil
}

// TrainKey fingerprints every input of a role training under cfg, for
// the process-wide training memo (evalcache.TrainAgent). Training reads
// the role, the seed's web, the model and the Auto-GPT runner config,
// so the key covers those plus the memory weights and the remaining web
// options. It normalizes away what cannot change the result: an empty
// model name (it means "sim"), web latency and clock (timing only), the
// investigation-phase knobs (threshold, rounds, knowledge window, learn
// results), and both retrieval widths (the pipeline commits in canonical
// order).
func TrainKey(cfg Config) string {
	cfg = cfg.withDefaults()
	if cfg.Model == "" {
		cfg.Model = "sim"
	}
	cfg.WebOptions.Latency, cfg.WebOptions.Clock = 0, nil
	ac := &cfg.AgentConfig
	ac.ConfidenceThreshold, ac.MaxRounds, ac.KnowledgeItems, ac.LearnResults = 0, 0, 0, 0
	ac.RetrievalWorkers, ac.Runner.RetrievalWorkers = 0, 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Fork clones proto onto a fresh copy-on-write engine fork for (seed,
// opts): the same memory snapshot and config, an independent web. Forked
// agents are the unit of parallelism in the eval harness — concurrent
// investigations must never share a memory store or an engine's
// counters.
func Fork(proto *agent.Agent, seed uint64, opts websim.Options) *agent.Agent {
	return proto.Clone(evalcache.Engine(seed, opts))
}

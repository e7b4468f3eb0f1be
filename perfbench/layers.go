package main

import (
	"time"

	"repro/internal/evalcache"
	"repro/internal/gateway"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/memory"
	"repro/internal/retrieval"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// perLayerMetrics is what --trace 1 prints; BENCHMARK.json lists the
// same names. The wall-clock figures come first: they are measured
// untraced, like the end-to-end metrics, but listed here because on a
// shared 2-core host they spread 20-60% from run to run, more than any
// end-to-end bound may allow.
var perLayerMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"capacity_rps", "ops/s"},
	{"first_event_p50_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"first_event_p99_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"gateway.hop_p50_us", "us"},
	{"gateway.hop_p99_us", "us"},
	{"gateway.proxy_errors", "count"},
	{"session.self_p50_us", "us"},
	{"session.self_p99_us", "us"},
	{"session.disk_restores_per_1k", "count"},
	{"session.snapshot_p50_kb", "KB"},
	{"session.evictions", "count"},
	{"session.sync_write_falls", "count"},
	{"session.write_errors", "count"},
	{"llm.calls_per_op", "count"},
	{"llm.p50_us", "us"},
	{"llm.busy_share", "ratio"},
	{"llm.evidence_hit_ratio", "ratio"},
	{"backend.wait_p50_ms", "ms"},
	{"backend.wait_p99_ms", "ms"},
	{"backend.calls_per_op", "count"},
	{"backend.requests", "count"},
	{"backend.retries", "count"},
	{"backend.failures", "count"},
	{"backend.fallbacks", "count"},
	{"backend.cache_hits", "count"},
	{"backend.coalesced", "count"},
	{"backend.batch_calls", "count"},
	{"backend.hedges", "count"},
	{"retrieval.searches_per_op", "count"},
	{"retrieval.fetches_per_op", "count"},
	{"retrieval.saved_fetches", "count"},
	{"retrieval.errors", "count"},
	{"websim.wait_per_op_ms", "ms"},
	{"websim.overlap", "ratio"},
	{"memory.knowledge_hit_ratio", "ratio"},
	{"memory.segment_resident_kb", "KB"},
	{"stream.events_per_op", "count"},
	{"incident.ack_handler_p50_ms", "ms"},
	{"incident.ack_handler_p99_ms", "ms"},
	{"incident.store_kb", "KB"},
	{"incident.dedup_ratio", "ratio"},
	{"incident.leaders", "count"},
	{"incident.followers", "count"},
	{"incident.escalated", "count"},
	{"incident.saved_rounds", "count"},
	{"incident.batches", "count"},
	{"incident.queue_depth_max", "count"},
	{"metrics.scrape_p50_ms", "ms"},
	{"metrics.scrape_kb", "KB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.layer_sum_ratio", "ratio"},
}

// fillMissing sets every metric of defs the workload did not report to
// 0: a workload that never reaches a layer reports none of its work.
func fillMissing(m metricSet, defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, d.unit, 0)
		}
	}
}

// counters are the program's own public counters, read before and after
// the traced phase.
type counters struct {
	gw        gateway.Stats
	diskRest  int64
	evictions int64
	syncFalls int64
	writeErrs int64
	backend   backend.Stats
	evidence  llm.CacheStats
	knowledge memory.CacheStats
	retrieval retrieval.Stats
	segments  evalcache.SegmentCacheStats
	store     incident.Stats
	proc      incident.ProcessorStats
}

func readCounters(d *deployment) counters {
	c := counters{
		gw:        d.gw.Stats(),
		backend:   backend.Snapshot(),
		evidence:  llm.EvidenceCacheStats(),
		knowledge: memory.KnowledgeCacheStats(),
		retrieval: retrieval.Snapshot(),
		segments:  evalcache.SegmentStats(),
	}
	for _, n := range d.nodes {
		st := n.mgr.Stats()
		c.diskRest += st.DiskRestores
		c.evictions += st.Evictions
		c.syncFalls += st.SyncWriteFalls
		c.writeErrs += st.WriteErrors
		if n.store != nil {
			s := n.store.Stats()
			c.store.Escalated += s.Escalated
			p := n.proc.Stats()
			c.proc.Leaders += p.Leaders
			c.proc.Followers += p.Followers
			c.proc.SavedRounds += p.SavedRounds
			c.proc.Batches += p.Batches
		}
	}
	return c
}

func counterMetrics(m metricSet, a, b counters, p *phase) {
	cnt := func(name string, v int64) { m.set(name, "count", float64(v)) }
	hits := func(name string, h, mi int64) { m.set(name, "ratio", ratio(float64(h), float64(h+mi))) }
	ops := float64(p.ops)
	cnt("gateway.proxy_errors", b.gw.ProxyErrors-a.gw.ProxyErrors)
	m.set("session.disk_restores_per_1k", "count", 1000*ratio(float64(b.diskRest-a.diskRest), ops))
	cnt("session.evictions", b.evictions-a.evictions)
	cnt("session.sync_write_falls", b.syncFalls-a.syncFalls)
	cnt("session.write_errors", b.writeErrs-a.writeErrs)
	hits("llm.evidence_hit_ratio", b.evidence.Hits-a.evidence.Hits, b.evidence.Misses-a.evidence.Misses)
	cnt("backend.requests", b.backend.Requests-a.backend.Requests)
	cnt("backend.retries", b.backend.Retries-a.backend.Retries)
	cnt("backend.failures", b.backend.Failures-a.backend.Failures)
	cnt("backend.fallbacks", b.backend.Fallbacks-a.backend.Fallbacks)
	cnt("backend.cache_hits", b.backend.CacheHits-a.backend.CacheHits)
	cnt("backend.coalesced", b.backend.Coalesced-a.backend.Coalesced)
	cnt("backend.batch_calls", b.backend.BatchCalls-a.backend.BatchCalls)
	cnt("backend.hedges", b.backend.Hedges-a.backend.Hedges)
	m.set("retrieval.searches_per_op", "count", ratio(float64(b.retrieval.Searches-a.retrieval.Searches), ops))
	m.set("retrieval.fetches_per_op", "count", ratio(float64(b.retrieval.Fetches-a.retrieval.Fetches), ops))
	cnt("retrieval.saved_fetches", b.retrieval.SavedFetches-a.retrieval.SavedFetches)
	cnt("retrieval.errors", b.retrieval.SearchErrors-a.retrieval.SearchErrors+b.retrieval.FetchErrors-a.retrieval.FetchErrors)
	hits("memory.knowledge_hit_ratio", b.knowledge.Hits-a.knowledge.Hits, b.knowledge.Misses-a.knowledge.Misses)
	m.set("memory.segment_resident_kb", "KB", float64(b.segments.ResidentBytes)/1024)
	leaders, followers := b.proc.Leaders-a.proc.Leaders, b.proc.Followers-a.proc.Followers
	m.set("incident.dedup_ratio", "ratio", ratio(float64(followers), float64(leaders+followers)))
	cnt("incident.leaders", leaders)
	cnt("incident.followers", followers)
	cnt("incident.escalated", b.store.Escalated-a.store.Escalated)
	cnt("incident.saved_rounds", b.proc.SavedRounds-a.proc.SavedRounds)
	cnt("incident.batches", b.proc.Batches-a.proc.Batches)
}

// spanMetrics derives the per-layer times every workload shares from
// the traced phase's spans. op names the workload's unit of work among
// the client spans.
func spanMetrics(m metricSet, p *phase, op opKind, ops []opTrace, orphans []span) {
	var hop, self, client, inside []time.Duration
	var handler, simInHandler time.Duration
	for _, o := range ops {
		if o.client.op != op || len(o.backend) == 0 {
			continue
		}
		l := o.layers()
		hop = append(hop, l.hop)
		self = append(self, l.self)
		client = append(client, o.client.dur())
		var kids time.Duration
		for _, b := range o.backend {
			handler += b.dur()
			kids += b.dur()
		}
		inside = append(inside, kids-l.self) // model and web time on the blocking path
		simInHandler += l.sim
	}
	m.set("gateway.hop_p50_us", "us", us(quantile(hop, 0.5)))
	m.set("gateway.hop_p99_us", "us", us(quantile(hop, 0.99)))
	m.set("session.self_p50_us", "us", us(quantile(self, 0.5)))
	m.set("session.self_p99_us", "us", us(quantile(self, 0.99)))
	if c := quantile(client, 0.5); c > 0 {
		m.set("trace.layer_sum_ratio", "ratio",
			float64(quantile(hop, 0.5)+quantile(self, 0.5)+quantile(inside, 0.5))/float64(c))
	}

	// Model and web spans, wherever they ran: the incident processor's
	// calls have no client request above them but are the workload's
	// work all the same.
	var sims, remotes []time.Duration
	var web time.Duration
	all := append([]span(nil), orphans...)
	for _, o := range ops {
		all = append(all, o.children...)
	}
	for _, s := range all {
		switch s.kind {
		case spanSim:
			sims = append(sims, s.dur())
		case spanRemote:
			remotes = append(remotes, s.dur())
		case spanWeb:
			web += s.dur()
		}
	}
	n := float64(p.ops)
	m.set("llm.calls_per_op", "count", ratio(float64(len(sims)), n))
	m.set("llm.p50_us", "us", us(quantile(sims, 0.5)))
	m.set("llm.busy_share", "ratio", ratio(float64(simInHandler), float64(handler)))
	m.set("backend.wait_p50_ms", "ms", ms(quantile(remotes, 0.5)))
	m.set("backend.wait_p99_ms", "ms", ms(quantile(remotes, 0.99)))
	m.set("backend.calls_per_op", "count", ratio(float64(len(remotes)), n))
	var wall time.Duration
	for _, l := range p.latency {
		wall += l.d
	}
	m.set("websim.wait_per_op_ms", "ms", ratio(ms(web), n))
	m.set("websim.overlap", "ratio", ratio(float64(web), float64(wall)))
	m.set("stream.events_per_op", "count", ratio(float64(p.events), n))
}

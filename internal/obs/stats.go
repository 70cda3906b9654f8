package obs

// Stats aggregates one localization run's counters. It is the single
// stats vocabulary shared by the observability layer, core's Report,
// and the public Diagnosis: the Table-3 effectiveness counters from the
// paper (prunings, verifications, iterations, expanded edges) next to
// the engine-level cost counters (switched re-executions, cache
// traffic, static skips, alignment work).
type Stats struct {
	// UserPrunings counts slice entries pruned by confidence analysis
	// (the paper's "user interactions saved" measure).
	UserPrunings int
	// Verifications counts implicit-dependence verifications performed
	// (Definition 2/4 checks), excluding memo hits.
	Verifications int
	// Iterations counts Algorithm-2 expansion iterations.
	Iterations int
	// ExpandedEdges counts dependence edges added by expansion.
	ExpandedEdges int
	// StrongEdges counts strong implicit-dependence edges in the final
	// graph.
	StrongEdges int
	// ImplicitEdges counts (weak) implicit-dependence edges in the final
	// graph.
	ImplicitEdges int

	// SwitchedRuns counts switched re-executions actually performed by
	// the verify engine (cache misses execute; hits do not).
	SwitchedRuns int64
	// CacheHits and CacheMisses count switched-run cache lookups.
	CacheHits, CacheMisses int64
	// CacheEvictions counts LRU evictions from the switched-run cache.
	CacheEvictions int64
	// StaticSkips counts verifications answered by the static
	// skip-filter without any re-execution.
	StaticSkips int64
	// StaticReachSkips always reads 0. It counted verifications retired
	// by the removed SPDG reach filter and stays, with its
	// static_reach_skips journal gauge, so that the journal's end-of-run
	// gauge set and the schema_version 1 wire fields keep their shape.
	StaticReachSkips int64
	// AlignedRegions counts code regions walked by the alignment
	// algorithm (Algorithm 1) during verification.
	AlignedRegions int64

	// Repropagated counts confidence entries re-evaluated by re-prune
	// passes after the first (delta passes count their dirty set, full
	// passes the whole trace); DirtyFraction is Repropagated divided by
	// passes·trace-length — the mean dirty fraction, 1.0 when incremental
	// re-pruning is off. Like the worker count, these describe the cost of
	// the chosen execution mode, not the analysis result, so they are NOT
	// emitted as journal gauges: the journal must stay byte-identical with
	// incremental mode on or off (docs/OBSERVABILITY.md).
	Repropagated  int64
	DirtyFraction float64

	// Checkpoint counters (docs/CHECKPOINT.md). CheckpointHits counts
	// switched runs served by forking a checkpoint of the failing run;
	// SuffixSteps totals the interpreter steps those forks executed — the
	// saving is the forks' full-run step counts minus SuffixSteps.
	// Checkpoints and CheckpointBytes describe the store captured during
	// the failing run. Like Repropagated above, all four describe the cost
	// of the chosen execution mode, not the analysis result, so they are
	// NOT emitted as journal gauges: the journal must stay byte-identical
	// with checkpointing on or off.
	CheckpointHits  int64
	SuffixSteps     int64
	Checkpoints     int
	CheckpointBytes int64
}

// CacheHitRate returns hits / (hits + misses), or 0 with no lookups.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// statGauges lists the gauge name for each Stats field, in the fixed
// order Emit uses. The order is part of the journal's byte-determinism
// surface: never reorder, only append.
var statGauges = []struct {
	name string
	get  func(*Stats) int64
}{
	{"user_prunings", func(s *Stats) int64 { return int64(s.UserPrunings) }},
	{"verifications", func(s *Stats) int64 { return int64(s.Verifications) }},
	{"iterations", func(s *Stats) int64 { return int64(s.Iterations) }},
	{"expanded_edges", func(s *Stats) int64 { return int64(s.ExpandedEdges) }},
	{"strong_edges", func(s *Stats) int64 { return int64(s.StrongEdges) }},
	{"implicit_edges", func(s *Stats) int64 { return int64(s.ImplicitEdges) }},
	{"switched_runs", func(s *Stats) int64 { return s.SwitchedRuns }},
	{"cache_hits", func(s *Stats) int64 { return s.CacheHits }},
	{"cache_misses", func(s *Stats) int64 { return s.CacheMisses }},
	{"cache_evictions", func(s *Stats) int64 { return s.CacheEvictions }},
	{"static_skips", func(s *Stats) int64 { return s.StaticSkips }},
	{"aligned_regions", func(s *Stats) int64 { return s.AlignedRegions }},
	{"static_reach_skips", func(s *Stats) int64 { return s.StaticReachSkips }},
}

// Emit records every stats field as a gauge on r, in a fixed order.
// Zero-valued fields are emitted too, so the set of gauges present does
// not depend on which features fired.
func (s *Stats) Emit(r *Recorder) {
	if r == nil {
		return
	}
	for _, g := range statGauges {
		r.Gauge(g.name, g.get(s))
	}
}

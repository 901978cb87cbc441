// Pluggable placement policy: the predicate/priority split used by
// cluster schedulers (filter the infeasible, score the feasible,
// highest weighted total wins), specialized to Menos' load surface.
// Hard constraints — memory fit, admission state — are Predicates;
// soft preferences — balance, model residency — are weighted
// Priorities.
package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// MaxPriorityScore is the top of a Priority's score range. Scores are
// normalized into [0, MaxPriorityScore] so weights — not score
// magnitudes — decide how priorities trade off against each other.
const MaxPriorityScore = 10

// Predicate is a hard placement constraint: a server that fails it is
// not a candidate, regardless of score.
type Predicate struct {
	Name string
	// Fits reports whether server s can host client c at all.
	Fits func(c ClientInfo, s ServerLoad) bool
}

// Priority is a soft preference: Score rates one feasible server in
// [0, MaxPriorityScore] (higher is better). all is the full feasible
// set, for normalization. Weight scales the score into the total.
type Priority struct {
	Name   string
	Weight int
	Score  func(c ClientInfo, s ServerLoad, all []ServerLoad) int64
}

// PolicyPlacer is a Placer assembled from predicates and priorities.
// Placement is two-phase: filter all non-draining servers through
// every predicate, then score the survivors with every priority; the
// highest weighted total wins, ties to the lowest server ID. When the
// filter phase removes every server, the policy relaxes: it scores the
// full candidate set instead of failing, mirroring MemoryBestFit's
// overcommit fallback (clients then queue on the scheduler, which is
// the scheduler's job to absorb).
type PolicyPlacer struct {
	name       string
	predicates []Predicate
	priorities []Priority
}

// NewPolicyPlacer builds a PolicyPlacer. name is what Name() reports
// (and what PlacerByName would need to reconstruct it, so custom
// policies should pick something not already registered).
func NewPolicyPlacer(name string, preds []Predicate, prios []Priority) *PolicyPlacer {
	return &PolicyPlacer{name: name, predicates: preds, priorities: prios}
}

// DefaultPolicy is the policy PlacerByName("policy") returns: fit and
// admission predicates, balance-weighted priorities with model
// residency as a strong preference.
func DefaultPolicy() *PolicyPlacer {
	return NewPolicyPlacer("policy",
		[]Predicate{PredicateFitsMemory(), PredicateNotShedding()},
		[]Priority{
			{Name: "balanced-headcount", Weight: 2, Score: ScoreBalancedHeadcount},
			{Name: "memory-headroom", Weight: 1, Score: ScoreMemoryHeadroom},
			{Name: "model-affinity", Weight: 3, Score: ScoreModelAffinity},
		},
	)
}

// Name implements Placer.
func (p *PolicyPlacer) Name() string { return p.name }

// Describe renders the policy's shape for logs and /fleetz.
func (p *PolicyPlacer) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: predicates[", p.name)
	for i, pr := range p.predicates {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(pr.Name)
	}
	b.WriteString("] priorities[")
	for i, pr := range p.priorities {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s*%d", pr.Name, pr.Weight)
	}
	b.WriteString("]")
	return b.String()
}

// Place implements Placer.
func (p *PolicyPlacer) Place(c ClientInfo, servers []ServerLoad) (int, error) {
	candidates := make([]ServerLoad, 0, len(servers))
	for _, s := range servers {
		if !s.Draining {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return 0, ErrNoServers
	}

	feasible := candidates
	for _, pred := range p.predicates {
		kept := feasible[:0:0]
		for _, s := range feasible {
			if pred.Fits(c, s) {
				kept = append(kept, s)
			}
		}
		feasible = kept
	}
	if len(feasible) == 0 {
		// Relaxation pass: nothing satisfies the hard constraints, so
		// overcommit the least-bad server rather than refuse.
		feasible = candidates
	}

	totals := make(map[int]int64, len(feasible))
	for _, s := range feasible {
		totals[s.ID] = 0
	}
	for _, prio := range p.priorities {
		for _, s := range feasible {
			totals[s.ID] += int64(prio.Weight) * prio.Score(c, s, feasible)
		}
	}

	sort.Slice(feasible, func(i, j int) bool { return feasible[i].ID < feasible[j].ID })
	best, bestScore := -1, int64(0)
	for _, s := range feasible {
		if sc := totals[s.ID]; best < 0 || sc > bestScore {
			best, bestScore = s.ID, sc
		}
	}
	return best, nil
}

// PredicateFitsMemory requires the client's predicted footprint
// (persistent + transient peak) to fit the server's free memory.
func PredicateFitsMemory() Predicate {
	return Predicate{
		Name: "fits-memory",
		Fits: func(c ClientInfo, s ServerLoad) bool {
			return s.FreeBytes() >= c.demandBytes()
		},
	}
}

// PredicateNotShedding excludes servers whose admission ladder has
// reached shedding — they are rejecting work; placing onto them only
// manufactures retries.
func PredicateNotShedding() Predicate {
	return Predicate{
		Name: "not-shedding",
		Fits: func(_ ClientInfo, s ServerLoad) bool {
			return s.Admission < AdmissionShedding
		},
	}
}

// ScoreBalancedHeadcount favors servers with fewer waiting-plus-
// resident clients, normalized against the busiest candidate (the
// emptiest scores MaxPriorityScore, the busiest 0).
func ScoreBalancedHeadcount(_ ClientInfo, s ServerLoad, all []ServerLoad) int64 {
	maxLoad := 0
	for _, o := range all {
		if l := o.QueueDepth + o.Clients; l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		return MaxPriorityScore
	}
	load := s.QueueDepth + s.Clients
	return int64(MaxPriorityScore * (maxLoad - load) / maxLoad)
}

// ScoreMemoryHeadroom favors servers with more free memory, as a
// fraction of capacity (spreading, the least-requested heuristic).
// Overcommitted servers score 0.
func ScoreMemoryHeadroom(_ ClientInfo, s ServerLoad, _ []ServerLoad) int64 {
	if s.CapacityBytes <= 0 {
		return 0
	}
	free := s.FreeBytes()
	if free < 0 {
		return 0
	}
	return MaxPriorityScore * free / s.CapacityBytes
}

// ScoreModelAffinity scores MaxPriorityScore when the server already
// hosts the client's base model (co-placed clients share one resident
// copy — the paper's memory-sharing win), 0 otherwise.
func ScoreModelAffinity(c ClientInfo, s ServerLoad, _ []ServerLoad) int64 {
	if c.BaseModel != "" && s.HasModel(c.BaseModel) {
		return MaxPriorityScore
	}
	return 0
}

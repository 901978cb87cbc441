package fleet

import "slices"

// PolicyPlacer is menos-fleetd's default placer. Its candidates are the
// servers where the client's predicted footprint fits the free memory
// and whose admission ladder is below shedding — or, when none
// qualifies, every server (overcommit the least-bad one rather than
// refuse; clients then queue on the scheduler). Each candidate scores
// 2·headcount + 1·headroom + 3·affinity, every term an integer 0–10:
// headcount is 10·(busiest − own)/busiest over the candidates'
// waiting-plus-resident clients (10 when all are idle), headroom is
// free memory in tenths of capacity (0 when overcommitted), and
// affinity is 10 when the server already hosts the client's base model
// (co-placed clients share one resident copy). The highest score wins,
// ties to the lowest ID.
type PolicyPlacer struct{}

// NewPolicyPlacer returns the default policy placer.
func NewPolicyPlacer() *PolicyPlacer { return &PolicyPlacer{} }

// Name implements Placer.
func (p *PolicyPlacer) Name() string { return "policy" }

// Place implements Placer.
func (p *PolicyPlacer) Place(c ClientInfo, servers []ServerLoad) (int, error) {
	need := c.demandBytes()
	fits := func(s ServerLoad) bool { return s.FreeBytes() >= need && s.Admission < AdmissionShedding }
	relaxed := !slices.ContainsFunc(servers, fits)
	maxLoad := 0
	for _, s := range servers {
		if relaxed || fits(s) {
			maxLoad = max(maxLoad, s.QueueDepth+s.Clients)
		}
	}
	best, bestScore := -1, int64(0)
	for _, s := range servers {
		if !relaxed && !fits(s) {
			continue
		}
		headcount := int64(10)
		if maxLoad > 0 {
			headcount = int64(10 * (maxLoad - s.QueueDepth - s.Clients) / maxLoad)
		}
		var headroom, affinity int64
		if free := s.FreeBytes(); s.CapacityBytes > 0 && free >= 0 {
			headroom = 10 * free / s.CapacityBytes
		}
		if c.BaseModel != "" && s.HasModel(c.BaseModel) {
			affinity = 10
		}
		score := 2*headcount + headroom + 3*affinity
		if best < 0 || score > bestScore || (score == bestScore && s.ID < best) {
			best, bestScore = s.ID, score
		}
	}
	if best < 0 {
		return 0, ErrNoServers
	}
	return best, nil
}

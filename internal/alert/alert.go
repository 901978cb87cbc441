// Package alert is the rule engine of the fleet telemetry plane: each
// menos-fleetd poll tick it evaluates recording rules and alert rules
// over the federated time-series store (internal/tsdb) and walks every
// alert instance through an Inactive→Pending→Firing ladder with dwell
// hysteresis — the same escalate-fast / de-escalate-slowly discipline
// as the sched admission ladder and the fleet.Autoscaler.
//
// Like those, the engine is deterministic and clock-free: it owns no
// goroutine and no time source. EvalTick takes an explicit timestamp
// from the caller's obs.Clock, so the same rule sequence on a virtual
// clock produces bit-identical state machines in tests.
//
// State machine, per (rule, series) instance:
//
//   - a rule's Eval returns the instances whose condition currently
//     holds; an instance absent from the result is calm;
//   - condition true: Inactive→Pending immediately; Pending→Firing
//     once it has held for the rule's For dwell (For=0 fires on the
//     same tick);
//   - condition false: after the Resolve dwell of uninterrupted calm
//     the instance steps down ONE rung (Firing→Pending, then after a
//     fresh dwell Pending→Inactive) — a flapping condition must stay
//     calm to fully clear, it cannot resolve through one lucky tick.
package alert

import (
	"sort"
	"sync"
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

// State is one rung of the alert ladder.
type State int

const (
	Inactive State = iota
	Pending
	Firing
)

// String renders the state for /alertz and logs.
func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	}
	return "unknown"
}

// Sample is one instance a rule reports: the labeled series the
// condition holds for (or, for recording rules, the series to write)
// and an informational value (burn rate, shed count, ...).
type Sample struct {
	Series tsdb.SeriesID
	Value  float64
}

// Rule is one alert rule. Eval inspects the store at the given time
// and returns the instances whose condition holds right now; the
// engine supplies all memory (dwell tracking, hysteresis).
type Rule struct {
	Name     string
	Help     string
	Severity string // "critical", "warning", ...
	// For is how long the condition must hold before Pending escalates
	// to Firing (0 = fire on the first tick).
	For time.Duration
	// Resolve is how long the condition must stay calm before the
	// instance de-escalates one rung (<= 0 defaults to For).
	Resolve time.Duration
	Eval    func(st *tsdb.Store, now time.Duration) []Sample
}

// RecordingRule derives new series from existing ones — evaluated
// before the alert rules each tick, its samples are appended to the
// store under the rule's name (convention: a "fleet:" prefix), so
// alert rules and /queryz can consume precomputed signals like the
// SLO burn rate.
type RecordingRule struct {
	Name string
	Eval func(st *tsdb.Store, now time.Duration) []Sample
}

// Transition is one recorded state change of one instance.
type Transition struct {
	At     time.Duration
	Rule   string
	Series tsdb.SeriesID
	From   State
	To     State
	Value  float64
}

// Config assembles an Engine.
type Config struct {
	Store     *tsdb.Store
	Rules     []Rule
	Recording []RecordingRule
	// OnFiring observes every transition INTO Firing — menos-fleetd
	// hangs the flight-recorder snapshot off it. Called synchronously
	// inside EvalTick, without the engine lock held.
	OnFiring func(Transition)
}

// maxTransitions bounds the firing-history ring.
const maxTransitions = 256

// instance is the engine-side memory for one (rule, series) pair.
type instance struct {
	series tsdb.SeriesID
	state  State
	since  time.Duration // entered current state
	// calm dwell tracking: haveCalm marks an uninterrupted calm streak
	// begun at calmSince; any active tick resets it.
	haveCalm  bool
	calmSince time.Duration
	value     float64
}

// Engine evaluates the rule set each tick. Safe for concurrent use
// (EvalTick from the poll loop, Snapshot from HTTP handlers).
type Engine struct {
	cfg Config

	mu sync.Mutex
	// insts[ruleIndex] maps series key → instance state.
	insts       []map[string]*instance
	transitions []Transition // ring, oldest first

	mFiring *obs.Gauge
	// mTrans counts every transition, standalone until Instrument,
	// because Snapshot reads it.
	mTrans *obs.Counter
}

// NewEngine builds an engine over cfg.
func NewEngine(cfg Config) *Engine {
	for i := range cfg.Rules {
		if cfg.Rules[i].Resolve <= 0 {
			cfg.Rules[i].Resolve = cfg.Rules[i].For
		}
	}
	e := &Engine{cfg: cfg, insts: make([]map[string]*instance, len(cfg.Rules)), mTrans: new(obs.Counter)}
	for i := range e.insts {
		e.insts[i] = make(map[string]*instance)
	}
	return e
}

// Instrument publishes the engine's gauges/counters in reg. Call before
// the first EvalTick: counts made earlier stay behind. Safe on a nil
// registry.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.mu.Lock()
	e.mFiring = reg.Gauge(obs.MetricFleetdAlertsFiring, "alert instances currently firing")
	e.mTrans = reg.Counter(obs.MetricFleetdAlertsTransitions, "alert instance state transitions")
	e.mu.Unlock()
}

// EvalTick runs one evaluation pass at the given time: recording rules
// first (their output lands in the store before alerts read it), then
// every alert rule. OnFiring hooks run after the pass, outside the
// engine lock.
func (e *Engine) EvalTick(now time.Duration) {
	for _, rr := range e.cfg.Recording {
		for _, s := range rr.Eval(e.cfg.Store, now) {
			id := s.Series
			id.Name = rr.Name
			e.cfg.Store.Append(id, now, s.Value)
		}
	}

	var fired []Transition
	e.mu.Lock()
	for ri := range e.cfg.Rules {
		rule := &e.cfg.Rules[ri]
		active := make(map[string]Sample)
		for _, s := range rule.Eval(e.cfg.Store, now) {
			active[s.Series.String()] = s
		}
		// Deterministic pass order: union of active and remembered
		// instance keys, sorted.
		keys := make([]string, 0, len(active)+len(e.insts[ri]))
		for k := range active {
			keys = append(keys, k)
		}
		for k := range e.insts[ri] {
			if _, ok := active[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			inst := e.insts[ri][k]
			s, isActive := active[k]
			if isActive {
				if inst == nil {
					inst = &instance{series: s.Series, state: Inactive, since: now}
					e.insts[ri][k] = inst
				}
				inst.haveCalm = false
				inst.value = s.Value
				if inst.state == Inactive {
					fired = e.transitionLocked(fired, rule, inst, Pending, now)
				}
				if inst.state == Pending && now-inst.since >= rule.For {
					fired = e.transitionLocked(fired, rule, inst, Firing, now)
				}
				continue
			}
			// Calm. Unknown instances have nothing to resolve.
			if inst == nil {
				continue
			}
			if !inst.haveCalm {
				inst.haveCalm = true
				inst.calmSince = now
			}
			if now-inst.calmSince >= rule.Resolve {
				switch inst.state {
				case Firing:
					fired = e.transitionLocked(fired, rule, inst, Pending, now)
					// One rung per dwell: the next rung needs a fresh
					// uninterrupted calm streak.
					inst.haveCalm = false
				case Pending:
					fired = e.transitionLocked(fired, rule, inst, Inactive, now)
					delete(e.insts[ri], k)
				}
			}
		}
	}
	e.mFiring.Set(int64(e.firingLocked()))
	e.mu.Unlock()

	if e.cfg.OnFiring != nil {
		for _, tr := range fired {
			if tr.To == Firing {
				e.cfg.OnFiring(tr)
			}
		}
	}
}

// transitionLocked moves inst to state, records the transition, and
// returns the updated fired accumulator. Caller holds e.mu.
func (e *Engine) transitionLocked(fired []Transition, rule *Rule, inst *instance, to State, now time.Duration) []Transition {
	tr := Transition{At: now, Rule: rule.Name, Series: inst.series, From: inst.state, To: to, Value: inst.value}
	inst.state = to
	inst.since = now
	e.mTrans.Inc()
	e.transitions = append(e.transitions, tr)
	if n := len(e.transitions) - maxTransitions; n > 0 {
		e.transitions = append(e.transitions[:0], e.transitions[n:]...)
	}
	return append(fired, tr)
}

// firingLocked counts instances currently firing. Caller holds e.mu.
func (e *Engine) firingLocked() int {
	n := 0
	for _, m := range e.insts {
		for _, inst := range m {
			if inst.state == Firing {
				n++
			}
		}
	}
	return n
}

// Firing returns the number of instances currently firing.
func (e *Engine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firingLocked()
}

// InstanceStatus is one instance's state in a Snapshot.
type InstanceStatus struct {
	Series       string  `json:"series"`
	State        string  `json:"state"`
	SinceSeconds float64 `json:"since_seconds"`
	Value        float64 `json:"value"`
}

// RuleStatus is one rule's state in a Snapshot.
type RuleStatus struct {
	Name           string           `json:"name"`
	Help           string           `json:"help,omitempty"`
	Severity       string           `json:"severity"`
	ForSeconds     float64          `json:"for_seconds"`
	ResolveSeconds float64          `json:"resolve_seconds"`
	Instances      []InstanceStatus `json:"instances,omitempty"`
}

// TransitionStatus is one recorded transition in a Snapshot.
type TransitionStatus struct {
	AtSeconds float64 `json:"at_seconds"`
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Value     float64 `json:"value"`
}

// Doc is the /alertz document.
type Doc struct {
	AtSeconds   float64            `json:"at_seconds"`
	Firing      int                `json:"firing"`
	Transitions int64              `json:"transitions_total"`
	Rules       []RuleStatus       `json:"rules"`
	History     []TransitionStatus `json:"history,omitempty"`
}

// Snapshot renders the engine's state for /alertz: every rule with its
// live instances (sorted), plus the bounded transition history, oldest
// first.
func (e *Engine) Snapshot(now time.Duration) Doc {
	e.mu.Lock()
	defer e.mu.Unlock()
	doc := Doc{
		AtSeconds:   now.Seconds(),
		Firing:      e.firingLocked(),
		Transitions: e.mTrans.Value(),
		Rules:       make([]RuleStatus, 0, len(e.cfg.Rules)),
	}
	for ri := range e.cfg.Rules {
		rule := &e.cfg.Rules[ri]
		rs := RuleStatus{
			Name:           rule.Name,
			Help:           rule.Help,
			Severity:       rule.Severity,
			ForSeconds:     rule.For.Seconds(),
			ResolveSeconds: rule.Resolve.Seconds(),
		}
		keys := make([]string, 0, len(e.insts[ri]))
		for k := range e.insts[ri] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			inst := e.insts[ri][k]
			rs.Instances = append(rs.Instances, InstanceStatus{
				Series:       k,
				State:        inst.state.String(),
				SinceSeconds: (now - inst.since).Seconds(),
				Value:        inst.value,
			})
		}
		doc.Rules = append(doc.Rules, rs)
	}
	for _, tr := range e.transitions {
		doc.History = append(doc.History, TransitionStatus{
			AtSeconds: tr.At.Seconds(),
			Rule:      tr.Rule,
			Series:    tr.Series.String(),
			From:      tr.From.String(),
			To:        tr.To.String(),
			Value:     tr.Value,
		})
	}
	return doc
}

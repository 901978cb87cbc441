package fleet

import (
	"fmt"
	"time"
)

// AutoscaleConfig bounds the fleet autoscaler. The zero value is a
// valid "scale between 1 and 4 servers" policy.
type AutoscaleConfig struct {
	// Min and Max bound the active server count (defaults 1 and
	// max(Min, 4)).
	Min int
	Max int
}

// The autoscaler's fixed thresholds and hysteresis.
const (
	// autoscaleInterval is how often the autoscaler evaluates the fleet,
	// on the decision clock (virtual or wall).
	autoscaleInterval = 5 * time.Second
	// upQueueDepth scales up when the mean scheduler queue depth per
	// active server reaches it. Any server at admission state Throttled
	// or worse, or any client waiting to be placed, also counts as
	// pressure.
	upQueueDepth = 2
	// downQueueDepth arms scale-down when the mean queue depth stays at
	// or below it with every admission ladder Open.
	downQueueDepth = 0.25
	// scaleCooldown and downDwell give the loop hysteresis: scale-ups
	// are gated only by scaleCooldown, the minimum time between
	// consecutive scale events; scale-downs additionally require the
	// calm signal to hold for downDwell first, exactly the dwell-gated
	// de-escalation style of the admission ladder.
	scaleCooldown = 3 * autoscaleInterval
	downDwell     = 4 * autoscaleInterval
)

// withDefaults fills unset bounds.
func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// Validate rejects configs that resolve to nonsense.
func (c AutoscaleConfig) Validate() error {
	if c.Max > 0 && c.Min > 0 && c.Max < c.Min {
		return fmt.Errorf("fleet: autoscale max %d < min %d", c.Max, c.Min)
	}
	return nil
}

// Decision is one autoscaler verdict.
type Decision int

// Decisions.
const (
	Hold Decision = iota
	ScaleUp
	ScaleDown
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Autoscaler turns fleet telemetry into grow/shrink decisions. It is a
// pure state machine: Decide is fed explicit clock readings and server
// loads, holds no goroutine and reads no real time, so the same code
// is deterministic under the simulator's virtual clock. The caller
// owns the actuation (adding a server, picking a drain candidate) and
// the metrics (Manager.RecordScaleEvent).
type Autoscaler struct {
	cfg AutoscaleConfig

	haveEvent bool
	lastEvent time.Duration
	calm      bool
	calmSince time.Duration
}

// NewAutoscaler builds an autoscaler; cfg is normalized through
// withDefaults.
func NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	return &Autoscaler{cfg: cfg.withDefaults()}
}

// Config returns the normalized (defaults-applied) configuration.
func (a *Autoscaler) Config() AutoscaleConfig { return a.cfg }

// Interval is how often the caller evaluates the fleet with Decide.
func (a *Autoscaler) Interval() time.Duration { return autoscaleInterval }

// Decide evaluates the fleet at now. pending is the number of clients
// waiting to be placed (no server could physically admit them — the
// strongest possible grow signal); loads is the Manager's snapshot,
// draining servers included (they are ignored here).
//
// Pressure — mean queue depth at or above upQueueDepth, any admission
// controller at Throttled or worse, or pending placements — scales up
// immediately, gated only by scaleCooldown and Max. Calm — mean queue
// depth at or below downQueueDepth with every admission ladder Open and
// nothing pending — must hold for downDwell before a cooldown-gated
// scale-down, mirroring the admission ladder's asymmetric hysteresis.
func (a *Autoscaler) Decide(now time.Duration, pending int, loads []ServerLoad) Decision {
	active := 0
	queued := 0
	worst := AdmissionOpen
	for _, l := range loads {
		if l.Draining {
			continue
		}
		active++
		queued += l.QueueDepth
		if l.Admission > worst {
			worst = l.Admission
		}
	}
	if active == 0 {
		return Hold
	}
	meanQ := float64(queued) / float64(active)

	pressured := pending > 0 || meanQ >= upQueueDepth || worst >= AdmissionThrottled
	if pressured {
		a.calm = false
		if active < a.cfg.Max && a.cooldownOver(now) {
			a.record(now)
			return ScaleUp
		}
		return Hold
	}

	calm := meanQ <= downQueueDepth && worst == AdmissionOpen
	if !calm || active <= a.cfg.Min {
		a.calm = false
		return Hold
	}
	if !a.calm {
		a.calm = true
		a.calmSince = now
		return Hold
	}
	if now-a.calmSince >= downDwell && a.cooldownOver(now) {
		a.calm = false
		a.record(now)
		return ScaleDown
	}
	return Hold
}

// cooldownOver reports whether enough time has passed since the last
// scale event.
func (a *Autoscaler) cooldownOver(now time.Duration) bool {
	return !a.haveEvent || now-a.lastEvent >= scaleCooldown
}

// record stamps a scale event.
func (a *Autoscaler) record(now time.Duration) {
	a.haveEvent = true
	a.lastEvent = now
}

// Package faults defines deterministic, seedable fault schedules for
// fleet-level outage drills: replica crashes (lossy — in-flight work and
// the device KV cache are destroyed, with an optional restart after a
// cold-start delay), transient stall windows (the replica makes no
// progress), and thermal-throttle windows (the decode rate is scaled
// down, modeling a sustained power/temperature cap on an Orin-class
// part). A Schedule is pure data: the serving layer compiles it into
// per-replica timelines and the recovery machinery around them, so the
// same schedule replayed against the same stream yields the same run.
package faults

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/stats"
)

// Kind enumerates the injected fault types.
type Kind int

const (
	// Crash destroys the replica's in-flight work and device KV cache at
	// Event.At; the replica rejoins after Event.Restart seconds (never,
	// when Restart is zero).
	Crash Kind = iota
	// Stall freezes the replica for [At, At+Duration): work that would
	// start inside the window starts at its end instead.
	Stall
	// Throttle stretches decode time by Event.Factor over
	// [At, At+Duration) — a thermal cap that slows token generation
	// without losing state.
	Throttle
)

// String names the kind as used in tables and errors.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Throttle:
		return "throttle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault against one replica, identified by its
// index into the fleet's configured (initial) replica set.
type Event struct {
	Replica int
	Kind    Kind
	// At is the fault instant for a crash, or the window start for a
	// stall or throttle.
	At float64
	// Restart (crash only) is the cold-start delay before the replica
	// rejoins the pool; zero means it never comes back.
	Restart float64
	// Duration (stall and throttle only) is the window length: the fault
	// covers [At, At+Duration).
	Duration float64
	// Factor (throttle only) is the decode-time multiplier, >= 1: a
	// factor of 2 halves the decode rate for the window.
	Factor float64
}

// Schedule is a deterministic fault plan for one serving run.
type Schedule struct {
	Events []Event
}

// Validate rejects unusable schedules against a fleet of the given
// replica count.
func (s *Schedule) Validate(replicas int) error {
	for i, ev := range s.Events {
		if ev.Replica < 0 || ev.Replica >= replicas {
			return fmt.Errorf("faults: event %d targets replica %d of a %d-replica fleet", i, ev.Replica, replicas)
		}
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return fmt.Errorf("faults: event %d at non-finite or negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case Crash:
			if math.IsNaN(ev.Restart) || math.IsInf(ev.Restart, 0) || ev.Restart < 0 {
				return fmt.Errorf("faults: crash event %d has bad restart delay %v", i, ev.Restart)
			}
		case Stall, Throttle:
			if math.IsNaN(ev.Duration) || math.IsInf(ev.Duration, 0) || ev.Duration <= 0 {
				return fmt.Errorf("faults: %s event %d needs a positive finite duration, got %v", ev.Kind, i, ev.Duration)
			}
			if ev.Kind == Throttle && (!(ev.Factor >= 1) || math.IsInf(ev.Factor, 0)) {
				return fmt.Errorf("faults: throttle event %d needs a finite factor >= 1, got %v", i, ev.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// Sorted returns the events ordered by (At, Replica, Kind), the
// canonical processing order; the receiver is not modified.
func (s *Schedule) Sorted() []Event {
	return sortEvents(append([]Event(nil), s.Events...))
}

// sortEvents stably orders evs by (At, Replica, Kind) in place.
func sortEvents(evs []Event) []Event {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Replica != evs[j].Replica {
			return evs[i].Replica < evs[j].Replica
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs
}

// GenConfig parameterizes the seeded schedule generator. Rates are
// expected event counts per replica over the horizon; fractional rates
// are resolved by an extra Bernoulli draw, so a rate of 1.5 yields one
// guaranteed event and a second with probability one half.
type GenConfig struct {
	// Replicas is the fleet size events are drawn against.
	Replicas int
	// Horizon bounds event start times: every fault lands in [0, Horizon).
	Horizon float64
	// CrashRate is the expected crashes per replica over the horizon.
	CrashRate float64
	// RestartDelay is the cold-start delay a crashed replica pays before
	// rejoining (zero: crashes are permanent).
	RestartDelay float64
	// StallRate and StallDuration shape the transient stall windows.
	StallRate     float64
	StallDuration float64
	// ThrottleRate, ThrottleDuration, and ThrottleFactor shape the
	// thermal-throttle windows; a factor <= 1 disables throttling even
	// with a positive rate.
	ThrottleRate     float64
	ThrottleDuration float64
	ThrottleFactor   float64
}

// Validate rejects unusable generator configs: every config it accepts
// generates a schedule that passes Schedule.Validate.
func (c GenConfig) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case c.Replicas <= 0:
		return fmt.Errorf("faults: generator needs a positive replica count, got %d", c.Replicas)
	case !finite(c.Horizon) || c.Horizon < 0x1p-1022:
		// Subnormal horizons are out too: a uniform draw scaled by one can
		// round up to the horizon itself.
		return fmt.Errorf("faults: generator needs a positive finite horizon, got %v", c.Horizon)
	case !finite(c.CrashRate) || !finite(c.StallRate) || !finite(c.ThrottleRate) ||
		c.CrashRate < 0 || c.StallRate < 0 || c.ThrottleRate < 0:
		return fmt.Errorf("faults: event rates must be finite and non-negative, got crash %v stall %v throttle %v",
			c.CrashRate, c.StallRate, c.ThrottleRate)
	case !finite(c.RestartDelay) || c.RestartDelay < 0:
		return fmt.Errorf("faults: bad restart delay %v", c.RestartDelay)
	case c.StallRate > 0 && (!finite(c.StallDuration) || c.StallDuration <= 0):
		return fmt.Errorf("faults: stalls need a positive finite duration, got %v", c.StallDuration)
	case c.ThrottleRate > 0 && (!finite(c.ThrottleFactor) || !finite(c.ThrottleDuration)):
		return fmt.Errorf("faults: throttles need a finite factor and duration, got factor %v duration %v",
			c.ThrottleFactor, c.ThrottleDuration)
	}
	return nil
}

// Generate draws a deterministic schedule from the config and seed: each
// replica gets an independent named stream, so adding replicas never
// perturbs the faults of existing ones, and the same (config, seed) pair
// always yields the same schedule. Events come back in canonical sorted
// order and always pass Validate against cfg.Replicas.
func Generate(cfg GenConfig, seed uint64) (Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return Schedule{}, err
	}
	var s Schedule
	for r := 0; r < cfg.Replicas; r++ {
		rng := stats.NewRNG(seed, fmt.Sprintf("faults-replica-%d", r))
		for i, n := 0, drawCount(rng, cfg.CrashRate); i < n; i++ {
			s.Events = append(s.Events, Event{
				Replica: r, Kind: Crash,
				At:      rng.Float64() * cfg.Horizon,
				Restart: cfg.RestartDelay,
			})
		}
		for i, n := 0, drawCount(rng, cfg.StallRate); i < n; i++ {
			s.Events = append(s.Events, Event{
				Replica: r, Kind: Stall,
				At:       rng.Float64() * cfg.Horizon,
				Duration: cfg.StallDuration,
			})
		}
		if cfg.ThrottleFactor > 1 && cfg.ThrottleDuration > 0 {
			for i, n := 0, drawCount(rng, cfg.ThrottleRate); i < n; i++ {
				s.Events = append(s.Events, Event{
					Replica: r, Kind: Throttle,
					At:       rng.Float64() * cfg.Horizon,
					Duration: cfg.ThrottleDuration,
					Factor:   cfg.ThrottleFactor,
				})
			}
		}
	}
	sortEvents(s.Events)
	return s, nil
}

// drawCount resolves an expected event count into a concrete one: the
// integer part is guaranteed, the fractional part is one Bernoulli draw.
func drawCount(rng *stats.RNG, rate float64) int {
	if rate <= 0 {
		return 0
	}
	n := int(rate)
	if rng.Bernoulli(rate - float64(n)) {
		n++
	}
	return n
}

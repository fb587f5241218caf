package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"replica out of range", Event{Replica: 3, Kind: Crash, At: 1}},
		{"negative replica", Event{Replica: -1, Kind: Crash, At: 1}},
		{"negative time", Event{Kind: Crash, At: -1}},
		{"NaN time", Event{Kind: Crash, At: math.NaN()}},
		{"infinite time", Event{Kind: Crash, At: math.Inf(1)}},
		{"negative restart", Event{Kind: Crash, At: 1, Restart: -2}},
		{"zero stall duration", Event{Kind: Stall, At: 1}},
		{"negative throttle duration", Event{Kind: Throttle, At: 1, Duration: -1, Factor: 2}},
		{"throttle factor below one", Event{Kind: Throttle, At: 1, Duration: 1, Factor: 0.5}},
		{"throttle factor NaN", Event{Kind: Throttle, At: 1, Duration: 1, Factor: math.NaN()}},
		{"unknown kind", Event{Kind: Kind(99), At: 1}},
	}
	for _, tc := range cases {
		s := Schedule{Events: []Event{tc.ev}}
		if err := s.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.ev)
		}
	}
	ok := Schedule{Events: []Event{
		{Replica: 0, Kind: Crash, At: 5, Restart: 10},
		{Replica: 2, Kind: Crash, At: 5}, // permanent
		{Replica: 1, Kind: Stall, At: 0, Duration: 2},
		{Replica: 1, Kind: Throttle, At: 3, Duration: 4, Factor: 2.5},
	}}
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestSortedCanonicalOrderAndCopy(t *testing.T) {
	s := Schedule{Events: []Event{
		{Replica: 1, Kind: Throttle, At: 5, Duration: 1, Factor: 2},
		{Replica: 0, Kind: Stall, At: 5, Duration: 1},
		{Replica: 0, Kind: Crash, At: 5},
		{Replica: 0, Kind: Crash, At: 1},
	}}
	got := s.Sorted()
	want := []Event{
		{Replica: 0, Kind: Crash, At: 1},
		{Replica: 0, Kind: Crash, At: 5},
		{Replica: 0, Kind: Stall, At: 5, Duration: 1},
		{Replica: 1, Kind: Throttle, At: 5, Duration: 1, Factor: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted order:\n got %+v\nwant %+v", got, want)
	}
	if s.Events[0].At != 5 {
		t.Fatal("Sorted must not reorder the receiver")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		Replicas: 3, Horizon: 120,
		CrashRate: 1.5, RestartDelay: 8,
		StallRate: 2, StallDuration: 3,
		ThrottleRate: 1, ThrottleDuration: 10, ThrottleFactor: 2,
	}
	a, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (config, seed) must generate the same schedule")
	}
	if len(a.Events) == 0 {
		t.Fatal("non-zero rates generated no events")
	}
	if err := a.Validate(cfg.Replicas); err != nil {
		t.Fatalf("generated schedule fails its own validation: %v", err)
	}
	for _, ev := range a.Events {
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %v outside horizon %v", ev.At, cfg.Horizon)
		}
		if ev.Kind == Crash && ev.Restart != cfg.RestartDelay {
			t.Fatalf("crash restart %v, want %v", ev.Restart, cfg.RestartDelay)
		}
	}
	other, err := Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds generated identical schedules")
	}
}

// TestGenerateReplicaStreamsIndependent pins the named-stream property:
// growing the fleet adds events for the new replicas without perturbing
// the faults already drawn for existing ones.
func TestGenerateReplicaStreamsIndependent(t *testing.T) {
	cfg := GenConfig{Replicas: 2, Horizon: 100, CrashRate: 2, StallRate: 1, StallDuration: 2}
	small, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicas = 4
	big, err := Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(s Schedule, below int) []Event {
		var out []Event
		for _, ev := range s.Events {
			if ev.Replica < below {
				out = append(out, ev)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(small, 2), filter(big, 2)) {
		t.Fatal("adding replicas perturbed the existing replicas' fault streams")
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{Replicas: 0, Horizon: 10},
		{Replicas: 1, Horizon: 0},
		{Replicas: 1, Horizon: 10, CrashRate: -1},
		{Replicas: 1, Horizon: 10, RestartDelay: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// A factor <= 1 disables throttling rather than erroring.
	s, err := Generate(GenConfig{Replicas: 1, Horizon: 10, ThrottleRate: 5, ThrottleDuration: 1, ThrottleFactor: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 {
		t.Fatalf("factor 1 throttles should be disabled, got %d events", len(s.Events))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Crash: "crash", Stall: "stall", Throttle: "throttle", Kind(9): "kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestGenConfigValidateMatchesSchedule pins GenConfig.Validate to its
// promise: a config it accepts generates a schedule that passes
// Schedule.Validate. Each rejected config here used to be accepted, and
// either generated an invalid schedule or silently drew no events.
func TestGenConfigValidateMatchesSchedule(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := GenConfig{Replicas: 2, Horizon: 100}
	with := func(f func(*GenConfig)) GenConfig {
		c := base
		f(&c)
		return c
	}
	bad := []struct {
		name string
		cfg  GenConfig
	}{
		{"zero stall duration", with(func(c *GenConfig) { c.StallRate = 1 })},
		{"NaN stall duration", with(func(c *GenConfig) { c.StallRate, c.StallDuration = 1, nan })},
		{"infinite stall duration", with(func(c *GenConfig) { c.StallRate, c.StallDuration = 1, inf })},
		{"negative stall duration", with(func(c *GenConfig) { c.StallRate, c.StallDuration = 1, -2 })},
		{"infinite throttle factor", with(func(c *GenConfig) {
			c.ThrottleRate, c.ThrottleDuration, c.ThrottleFactor = 1, 1, inf
		})},
		{"infinite throttle duration", with(func(c *GenConfig) {
			c.ThrottleRate, c.ThrottleDuration, c.ThrottleFactor = 1, inf, 2
		})},
		{"NaN crash rate", with(func(c *GenConfig) { c.CrashRate = nan })},
		{"infinite crash rate", with(func(c *GenConfig) { c.CrashRate = inf })},
		{"NaN stall rate", with(func(c *GenConfig) { c.StallRate, c.StallDuration = nan, 2 })},
		{"infinite throttle rate", with(func(c *GenConfig) {
			c.ThrottleRate, c.ThrottleDuration, c.ThrottleFactor = inf, 1, 2
		})},
		{"subnormal horizon", with(func(c *GenConfig) { c.Horizon, c.CrashRate = 5e-324, 8 })},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
		if _, err := Generate(tc.cfg, 1); err == nil {
			t.Errorf("%s: Generate accepted %+v", tc.name, tc.cfg)
		}
	}
	// A shape field only matters when its rate is on, and a finite factor
	// <= 1 still disables throttling without an error.
	ok := []GenConfig{
		with(func(c *GenConfig) { c.StallDuration = nan }),
		with(func(c *GenConfig) { c.ThrottleFactor, c.ThrottleDuration = inf, nan }),
		with(func(c *GenConfig) { c.ThrottleRate, c.ThrottleDuration, c.ThrottleFactor = 2, 1, 0.5 }),
	}
	for _, cfg := range ok {
		s, err := Generate(cfg, 1)
		if err != nil {
			t.Errorf("Generate rejected %+v: %v", cfg, err)
			continue
		}
		if err := s.Validate(cfg.Replicas); err != nil {
			t.Errorf("%+v generated an invalid schedule: %v", cfg, err)
		}
	}
}

// FuzzFaultsGenerate checks Generate on configs decoded from fuzz input.
// Rates are folded into (-64, 64), keeping NaN and infinities, so no
// input asks for millions of events. Oracles: Generate either fails or
// returns a schedule that passes Validate, in canonical Sorted order,
// with every event in [0, Horizon); and a re-run returns the same.
func FuzzFaultsGenerate(f *testing.F) {
	f.Add(uint8(3), 20_000.0, 20.0, 10.0, 40.0, 3.0, 20.0, 30.0, 2.0, uint64(7))
	f.Add(uint8(2), 100.0, 1.5, 0.0, 1.0, 0.0, 1.0, 1.0, math.Inf(1), uint64(11))
	f.Add(uint8(1), 5e-324, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(1))
	f.Add(uint8(0), 10.0, math.NaN(), -1.0, 2.0, math.NaN(), 1.0, math.Inf(1), 1.0, uint64(3))
	f.Fuzz(func(t *testing.T, replicas uint8, horizon, crashRate, restart, stallRate, stallDur,
		throttleRate, throttleDur, throttleFactor float64, seed uint64) {
		fold := func(rate float64) float64 {
			if math.IsNaN(rate) || math.IsInf(rate, 0) {
				return rate
			}
			return math.Mod(rate, 64)
		}
		cfg := GenConfig{
			Replicas: int(replicas % 9), Horizon: horizon,
			CrashRate: fold(crashRate), RestartDelay: restart,
			StallRate: fold(stallRate), StallDuration: stallDur,
			ThrottleRate: fold(throttleRate), ThrottleDuration: throttleDur, ThrottleFactor: throttleFactor,
		}
		s, err := Generate(cfg, seed)
		again, errAgain := Generate(cfg, seed)
		if (err == nil) != (errAgain == nil) || !reflect.DeepEqual(s, again) {
			t.Fatalf("re-run diverged: %v / %v", err, errAgain)
		}
		if err != nil {
			return
		}
		if err := s.Validate(cfg.Replicas); err != nil {
			t.Fatalf("%+v generated an invalid schedule: %v", cfg, err)
		}
		if !reflect.DeepEqual(s.Events, s.Sorted()) {
			t.Fatalf("events not in canonical order: %+v", s.Events)
		}
		for _, ev := range s.Events {
			if !(ev.At >= 0 && ev.At < cfg.Horizon) {
				t.Fatalf("event at %v outside [0, %v)", ev.At, cfg.Horizon)
			}
		}
	})
}

package power

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

// meterAndCost returns the Orin's meter and a function resolving an
// architecture's FP16 cost model on the Orin.
func meterAndCost() (*Meter, func(model.Arch) *gpusim.CostModel) {
	d := hw.JetsonAGXOrin64GB()
	s := gpusim.New(d)
	return NewMeter(d), func(a model.Arch) *gpusim.CostModel { return s.Resolve(a, model.FP16) }
}

// Table XIX: decode power for the DSR1 trio ≈ 19.6 / 24.4 / 26.5 W.
func TestDecodePowerMatchesPaper(t *testing.T) {
	m, cost := meterAndCost()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 19.6},
		{model.DSR1Llama8B, 24.4},
		{model.DSR1Qwen14B, 26.5},
	}
	for _, c := range cases {
		a := model.MustLookup(c.id).Arch
		res := cost(a).DecodeRun(512, 1024, 1)
		got := m.Power(res)
		if math.Abs(got-c.want)/c.want > 0.20 {
			t.Errorf("%s decode power = %.1f W, want %.1f ±20%%", c.id, got, c.want)
		}
	}
}

// Fig 5a: decode power grows (logarithmically) with output length.
func TestDecodePowerGrowsWithOutputLength(t *testing.T) {
	m, cost := meterAndCost()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	var prev float64
	for i, o := range []int{64, 256, 1024, 2048} {
		p := m.Power(cost(a).DecodeRun(512, o, 1))
		if i > 0 && p <= prev {
			t.Errorf("power must grow with O: O=%d gives %.2f <= %.2f", o, p, prev)
		}
		prev = p
	}
}

// Fig 4a: prefill power grows with input length, and the 1.5B model reads
// far lower than 8B/14B at 4K through the sampling window.
func TestPrefillPowerShape(t *testing.T) {
	m, cost := meterAndCost()
	small := model.MustLookup(model.DSR1Qwen1_5B).Arch
	large := model.MustLookup(model.DSR1Llama8B).Arch

	pSmall := m.ObservedPower(cost(small).Prefill(4096))
	pLarge := m.ObservedPower(cost(large).Prefill(4096))
	if pLarge < 18 {
		t.Errorf("8B prefill@4k observed power = %.1f W, paper reports >20 W", pLarge)
	}
	if pSmall >= pLarge-8 {
		t.Errorf("1.5B prefill power (%.1f W) should sit well below 8B (%.1f W)", pSmall, pLarge)
	}

	p512 := m.ObservedPower(cost(large).Prefill(512))
	if p512 >= pLarge {
		t.Errorf("prefill power must grow with I: %.1f W @512 vs %.1f W @4096", p512, pLarge)
	}
}

// Fig 10c: power rises with the parallel scaling factor (14→25 W for
// 1.5B, ~25→35 W for the larger models).
func TestParallelScalingPowerRises(t *testing.T) {
	m, cost := meterAndCost()
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Qwen14B} {
		a := model.MustLookup(id).Arch
		p1 := m.Power(cost(a).DecodeRun(512, 128, 1))
		p32 := m.Power(cost(a).DecodeRun(512, 128, 32))
		if p32 <= p1 {
			t.Errorf("%s: power at SF=32 (%.1f) must exceed SF=1 (%.1f)", id, p32, p1)
		}
		if p32 > m.Device.MaxPower {
			t.Errorf("%s: power %.1f exceeds device cap", id, p32)
		}
	}
}

// Energy is power × time and is never distorted by the sampling window.
func TestEnergyConsistency(t *testing.T) {
	m, cost := meterAndCost()
	a := model.MustLookup(model.DSR1Qwen1_5B).Arch
	res := cost(a).Prefill(128) // far shorter than the window
	e := m.Energy(res)
	if math.Abs(e-m.Power(res)*res.Time) > 1e-12 {
		t.Error("Energy must equal true Power × Time")
	}
	if m.ObservedPower(res) >= m.Power(res) {
		t.Error("a short phase must read lower through the sampling window")
	}
}

// Fig 5b: energy per decode token — the 1.5B model is several times
// cheaper than the 14B (the paper reports ~7×).
func TestEnergyPerTokenModelGap(t *testing.T) {
	m, cost := meterAndCost()
	small := model.MustLookup(model.DSR1Qwen1_5B).Arch
	large := model.MustLookup(model.DSR1Qwen14B).Arch
	eSmall := m.EnergyPerToken(cost(small).DecodeRun(512, 1024, 1))
	eLarge := m.EnergyPerToken(cost(large).DecodeRun(512, 1024, 1))
	ratio := eLarge / eSmall
	if ratio < 4 || ratio > 12 {
		t.Errorf("14B/1.5B energy-per-token ratio = %.1f, paper reports ~7x", ratio)
	}
}

func TestIdlePhaseReadsIdlePower(t *testing.T) {
	m, _ := meterAndCost()
	if got := m.Power(gpusim.Result{}); got != m.Device.IdlePower {
		t.Errorf("empty phase power = %v, want idle", got)
	}
}

func TestQuantizeStates(t *testing.T) {
	m, cost := meterAndCost()
	m.QuantizeStates = true
	a := model.MustLookup(model.DSR1Llama8B).Arch
	p := m.Power(cost(a).DecodeRun(512, 128, 4))
	d := m.Device
	step := (d.MaxPower - d.IdlePower) / float64(d.PowerStates)
	rem := math.Mod(p-d.IdlePower, step)
	if math.Min(rem, step-rem) > 1e-9 {
		t.Errorf("quantized power %.3f not on the %d-state ladder", p, d.PowerStates)
	}
}

func TestGPUUtilizationRange(t *testing.T) {
	m, cost := meterAndCost()
	a := model.MustLookup(model.DSR1Qwen14B).Arch
	u1 := m.GPUUtilization(cost(a).DecodeRun(512, 128, 1))
	u32 := m.GPUUtilization(cost(a).DecodeRun(512, 128, 32))
	if u1 < 0 || u1 > 100 || u32 < 0 || u32 > 100 {
		t.Errorf("utilization out of range: %v, %v", u1, u32)
	}
	if u32 < u1 {
		t.Errorf("utilization must rise with parallel scaling: %v -> %v", u1, u32)
	}
}

func TestPowerNeverExceedsCap(t *testing.T) {
	m, cost := meterAndCost()
	for _, spec := range model.All() {
		res := cost(spec.Arch).DecodeRun(2048, 512, 64)
		if p := m.Power(res); p > m.Device.MaxPower+1e-9 {
			t.Errorf("%s: power %.1f exceeds cap %.1f", spec.ID, p, m.Device.MaxPower)
		}
	}
}

// TestResidencyTermMatchesLog10 checks every token count the residency
// cache holds, and a stretch past it, against the direct term bit for
// bit. Four goroutines fill the cache at once, each in its own shuffled
// order, so entries fill out of order and concurrently (run it under
// -race); a last pass reads the filled entries.
func TestResidencyTermMatchesLog10(t *testing.T) {
	check := func(pass string, counts []int) {
		for _, n := range counts {
			if n == 0 {
				continue
			}
			want := math.Log10(1 + float64(n)/64)
			if got := residencyTerm(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: residencyTerm(%d) = %v, want %v", pass, n, got, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		counts := rand.New(rand.NewPCG(24, g)).Perm(len(residencyCache) + 256)
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(fmt.Sprintf("filler %d", g), counts)
		}()
	}
	wg.Wait()
	check("read", rand.New(rand.NewPCG(24, 9)).Perm(len(residencyCache)+256))
	for n := 1; n < len(residencyCache); n++ {
		if residencyCache[n].Load() == 0 {
			t.Fatalf("count %d was never cached", n)
		}
	}
}

// Package power models the Jetson's rail power and energy consumption.
// Average power during a simulated phase is derived from the utilization
// signals the GPU simulator reports (bandwidth fraction, compute fraction,
// SM occupancy), with two second-order effects the paper's measurements
// show: a DVFS residency boost for long sustained runs (power grows
// logarithmically with sequence length, Takeaway #3) and a sampling-window
// blend that models how short phases read lower on a finite-rate power
// meter (the reason the paper sees only 6 W during 1.5B prefill).
package power

import (
	"math"
	"sync/atomic"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
)

// Meter converts simulated utilization into watts and joules.
type Meter struct {
	Device *hw.Device

	// BWSpan is the dynamic power at full memory-bandwidth utilization;
	// ComputeSpan at full achievable compute utilization. Both calibrated
	// so the DSR1 trio's decode power lands on Table XIX (19.6 / 24.4 /
	// 26.5 W) and prefill power on Fig 4a.
	BWSpan      float64
	ComputeSpan float64

	// ResidencyRho scales the DVFS boost for sustained runs: power grows
	// with log10 of the per-sequence token count.
	ResidencyRho float64

	// SampleWindow is the power meter's averaging window in seconds.
	// Phases shorter than the window read blended with idle power (only
	// ObservedPower applies this; Energy never does).
	SampleWindow float64

	// QuantizeStates, when true, snaps power to the device's discrete
	// DVFS states (the step pattern of Fig 10c).
	QuantizeStates bool
}

// residencyCache holds the DVFS residency term's bits by decode token
// count, each entry filled the first time its count occurs: a serving
// run's decode chunks take few distinct counts (at most the admission
// grain times the batch while admission waits). Zero marks an unfilled
// entry, since the term is positive for every count it holds. Each
// entry is a pure function of its index, so sharing the cache between
// meters, tests and concurrent runs changes no result; the entries are
// atomic so concurrent fills are safe. Longer runs compute the term
// directly.
var residencyCache [1024]atomic.Uint64

// NewMeter returns a meter with the Orin MAXN calibration.
func NewMeter(d *hw.Device) *Meter {
	return &Meter{
		Device:       d,
		BWSpan:       25.0,
		ComputeSpan:  18.0,
		ResidencyRho: 0.10,
		SampleWindow: 2.0, // tegrastats-style ~1 Hz sampling over short phases
	}
}

// Power returns the true average rail power (watts) during the phase.
func (m *Meter) Power(r gpusim.Result) float64 {
	d := m.Device
	if r.Time <= 0 {
		return d.IdlePower
	}
	occ := r.Occupancy
	if occ <= 0 {
		occ = 1
	}
	// Compute utilization relative to what the device can actually achieve
	// (SM busy fraction tracks achievable, not theoretical, peak).
	computeRel := r.ComputeUtil / d.ComputeEff
	if computeRel > 1 {
		computeRel = 1
	}
	bwFrac := r.BWUtil
	if bwFrac > 1 {
		bwFrac = 1
	}
	p := d.IdlePower + m.BWSpan*bwFrac*occ + m.ComputeSpan*computeRel*occ

	// DVFS residency: sustained decode keeps clocks boosted; power rises
	// logarithmically with the per-sequence run length.
	if m.ResidencyRho > 0 && r.Tokens > 0 && r.Phase == gpusim.PhaseDecode {
		p *= 1 + m.ResidencyRho*residencyTerm(r.Tokens)
	}
	if p > d.MaxPower {
		p = d.MaxPower
	}
	if m.QuantizeStates {
		p = m.quantize(p)
	}
	return p
}

// residencyTerm returns log10(1 + tokens/64) for a positive token count,
// from the cache when the count is small enough to hold.
func residencyTerm(tokens int) float64 {
	if tokens >= len(residencyCache) {
		return math.Log10(1 + float64(tokens)/64)
	}
	e := &residencyCache[tokens]
	if b := e.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	v := math.Log10(1 + float64(tokens)/64)
	e.Store(math.Float64bits(v))
	return v
}

// quantize snaps power onto the device's discrete DVFS ladder.
func (m *Meter) quantize(p float64) float64 {
	d := m.Device
	if d.PowerStates <= 1 {
		return p
	}
	step := (d.MaxPower - d.IdlePower) / float64(d.PowerStates)
	n := math.Round((p - d.IdlePower) / step)
	return d.IdlePower + n*step
}

// ObservedPower returns what a finite-rate power meter would report for
// the phase: the true power blended with idle when the phase is shorter
// than the sampling window.
func (m *Meter) ObservedPower(r gpusim.Result) float64 {
	p := m.Power(r)
	if m.SampleWindow <= 0 || r.Time >= m.SampleWindow {
		return p
	}
	return (p*r.Time + m.Device.IdlePower*(m.SampleWindow-r.Time)) / m.SampleWindow
}

// Energy returns the joules consumed by the phase (true power × time;
// the sampling window never distorts energy).
func (m *Meter) Energy(r gpusim.Result) float64 {
	return m.Power(r) * r.Time
}

// EnergyPerToken returns joules per processed token, or 0 for empty
// phases.
func (m *Meter) EnergyPerToken(r gpusim.Result) float64 {
	if r.Tokens <= 0 {
		return 0
	}
	return m.Energy(r) / float64(r.Tokens)
}

// GPUUtilization returns the utilization percentage a tool like
// tegrastats would report for the phase: the occupancy-weighted busy
// fraction (Fig 10c secondary axis).
func (m *Meter) GPUUtilization(r gpusim.Result) float64 {
	d := m.Device
	computeRel := r.ComputeUtil / d.ComputeEff
	bwRel := r.BWUtil / d.MemEff
	u := math.Max(computeRel, bwRel)
	if u > 1 {
		u = 1
	}
	occ := r.Occupancy
	if occ <= 0 {
		occ = 1
	}
	return 100 * u * occ
}

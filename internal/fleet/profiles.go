package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

// DeviceByName resolves a CLI device spelling to a descriptor. Orin
// power-capped variants are derived with hw.ApplyPowerMode, so their
// compute, bandwidth, and power envelopes all derate together.
func DeviceByName(name string) (*hw.Device, error) {
	key := trimLower(name)
	switch key {
	case "orin", "orin-maxn", "agx-orin":
		return hw.JetsonAGXOrin64GB(), nil
	case "orin-50w", "orin-30w", "orin-15w":
		want := strings.ToUpper(strings.TrimPrefix(key, "orin-"))
		for _, m := range hw.OrinPowerModes() {
			if m.Name == want {
				return hw.ApplyPowerMode(hw.JetsonAGXOrin64GB(), m), nil
			}
		}
	case "orin-cpu", "cpu":
		return hw.OrinCortexA78AE(), nil
	case "h100":
		return hw.H100SXM(), nil
	}
	return nil, fmt.Errorf("fleet: unknown device %q (have %s)", name, strings.Join(DeviceNames(), ", "))
}

// DeviceNames lists the accepted -devices spellings in stable order.
func DeviceNames() []string {
	return []string{"orin", "orin-50w", "orin-30w", "orin-15w", "orin-cpu", "h100"}
}

// ParseDevices resolves a comma-separated device list ("" selects the
// default heterogeneous mix).
func ParseDevices(list string) ([]*hw.Device, error) {
	if strings.TrimSpace(list) == "" {
		return DefaultDevices(), nil
	}
	var out []*hw.Device
	for _, name := range strings.Split(list, ",") {
		d, err := DeviceByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// DefaultDevices is the default heterogeneous mix: a full-power AGX Orin
// flanked by 50W- and 30W-capped siblings — the spread a deployed fleet
// of thermally diverse cabinets actually shows.
func DefaultDevices() []*hw.Device {
	modes := hw.OrinPowerModes()
	var w50, w30 hw.PowerMode
	for _, m := range modes {
		switch m.Name {
		case "50W":
			w50 = m
		case "30W":
			w30 = m
		}
	}
	return []*hw.Device{
		hw.JetsonAGXOrin64GB(),
		hw.ApplyPowerMode(hw.JetsonAGXOrin64GB(), w50),
		hw.ApplyPowerMode(hw.JetsonAGXOrin64GB(), w30),
	}
}

// HeterogeneousReplicas builds n replica configs cycling through the
// device list and alternating FP16 / W4A16 weights, so both hardware and
// quantization heterogeneity are in play. An empty device list falls
// back to DefaultDevices.
func HeterogeneousReplicas(n int, devices []*hw.Device, base model.Spec) []ReplicaConfig {
	if len(devices) == 0 {
		devices = DefaultDevices()
	}
	out := make([]ReplicaConfig, n)
	for i := range out {
		out[i] = cycleReplica("r", i, devices, base)
	}
	return out
}

// cycleReplica is slot k of the replica profile cycle: odd slots serve
// base's W4A16 variant, devices repeat in order, and the name is
// "<prefix><k>-<device>", with "-w4" appended for quantized weights.
func cycleReplica(prefix string, k int, devices []*hw.Device, base model.Spec) ReplicaConfig {
	spec := base
	if k%2 == 1 {
		spec = base.Quantized()
	}
	dev := devices[k%len(devices)]
	w4 := ""
	if spec.IsQuantized() {
		w4 = "-w4"
	}
	return ReplicaConfig{Name: prefix + strconv.Itoa(k) + "-" + dev.Name + w4, Spec: spec, Device: dev}
}

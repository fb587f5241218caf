// Request-ID metamorphic test: external test package for the same
// import-cycle reason as sessionbench_test.go.
package engine_test

import (
	"reflect"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
)

// TestRequestIDsAreLabels serves one session stream twice at batch 8,
// once as generated and once with every request ID set to one shared
// label, so requests sharing an ID are admitted side by side. IDs only
// label metrics, so the two runs must agree on everything but
// Requests[i].ID, without a prefix cache and with a starved tiered one.
func TestRequestIDsAreLabels(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(8, 4, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	same := make([]engine.TimedRequest, len(reqs))
	copy(same, reqs)
	for i := range same {
		same[i].ID = label.Probe()
	}
	spec := model.MustLookup(model.DSR1Qwen1_5B)
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{
		{"no-prefix", engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()}},
		{"tiered", engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB(), PrefixCache: true,
			DeviceBlocks: 192, HostTierBlocks: 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(rs []engine.TimedRequest) engine.ServeMetrics {
				t.Helper()
				e, err := engine.New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := e.ServeSource(engine.NewSliceSource(rs), 8, engine.FCFS, engine.ServeOpts{})
				if err != nil {
					t.Fatal(err)
				}
				return sm
			}
			want, got := serve(reqs), serve(same)
			if want.Served != len(reqs) {
				t.Fatalf("served %d of %d", want.Served, len(reqs))
			}
			if tc.cfg.PrefixCache && want.HostHits == 0 {
				t.Fatal("tiered run never restored from the host tier")
			}
			for i := range got.Requests {
				if got.Requests[i].ID != label.Probe() {
					t.Fatalf("request %d labelled %q, want %q", i, got.Requests[i].ID, label.Probe())
				}
				got.Requests[i].ID = want.Requests[i].ID
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("relabelled run diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

package session

import (
	"testing"

	"edgereasoning/internal/label"
)

func TestWarmTurnTable(t *testing.T) {
	cases := []struct {
		id   label.Label
		warm bool
	}{
		{label.Think(0, 0), false},    // turn-0 canonical think: nothing written yet
		{label.Think(12, 0), false},   // any session's turn-0 think is cold
		{label.Act(0, 0), true},       // turn-0 act reads the think's output
		{label.Branch(0, 0, 1), true}, // turn-0 branch shares the admitted prompt
		{label.Think(0, 1), true},
		{label.Think(3, 10), true}, // "s3t10" must not read as turn 0
		{label.Branch(7, 2, 2), true},
		{label.Act(7, 2), true},
		{label.Question(3), false}, // non-session generators: conservatively cold
		{label.Steady(0), false},   // "sw0" starts like a session but is not one
		{label.Stream(0), false},
		{label.Label{}, false},
	}
	for _, tc := range cases {
		if got := WarmTurn(tc.id); got != tc.warm {
			t.Errorf("WarmTurn(%q) = %v, want %v", tc.id, got, tc.warm)
		}
	}
}

// TestWarmTurnMatchesGenerator locks the helper to the generator's ID
// scheme: across a generated stream, the cold requests are exactly one
// per session — the bare turn-0 think.
func TestWarmTurnMatchesGenerator(t *testing.T) {
	p := AgentLoop(5, 3, 2)
	reqs, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	cold := map[label.Label]bool{}
	for _, r := range reqs {
		if !WarmTurn(r.ID) {
			if cold[r.ID] {
				t.Fatalf("duplicate cold ID %q", r.ID)
			}
			cold[r.ID] = true
		}
	}
	if len(cold) != p.Sessions {
		t.Fatalf("%d cold IDs, want exactly one per session (%d): %v", len(cold), p.Sessions, cold)
	}
	for i := 0; i < p.Sessions; i++ {
		if id := label.Think(i, 0); !cold[id] {
			t.Errorf("session %d's first think %q not classified cold", i, id)
		}
	}
}

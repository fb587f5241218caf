package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerSeeds are the seeds every driver is pinned at, at both sizes.
var ledgerSeeds = []uint64{3, 7, 11}

const ledgerFile = "digests.txt"

// ledgerLine runs one driver and returns its ledger line: driver, size,
// seed, the SHA-256 of its rendered tables, and its status — ok, or its
// error text (newlines escaped so each entry stays one line).
func ledgerLine(id string, quick bool, seed uint64) (string, error) {
	tables, runErr := Run(id, Options{Seed: seed, Quick: quick})
	h := sha256.New()
	for i := range tables {
		if err := tables[i].Render(h); err != nil {
			return "", err
		}
	}
	size, status := "full", "ok"
	if quick {
		size = "quick"
	}
	if runErr != nil {
		status = strings.ReplaceAll(runErr.Error(), "\n", `\n`)
	}
	return fmt.Sprintf("%s %s %d %x %s", id, size, seed, h.Sum(nil), status), nil
}

// TestDigestLedger pins every registered driver, quick and full size, at
// seeds 3, 7 and 11: one line per (driver, size, seed) holding a digest
// of the rendered tables and the driver's status. The goldens show a few
// drivers' tables in full; the ledger covers every driver, so a change
// that is meant to be byte-identical proves it by leaving this file
// unchanged, and one that moves bits names the lines it moved.
//
// Each line is its own parallel subtest, so go test's -parallel flag sets
// how many drivers run at once; the ledger must come out the same at
// -parallel 1 and at -parallel 4, which makes determinism at any
// parallelism a full-size check. Regenerate intentionally with
//
//	go test ./internal/experiments -run TestDigestLedger -update
func TestDigestLedger(t *testing.T) {
	ids := IDs()
	lines := make([]string, len(ids)*2*len(ledgerSeeds))
	// The group returns once every parallel subtest has filled its line.
	t.Run("drivers", func(t *testing.T) {
		i := 0
		for _, id := range ids {
			for _, quick := range []bool{true, false} {
				for _, seed := range ledgerSeeds {
					slot := &lines[i]
					i++
					name := fmt.Sprintf("%s/full/seed%d", id, seed)
					if quick {
						name = fmt.Sprintf("%s/quick/seed%d", id, seed)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						line, err := ledgerLine(id, quick, seed)
						if err != nil {
							t.Fatal(err)
						}
						*slot = line
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	path := filepath.Join("testdata", ledgerFile)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	moved := 0
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			moved++
			w := "(missing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("ledger line %d moved:\n got  %s\n want %s", i+1, line, w)
		}
	}
	if moved == 0 {
		t.Errorf("ledger has %d lines, %s has %d", len(lines), path, len(wantLines))
	}
	t.Errorf("%d ledger lines moved; if the change is intentional, regenerate with -update and explain each moved line", moved)
}

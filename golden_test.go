//go:build !race

package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/exp"
)

// TestGoldenTables pins every registered experiment's result table, at
// seeds 1 and 5, to the SHA-256 recorded in the suite section of
// perfbench/golden.json. That file is the one golden source: the
// benchmark checks the same hashes, and this test only reads it. A
// change that legitimately moves a table updates that file and says
// why. The test is left out of -race builds, where the full suite
// would take minutes; the plain test run covers it.
func TestGoldenTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("perfbench", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Suite map[string]map[string]string `json:"suite"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("perfbench/golden.json: %v", err)
	}
	for _, seed := range []uint64{1, 5} {
		want := golden.Suite[strconv.FormatUint(seed, 10)]
		if len(want) == 0 {
			t.Fatalf("perfbench/golden.json has no suite hashes for seed %d", seed)
		}
		r := exp.Runner{Seed: seed}
		sum := exp.NewSummary(r.RunAll(), seed, r.EffectiveWorkers(), 0)
		got := map[string]bool{}
		for _, e := range sum.Experiments {
			got[e.ID] = true
			switch w, ok := want[e.ID]; {
			case e.Err != "":
				t.Errorf("seed %d: %s failed: %s", seed, e.ID, e.Err)
			case !ok:
				t.Errorf("seed %d: %s has no golden hash", seed, e.ID)
			case e.TableSHA256 != w:
				t.Errorf("seed %d: %s table hash %s, golden %s: the table changed", seed, e.ID, e.TableSHA256, w)
			}
		}
		for id := range want {
			if !got[id] {
				t.Errorf("seed %d: golden experiment %s is not registered", seed, id)
			}
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/exp"
)

// suiteWalls are the experiments whose wall time is reported on its
// own, the largest shares of the serial suite; the rest are summed
// into exp.rest.wall_s.
var suiteWalls = []string{
	"E21", "E5", "E73", "E7", "E19", "E70", "E25", "E62", "E60", "E40",
	"E81", "E42", "E14", "E82", "E52", "E31", "E61", "E9", "E20", "E51",
}

// suite runs every registered experiment serially, each through its
// own exp.Runner call so each gets a span, as cmd/experiments -workers 1
// -shards 1 runs them.
type suite struct {
	seed uint64
	exps []exp.Experiment
}

func setupSuite(seed uint64, _ *tracer, _ int) (bench, error) {
	exps := exp.All()
	if len(exps) == 0 {
		return nil, errors.New("no experiments registered")
	}
	return &suite{seed: seed, exps: exps}, nil
}

func (s *suite) pass(tr *tracer) (meter, []unitResult) {
	r := exp.Runner{Workers: 1, ShardWorkers: 1, Seed: s.seed}
	results := make([]exp.RunResult, 0, len(s.exps))
	var m meter
	for _, e := range s.exps {
		// Each experiment starts from a collected heap, as each pass of
		// the other workloads does, so one experiment's garbage is not
		// charged to the next.
		runtime.GC()
		m.start()
		sp := tr.begin("exp.run", e.ID)
		results = append(results, r.Run([]exp.Experiment{e})...)
		tr.end(sp, 1)
		m.stop()
	}

	sum := exp.NewSummary(results, s.seed, 1, m.wall)
	units := make([]unitResult, len(sum.Experiments))
	for i, e := range sum.Experiments {
		units[i] = unitResult{unit: e.ID, digest: e.TableSHA256}
		switch {
		case e.Err != "":
			units[i].err = errors.New(e.Err)
		case e.Rows == 0:
			units[i].err = fmt.Errorf("%s produced an empty table", e.ID)
		}
	}
	return m, units
}

// simWork is unknown for the suite: experiments build their own
// systems and report only tables.
func (s *suite) simWork() (acts, accesses int64) { return 0, 0 }

func (s *suite) layerMetrics(_, passes []span, nPasses int) map[string]float64 {
	out := map[string]float64{}
	own := map[string]bool{}
	for _, id := range suiteWalls {
		own[id] = true
	}
	for _, sp := range passes {
		if sp.Name != "exp.run" {
			continue
		}
		key := "exp.rest.wall_s"
		if own[sp.Unit] {
			key = "exp." + sp.Unit + ".wall_s"
		}
		out[key] += float64(sp.dur()) / 1e9 / float64(nPasses)
	}
	return out
}

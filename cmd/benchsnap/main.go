// Command benchsnap produces a BENCH_*.json benchmark snapshot for
// trajectory tracking across PRs: it executes every registered
// experiment through the parallel Runner — recording per-experiment
// wall time, allocations and table hashes — and merges `go test
// -bench` text piped on stdin into a microbenchmark section.
//
// Usage:
//
//	go test -run XXX -bench . -benchmem ./internal/disturb/ | \
//	    go run ./cmd/benchsnap -o BENCH_1.json [-seed 1] [-workers 0]
//
// Pipe /dev/null to stdin to omit microbenchmarks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "", "output file (required)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	flag.Parse()
	if *out == "" {
		return errors.New("-o is required")
	}

	// Open the output before the multi-second experiment run so an
	// unwritable path fails fast.
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	micro, err := exp.ParseGoBench(os.Stdin)
	if err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}

	runner := &exp.Runner{Workers: *workers, Seed: *seed}
	start := time.Now()
	results := runner.RunAll()
	wall := time.Since(start)
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	snap := exp.Snapshot{
		Summary:         exp.NewSummary(results, *seed, runner.EffectiveWorkers(), wall),
		Microbenchmarks: micro,
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s (%d experiments, %d microbenchmarks, total %.1f ms)\n",
		*out, len(results), len(micro), float64(wall)/float64(time.Millisecond))
	return nil
}

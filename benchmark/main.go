// Command benchmark is the repository's benchmark: five workloads whose
// inputs decide which layers do the work, measured end to end with the
// benchmark's own tracing off, and replayed layer by layer in a separate
// traced run. See README.md in this directory.
//
//	bash benchmark/run.sh                                  every workload, end to end
//	bash benchmark/run.sh --trace 1                        every workload, per layer
//	bash benchmark/run.sh --workload hub-ingest --seed 3   one workload
//	bash benchmark/run.sh --sets 2 --out sets.json         two sets of runs, compared
//	bash benchmark/run.sh --compare a.json b.json          two earlier sets, compared
//
// The last line of standard output of a one-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// traceDir is where a traced run writes trace-<workload>.json, relative
// to the checkout root the benchmark is run from.
const traceDir = "benchmark/out"

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all five)")
		seed    = flag.Int64("seed", 1, "input seed; 2 is the hold-out seed, not to be tuned against")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = the traced run: replay lap 0 layer by layer and print the per-layer metrics")
		sets    = flag.Int("sets", 0, "run this many sets of ten runs per workload, every run on -seed, and compare set 0 with each later one")
		out     = flag.String("out", "", "with -sets: write the sets to this file")
		compare = flag.Bool("compare", false, "compare the first set of a with the last set of b, two files written by -sets: -compare a.json b.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *sets > 0:
		os.Exit(runSets(*sets, *seed, *seconds, *out))
	}

	todo := workloads()
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		todo = []*workload{w}
	}
	printConditions(*seed, *seconds)
	code := 0
	for _, w := range todo {
		var r runResult
		var names []string
		// listed are the metrics BENCHMARK.json lists, which are all
		// the driver's line may hold.
		var listed map[string]metric
		if *trace != 0 {
			r = tracedRun(w, *seed, filepath.Join(traceDir, "trace-"+w.name+".json"))
			names = sortedNames(r.Metrics)
			listed = r.Metrics
		} else {
			r = runWorkload(w, *seed, *seconds, os.Stderr)
			listed = make(map[string]metric)
			for _, m := range endToEnd {
				names = append(names, m.name)
				if v, ok := r.Metrics[m.name]; ok && m.listed {
					listed[m.name] = v
				}
			}
		}
		printRun(os.Stdout, r, names)
		if !r.Correct {
			code = 1
		}
		// The driver's line: exactly these keys, a value and a unit per
		// metric, every digit as measured.
		line := struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, listed}
		data, err := json.Marshal(line)
		if err != nil {
			fatal("encoding result: %v", err)
		}
		fmt.Printf("%s\n", data)
	}
	os.Exit(code)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// conditions are what a number was measured under; every report
// carries them.
type conditions struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// commit is stamped by run.sh; the driver's checkout is not a git
// repository, so there it stays unknown.
var commit = "unknown"

func currentConditions(seed int64, seconds float64) conditions {
	return conditions{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds,
	}
}

func printConditions(seed int64, seconds float64) {
	c := currentConditions(seed, seconds)
	fmt.Printf("conditions: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.Commit, c.Seed, c.Seconds)
}

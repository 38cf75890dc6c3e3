package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSet is one set: runsPerSet runs of every workload.
type runSet struct {
	Results []runResult `json:"results"`
}

// setFile is what -sets writes and -compare reads.
type setFile struct {
	Conditions conditions `json:"conditions"`
	Runs       int        `json:"runs_per_workload"`
	Sets       []runSet   `json:"sets"`
}

// values collects one metric of one workload over a set's runs.
func (s runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Workload == workload {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedShare is operations failed over attempted across the set; a
// run whose output was wrong counts as failed outright.
func (s runSet) failedShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range s.Results {
		if r.Workload != workload {
			continue
		}
		if !r.Correct {
			return 1
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict judges later against earlier for one metric. A spread wider
// than the bound on either side means the runs cannot tell a change of
// that size from noise: unresolved, never "unchanged". Set-up time is
// exempt from the spread rule, as in the driver. A metric without a
// bound is shown and not judged.
func verdict(m e2eMetric, earlier, later []float64) string {
	if m.bound == 0 {
		return "ungated"
	}
	if m.name != "setup_s" && (spread(earlier) > m.bound || spread(later) > m.bound) {
		return "unresolved"
	}
	a, b := median(earlier), median(later)
	worse := b - a
	if m.higherBetter {
		worse = a - b
	}
	if a != 0 && worse/a > m.bound {
		return "worse"
	}
	return "ok"
}

// percent renders a bound; a metric without one shows a dash.
func percent(bound float64) string {
	if bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", bound*100)
}

// compareSets prints one row per workload and end-to-end metric and
// returns the exit code: 1 if any row is worse or more operations
// failed than before.
func compareSets(earlier, later runSet) int {
	code := 0
	fmt.Printf("%-13s %-13s %12s %12s %12s | %12s %12s %12s %6s  %s\n",
		"workload", "metric", "q1", "median", "q3", "q1", "median", "q3", "bound", "verdict")
	for _, w := range workloads() {
		for _, m := range endToEnd {
			a, b := earlier.values(w.name, m.name), later.values(w.name, m.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(m, a, b)
			if v == "worse" {
				code = 1
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			fmt.Printf("%-13s %-13s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g %6s  %s\n",
				w.name, m.name, aq1, amed, aq3, bq1, bmed, bq3, percent(m.bound), v)
		}
		fa, fb := earlier.failedShare(w.name), later.failedShare(w.name)
		v := "ok"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Printf("%-13s %-13s %12s %12.6g %12s | %12s %12.6g %12s %6s  %s\n",
			w.name, "error_share", "", fa, "", "", fb, "", "0", v)
	}
	return code
}

func readSetFile(path string) setFile {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		fatal("%s: %v", path, err)
	}
	if len(f.Sets) == 0 {
		fatal("%s holds no set", path)
	}
	return f
}

// compareFiles compares the first set of a with the last set of b, so
// naming one two-set file twice compares its two sets.
func compareFiles(a, b string) int {
	later := readSetFile(b).Sets
	return compareSets(readSetFile(a).Sets[0], later[len(later)-1])
}

// runsPerSet is how many runs of each workload make one set: the
// number the driver takes, and enough for quartiles.
const runsPerSet = 10

// runSets runs n sets and compares set 0 with each later one. Every run
// of a set has the same seed, so what separates two runs is the host and
// not the input. Runs share this process; each lap builds its system
// afresh, so a run inherits nothing from the one before it but the
// runtime's idle memory.
func runSets(n int, seed int64, seconds float64, out string) int {
	file := setFile{Conditions: currentConditions(seed, seconds), Runs: runsPerSet}
	for s := 0; s < n; s++ {
		var set runSet
		for _, w := range workloads() {
			for i := 0; i < runsPerSet; i++ {
				set.Results = append(set.Results, runWorkload(w, seed, seconds, os.Stderr))
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", s, w.name, i)
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fatal("%v", err)
		}
	}
	code := 0
	for s := 1; s < n; s++ {
		fmt.Printf("set 0 against set %d\n", s)
		if c := compareSets(file.Sets[0], file.Sets[s]); c != 0 {
			code = c
		}
	}
	if n == 1 {
		printSpreads(file.Sets[0])
	}
	return code
}

// printSpreads shows, for one set, each metric's median and its spread
// over the runs next to the bound it has to stay within.
func printSpreads(s runSet) {
	fmt.Printf("%-13s %-13s %12s %9s %6s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads() {
		for _, m := range endToEnd {
			v := s.values(w.name, m.name)
			if len(v) == 0 {
				continue
			}
			fmt.Printf("%-13s %-13s %12.6g %8.2f%% %6s\n", w.name, m.name, median(v), spread(v)*100, percent(m.bound))
		}
	}
}

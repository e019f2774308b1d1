package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the driver itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs every workload twice, alternating workloads so the
// two runs of one workload are minutes apart, and compares the second
// run of each against the first by the bounds in the spec: what the
// pipeline does to a change, done to the same commit.
func runSelfcheck(w io.Writer, specPath string, cfg runConfig) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	var passes [2]map[string]result
	for pass := range passes {
		passes[pass] = make(map[string]result)
		for _, name := range workloadNames {
			res, err := runUntraced(io.Discard, name, cfg)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s pass %d: correct=%v err=%v\n", name, pass+1, res.Correct, err)
				return 1
			}
			passes[pass][name] = res
		}
	}
	failed := 0
	fmt.Fprintf(w, "%-15s %-14s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			a, b := passes[0][name].Metrics[m.Name].Value, passes[1][name].Metrics[m.Name].Value
			// Either run may be the worse one; the gate is symmetric here.
			worse := worsening(a, b, m.Better)
			if back := worsening(b, a, m.Better); back > worse {
				worse = back
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS"
				failed++
			}
			fmt.Fprintf(w, "%-15s %-14s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "selfcheck: %d metric(s) differ between two runs of one commit by more than their bound\n", failed)
		return 1
	}
	fmt.Fprintln(w, "selfcheck: every metric repeats within its bound")
	return 0
}

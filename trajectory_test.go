package dimmunix_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// trajectoryRow is one line of a root BENCH_<workload>.json file: the
// JSON object bench/run.sh prints for one run, plus where it came from.
// A back-filled row was read off the medians CHANGES.md records for a
// PR; measured_in names the PR whose benchmark pairs produced it (its
// parent side or its change side). A row with a claim is a PR that
// claimed a gain on that metric.
type trajectoryRow struct {
	PR         int    `json:"pr"`
	SHA        string `json:"sha"`
	Box        int    `json:"box"`
	Backfilled bool   `json:"backfilled"`
	MeasuredIn int    `json:"measured_in"`
	Claim      string `json:"claim"`
	Metrics    map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestTrajectoryShape checks the committed benchmark trajectory: one
// file per BENCHMARK.json workload, every row carrying the six
// end-to-end metrics in their declared units, a PR number CHANGES.md
// knows, rows in PR order, and every claim row better on its claimed
// metric than the newest earlier row.
func TestTrajectoryShape(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	known := map[int]bool{}
	for _, m := range regexp.MustCompile(`PR (\d+)`).FindAllSubmatch(changes, -1) {
		n, _ := strconv.Atoi(string(m[1]))
		known[n] = true
	}
	sha := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	for _, w := range spec.Workloads {
		file := "BENCH_" + w.Name + ".json"
		var rows []trajectoryRow
		readJSON(t, file, &rows)
		if len(rows) == 0 {
			t.Errorf("%s: no rows", file)
		}
		for i, r := range rows {
			if !known[r.PR] || !known[r.MeasuredIn] || r.MeasuredIn < r.PR {
				t.Errorf("%s row %d: PR %d measured in PR %d: not a known PR pair", file, i, r.PR, r.MeasuredIn)
			}
			if !sha.MatchString(r.SHA) || r.Box < 1 {
				t.Errorf("%s row %d: sha %q, box %d", file, i, r.SHA, r.Box)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s row %d (PR %d): %s = %+v, want a positive value in %s", file, i, r.PR, m.Name, got, m.Unit)
				}
			}
			if i == 0 {
				if r.Claim != "" {
					t.Errorf("%s row 0 (PR %d) claims %s with no earlier row to beat", file, r.PR, r.Claim)
				}
				continue
			}
			prev := rows[i-1]
			if r.PR < prev.PR {
				t.Errorf("%s row %d: PR %d after PR %d", file, i, r.PR, prev.PR)
			}
			if r.Claim == "" {
				continue
			}
			better := ""
			for _, m := range spec.EndToEnd {
				if m.Name == r.Claim {
					better = m.Better
				}
			}
			now, was := r.Metrics[r.Claim].Value, prev.Metrics[r.Claim].Value
			if !(better == "higher" && now > was || better == "lower" && now < was) {
				t.Errorf("%s row %d: PR %d claims %s (%s is better) at %v against PR %d's %v",
					file, i, r.PR, r.Claim, better, now, prev.PR, was)
			}
		}
	}
}

func readJSON(t *testing.T, file string, v any) {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

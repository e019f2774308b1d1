package dimmunix_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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
// metric than the newest earlier row. It logs each workload's chained
// ops_per_s ratio (chainedRatio), the trajectory that absolute rows
// from different boxes and days cannot give.
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
		if chain, pairs, since := chainedRatio(rows, "ops_per_s"); pairs > 0 {
			t.Logf("%s: ops_per_s change ÷ parent, chained over %d pairs since PR %d: %.3f×", w.Name, pairs, since, chain)
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

// chainedRatio multiplies metric's change ÷ parent ratio over every
// same-session pair in rows — a row measured in the same PR as the row
// before it, for a later PR — and returns the product, the number of
// pairs and the PR of the first pair's change side.
func chainedRatio(rows []trajectoryRow, metric string) (chain float64, pairs, since int) {
	chain = 1
	for i := 1; i < len(rows); i++ {
		parent, change := rows[i-1], rows[i]
		if parent.MeasuredIn != change.MeasuredIn || parent.PR >= change.PR {
			continue
		}
		if pairs == 0 {
			since = change.PR
		}
		chain *= change.Metrics[metric].Value / parent.Metrics[metric].Value
		pairs++
	}
	return chain, pairs, since
}

// floorShare is the share of the newest measured row's ops_per_s that a
// smoke run must reach. Half leaves room for a slower box than the one
// that measured the row.
const floorShare = 0.5

// TestTrajectoryFloor checks a benchmark smoke run against the committed
// trajectory: the last JSON line `bash bench/run.sh --workload NAME
// --rounds 2 | tee .bench_build/NAME.json` left there must reach
// floorShare of the ops_per_s of the newest row of BENCH_NAME.json that
// was measured, not back-filled. A workload with no such file, or no
// measured row, is skipped, so a plain `go test ./...` skips them all.
func TestTrajectoryFloor(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := os.ReadFile(filepath.Join(".bench_build", w.Name+".json"))
			if errors.Is(err, fs.ErrNotExist) {
				t.Skipf("no smoke run of %s in .bench_build", w.Name)
			}
			if err != nil {
				t.Fatal(err)
			}
			var rows []trajectoryRow
			readJSON(t, "BENCH_"+w.Name+".json", &rows)
			var floor *trajectoryRow
			for i := range rows {
				if !rows[i].Backfilled {
					floor = &rows[i]
				}
			}
			if floor == nil {
				t.Skipf("BENCH_%s.json has no measured row", w.Name)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var run struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil {
				t.Fatalf(".bench_build/%s.json: last line: %v", w.Name, err)
			}
			got, want := run.Metrics["ops_per_s"].Value, floorShare*floor.Metrics["ops_per_s"].Value
			if got < want {
				t.Errorf("%s: ops_per_s %.4g is below %.2g of PR %d's %.4g (%.4g)",
					w.Name, got, floorShare, floor.PR, floor.Metrics["ops_per_s"].Value, want)
			}
		})
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

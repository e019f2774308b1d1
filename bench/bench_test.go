package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantOps is each workload's ops per round, whatever the seed.
var wantOps = map[string]int{"phone-sync": syncThreads * syncOps, "hub-ingest": 2 * ingestSigs,
	"hub-recover": 1, "fleet-immunity": fleetOps}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTrial runs the driver in trial mode and returns its last line,
// decoded, and everything it printed before.
func runTrial(t *testing.T, args ...string) (result, string) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res, strings.Join(lines[:len(lines)-1], "\n")
}

func specNames(ms []specMetric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []specMetric, positive bool) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if wantNames := specNames(want); strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Errorf("%s: printed metrics\n  %v\nBENCHMARK.json lists\n  %v", what, names, wantNames)
	}
	units := make(map[string]string)
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside the contract's alphabet", what, name)
		}
		if m.Unit == "" || m.Unit != units[name] {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, units[name])
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (positive && m.Value == 0) {
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
	}
}

// Every workload, two measured rounds each: the printed end-to-end
// metric set is exactly BENCHMARK.json's, and every round's checks ran
// (a round that fails a check makes the driver exit non-zero).
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the driver has %v", listed, workloadNames)
	}
	for _, name := range workloadNames {
		res, _ := runTrial(t, "--workload", name, "--rounds", "2", "--trace", "0")
		if !res.Correct || res.Failed != 0 || res.Attempted != 2*wantOps[name] {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want true %d 0", name, res.Correct, res.Attempted, res.Failed, 2*wantOps[name])
		}
		checkMetrics(t, name, res.Metrics, spec.EndToEnd, true)
	}
}

// The traced run of one workload: the per-layer metric set is exactly
// BENCHMARK.json's, the span file is written, and phone-sync's own
// spans stay out of the fleet tier's layers.
func TestSmokeTracedRun(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	res, report := runTrial(t, "--workload", "phone-sync", "--rounds", "1", "--trace", "1", "--trace-out", out)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced phone-sync: correct=%v failed=%d", res.Correct, res.Failed)
	}
	checkMetrics(t, "traced phone-sync", res.Metrics, spec.PerLayer, false)
	for _, want := range []string{"self time by layer", "explained"} {
		if !strings.Contains(report, want) {
			t.Errorf("traced report lacks %q:\n%s", want, report)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.LayerCalls) == 0 {
		t.Fatalf("trace file has %d workload spans and %d layer-call spans", len(tf.Spans), len(tf.LayerCalls))
	}
	for _, s := range tf.Spans {
		if s.Layer != layerVM {
			t.Fatalf("phone-sync recorded a %s span (%s); only vm does work there", s.Layer, s.Name)
		}
	}
}

// A second seed passes every workload's checks with the same op counts.
func TestSecondSeedSameOpCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload again")
	}
	for _, name := range workloadNames {
		res, _ := runTrial(t, "--workload", name, "--rounds", "1", "--trace", "0", "--seed", "424242")
		if !res.Correct || res.Attempted != wantOps[name] || res.Failed != 0 {
			t.Errorf("%s: seed 424242 correct=%v attempted=%d failed=%d, want true %d 0", name, res.Correct, res.Attempted, res.Failed, wantOps[name])
		}
	}
}

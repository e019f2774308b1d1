package metrics

import (
	"strings"
	"testing"
	"time"
)

// populateRegistry exercises every instrument kind the registry renders:
// counters, gauges, float gauges, labeled vecs (including values that
// need escaping), histograms, pool admission series, build info, and the
// raw-labeled rate gauges.
func populateRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("immunity_hub_reports_total", "Reports.").Add(42)
	reg.Gauge("immunity_hub_devices", "Devices.").Set(7)
	reg.FloatGauge("immunity_hub_uptime_seconds", "Uptime.").Set(12.5)
	v := reg.CounterVec("immunity_cluster_peer_forwards_total", "Forwards.", "peer")
	v.With("hub1").Add(3)
	v.With(`we"ird\pe er` + "\n").Add(1) // escaping must round-trip the lint grammar
	h := reg.Histogram("immunity_hub_report_seconds", "Latency.", DurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.0001)
	}
	h.Observe(1e9) // +Inf bucket
	p := NewPool(reg, "immunity_hub_admission", 0)
	p.Resize(1)
	if release, ok := p.Acquire(); ok {
		if _, ok := p.Acquire(); ok {
			t.Fatal("second acquire should shed")
		}
		release()
	}
	reg.Info("immunity_build_info", "Build metadata.",
		[2]string{"version", "test"}, [2]string{"wire_min", "1"}, [2]string{"wire_max", "3"})

	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{10 * time.Second, time.Minute}})
	r.TrackCounter("immunity_hub_reports_total")
	r.TrackCounter("immunity_cluster_peer_forwards_total")
	r.TrackHistogram("immunity_hub_report_seconds")
	e := NewEvaluator(reg, r, []SLO{
		{Name: "report-latency", QuantileOf: "immunity_hub_report_seconds", Target: 0.025},
		{Name: "shed-zero", RateOf: "immunity_hub_admission_shed_total", Target: 0},
	})
	if e == nil {
		t.Fatal("evaluator should construct")
	}
	r.Tick()
	r.Tick()
	return reg
}

func TestLintCleanOnPopulatedRegistry(t *testing.T) {
	reg := populateRegistry(t)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("renderer emitted a non-conforming exposition:\n%s\n---\n%s",
			strings.Join(problems, "\n"), b.String())
	}
}

func TestLintFlagsCorruptedExpositions(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of at least one problem
	}{
		{
			"help after type",
			"# TYPE a counter\n# HELP a help\na 1\n",
			"HELP for a after its TYPE",
		},
		{
			"second help",
			"# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n",
			"second HELP",
		},
		{
			"sample before type",
			"a 1\n",
			"before any TYPE",
		},
		{
			"unknown type",
			"# TYPE a enum\na 1\n",
			`unknown TYPE "enum"`,
		},
		{
			"reopened family",
			"# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE a counter\na 2\n",
			"reopened",
		},
		{
			"nonmonotone le",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"not strictly increasing",
		},
		{
			"decreasing cumulative counts",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"cumulative count decreased",
		},
		{
			"ladder missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\nh_sum 1\nh_count 2\n",
			"does not end at +Inf",
		},
		{
			"count disagrees with +Inf bucket",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
			"_count 4 != +Inf bucket 5",
		},
		{
			"missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			"missing _sum",
		},
		{
			"bad escape",
			"# TYPE a counter\na{x=\"v\\t\"} 1\n",
			`illegal escape \t`,
		},
		{
			"duplicate label",
			"# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
			`duplicate label "x"`,
		},
		{
			"unquoted label value",
			"# TYPE a counter\na{x=v} 1\n",
			"not quoted",
		},
		{
			"non-float value",
			"# TYPE a counter\na pizza\n",
			"not a float",
		},
		{
			"illegal metric name",
			"# TYPE 9a counter\n9a 1\n",
			"illegal metric name",
		},
		{
			"type but no samples",
			"# TYPE a counter\n# TYPE b counter\nb 1\n",
			"TYPE but no samples",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := Lint(strings.NewReader(tc.text))
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("want a problem containing %q, got %v", tc.want, problems)
		})
	}
}

func TestLintAcceptsTimestampsAndFreeComments(t *testing.T) {
	text := "# a free comment\n# HELP a help text with  spaces\n# TYPE a counter\na{x=\"ok\"} 1 1712000000\n"
	if problems := Lint(strings.NewReader(text)); len(problems) != 0 {
		t.Fatalf("valid exposition flagged: %v", problems)
	}
}

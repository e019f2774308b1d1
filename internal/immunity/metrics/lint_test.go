package metrics

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// populateRegistry registers the instrument kinds cmd/immunityd's
// startDaemon puts on its one page: build info, the uptime float gauge,
// the admission pool's counters and gauges, a labeled vec (with a value
// that needs escaping) and a histogram with an observation in +Inf.
func populateRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.Info("immunity_build_info", "Build metadata.",
		[2]string{"version", "test"}, [2]string{"wire_min", "1"}, [2]string{"wire_max", "3"})
	reg.FloatGauge("immunity_hub_uptime_seconds", "Uptime.").Set(12.5)
	reg.Counter("immunity_hub_admission_shed_total", "Shed.").Inc()
	reg.Gauge("immunity_hub_admission_capacity", "Pool size.").Set(8)
	v := reg.CounterVec("immunity_cluster_peer_forwards_total", "Forwards.", "peer")
	v.With("hub1").Add(3)
	v.With(`we"ird\pe er` + "\n").Add(1) // escaping must round-trip the lint grammar
	h := reg.Histogram("immunity_hub_report_seconds", "Latency.", DurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	h.Observe(1e9) // +Inf bucket
	return reg
}

func TestLintCleanOnPopulatedRegistry(t *testing.T) {
	reg := populateRegistry(t)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		`immunity_build_info{version="test"`,
		"immunity_hub_uptime_seconds 12.5",
		"immunity_hub_admission_shed_total 1",
		"immunity_hub_admission_capacity 8",
		`immunity_cluster_peer_forwards_total{peer="hub1"} 3`,
		`immunity_hub_report_seconds_bucket{le="+Inf"} 101`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("render missing %q:\n%s", want, page)
		}
	}
	if problems := Lint(strings.NewReader(page)); len(problems) != 0 {
		t.Fatalf("renderer emitted a non-conforming exposition:\n%s\n---\n%s",
			strings.Join(problems, "\n"), page)
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

// Lint checks a Prometheus text-format (0.0.4) exposition for the
// structural rules scrapers depend on and returns one message per
// violation (empty means clean). It is the renderer's conformance
// oracle: TestLintCleanOnPopulatedRegistry feeds it a WritePrometheus
// render of every family cmd/immunityd registers, and the daemon serves
// /metrics through the same writer.
//
// Checked:
//   - line grammar: # HELP / # TYPE comments and samples parse; metric
//     and label names are legal; label values use only the \\, \", \n
//     escapes; sample values parse as floats.
//   - family structure: HELP at most once and before TYPE, TYPE before
//     any sample, a known TYPE keyword, and all of a family's lines
//     contiguous (no family reopened later in the exposition).
//   - histograms: every series has its _bucket ladder with numeric,
//     strictly increasing le values ending at +Inf, non-decreasing
//     cumulative counts, and _sum/_count present with _count equal to
//     the +Inf bucket.
func Lint(r io.Reader) []string {
	l := &linter{families: make(map[string]*lintFamily)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		l.line(line, sc.Text())
	}
	if err := sc.Err(); err != nil {
		l.errf(line, "read: %v", err)
	}
	l.closeFamily()
	return l.problems
}

var (
	lintMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	lintLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type lintFamily struct {
	typ      string
	helpSeen bool
	typeSeen bool
	samples  int
	closed   bool
}

// lintHistSeries accumulates one histogram series (label set minus le).
type lintHistSeries struct {
	firstLine int
	les       []float64
	counts    []float64
	sum       bool
	count     *float64
}

type linter struct {
	problems []string
	families map[string]*lintFamily
	current  string
	// histogram bookkeeping for the current family
	histSeries map[string]*lintHistSeries
	histOrder  []string
}

func (l *linter) errf(line int, format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (l *linter) line(n int, s string) {
	if strings.TrimSpace(s) == "" {
		return
	}
	if strings.HasPrefix(s, "#") {
		fields := strings.SplitN(s, " ", 4)
		if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
			l.meta(n, fields[1], fields[2], s)
			return
		}
		return // free comment: legal, ignored
	}
	l.sample(n, s)
}

func (l *linter) meta(n int, kind, name, full string) {
	if !lintMetricName.MatchString(name) {
		l.errf(n, "illegal metric name %q in %s", name, kind)
		return
	}
	if name != l.current {
		l.closeFamily()
		l.current = name
	}
	f := l.families[name]
	if f == nil {
		f = &lintFamily{}
		l.families[name] = f
	}
	if f.closed {
		l.errf(n, "family %s reopened: its lines must be contiguous", name)
		f.closed = false
	}
	switch kind {
	case "HELP":
		if f.helpSeen {
			l.errf(n, "second HELP for %s", name)
		}
		if f.typeSeen {
			l.errf(n, "HELP for %s after its TYPE", name)
		}
		if f.samples > 0 {
			l.errf(n, "HELP for %s after its samples", name)
		}
		f.helpSeen = true
	case "TYPE":
		typ := strings.TrimSpace(strings.TrimPrefix(full, "# TYPE "+name))
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			l.errf(n, "unknown TYPE %q for %s", typ, name)
		}
		if f.typeSeen {
			l.errf(n, "second TYPE for %s", name)
		}
		if f.samples > 0 {
			l.errf(n, "TYPE for %s after its samples", name)
		}
		f.typeSeen = true
		f.typ = typ
	}
}

func (l *linter) sample(n int, s string) {
	name, labels, value, ok := parseSampleLine(s, func(format string, args ...any) {
		l.errf(n, format, args...)
	})
	if !ok {
		return
	}
	if !lintMetricName.MatchString(name) {
		l.errf(n, "illegal metric name %q", name)
		return
	}
	fam := l.sampleFamily(name)
	if fam == "" {
		l.errf(n, "sample %s before any TYPE", name)
		return
	}
	f := l.families[fam]
	if f.closed {
		l.errf(n, "sample %s after family %s was closed: family lines must be contiguous", name, fam)
	}
	f.samples++
	if f.typ == "histogram" {
		l.histSample(n, fam, name, labels, value)
	}
}

// sampleFamily resolves which family a sample name belongs to: the
// current family directly, or via the histogram/summary suffixes.
func (l *linter) sampleFamily(name string) string {
	cur := l.current
	if cur == "" {
		return ""
	}
	if name == cur {
		return cur
	}
	f := l.families[cur]
	if f != nil && (f.typ == "histogram" || f.typ == "summary") {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if name == cur+suf {
				return cur
			}
		}
	}
	return ""
}

func (l *linter) histSample(n int, fam, name string, labels [][2]string, value string) {
	if l.histSeries == nil {
		l.histSeries = make(map[string]*lintHistSeries)
	}
	// The series identity is the label set minus le, order-insensitive.
	var le string
	var rest [][2]string
	for _, kv := range labels {
		if kv[0] == "le" {
			le = kv[1]
			continue
		}
		rest = append(rest, kv)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i][0] < rest[j][0] })
	key := renderLabels(rest)
	sr := l.histSeries[key]
	if sr == nil {
		sr = &lintHistSeries{firstLine: n}
		l.histSeries[key] = sr
		l.histOrder = append(l.histOrder, key)
	}
	v, verr := strconv.ParseFloat(value, 64)
	switch name {
	case fam + "_bucket":
		if le == "" {
			l.errf(n, "%s_bucket without le label", fam)
			return
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			l.errf(n, "%s_bucket le=%q is not numeric", fam, le)
			return
		}
		if k := len(sr.les); k > 0 && bound <= sr.les[k-1] {
			l.errf(n, "%s_bucket le=%q not strictly increasing", fam, le)
		}
		if verr == nil {
			if k := len(sr.counts); k > 0 && v < sr.counts[k-1] {
				l.errf(n, "%s_bucket%s cumulative count decreased", fam, key)
			}
			sr.counts = append(sr.counts, v)
		}
		sr.les = append(sr.les, bound)
	case fam + "_sum":
		sr.sum = true
	case fam + "_count":
		if verr == nil {
			sr.count = &v
		}
	}
}

// closeFamily runs the end-of-family checks (histogram ladders) and
// marks the family contiguity-closed.
func (l *linter) closeFamily() {
	if l.current == "" {
		return
	}
	f := l.families[l.current]
	if f != nil {
		f.closed = true
		if f.typeSeen && f.samples == 0 {
			l.problems = append(l.problems, fmt.Sprintf("family %s has TYPE but no samples", l.current))
		}
		if f.typ == "histogram" {
			for _, key := range l.histOrder {
				sr := l.histSeries[key]
				at := func(format string, args ...any) {
					l.problems = append(l.problems,
						fmt.Sprintf("line %d: %s", sr.firstLine, fmt.Sprintf(format, args...)))
				}
				if len(sr.les) == 0 {
					at("histogram %s%s has no _bucket samples", l.current, key)
					continue
				}
				last := sr.les[len(sr.les)-1]
				if last != posInf() {
					at("histogram %s%s bucket ladder does not end at +Inf", l.current, key)
				}
				if !sr.sum {
					at("histogram %s%s missing _sum", l.current, key)
				}
				switch {
				case sr.count == nil:
					at("histogram %s%s missing _count", l.current, key)
				case len(sr.counts) > 0 && *sr.count != sr.counts[len(sr.counts)-1]:
					at("histogram %s%s _count %v != +Inf bucket %v",
						l.current, key, *sr.count, sr.counts[len(sr.counts)-1])
				}
			}
		}
	}
	l.current = ""
	l.histSeries = nil
	l.histOrder = nil
}

func posInf() float64 {
	inf, _ := strconv.ParseFloat("+Inf", 64)
	return inf
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`, reporting
// grammar violations through errf. ok is false when the line is too
// broken to extract parts from.
func parseSampleLine(s string, errf func(string, ...any)) (name string, labels [][2]string, value string, ok bool) {
	i := strings.IndexAny(s, "{ ")
	if i < 0 {
		errf("malformed sample %q", s)
		return "", nil, "", false
	}
	name = s[:i]
	rest := s[i:]
	if rest[0] == '{' {
		var perr bool
		labels, rest, perr = parseLabelBlock(rest, errf)
		if perr {
			return "", nil, "", false
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		errf("sample %s: want `value [timestamp]`, got %q", name, strings.TrimSpace(rest))
		return "", nil, "", false
	}
	value = fields[0]
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		errf("sample %s: value %q is not a float", name, value)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			errf("sample %s: timestamp %q is not an integer", name, fields[1])
		}
	}
	return name, labels, value, true
}

// parseLabelBlock parses a {k="v",...} block, validating label names,
// escapes, and duplicates. It returns the remainder after '}'.
func parseLabelBlock(s string, errf func(string, ...any)) (labels [][2]string, rest string, broken bool) {
	seen := make(map[string]bool)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], false
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			errf("unterminated label block %q", s)
			return nil, "", true
		}
		key := s[i:j]
		if !lintLabelName.MatchString(key) {
			errf("illegal label name %q", key)
		}
		if seen[key] {
			errf("duplicate label %q", key)
		}
		seen[key] = true
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			errf("label %s: value is not quoted", key)
			return nil, "", true
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				errf("label %s: unterminated value", key)
				return nil, "", true
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					errf("label %s: dangling backslash", key)
					return nil, "", true
				}
				esc := s[i+1]
				switch esc {
				case '\\', '"', 'n':
				default:
					errf("label %s: illegal escape \\%c", key, esc)
				}
				val.WriteByte(c)
				val.WriteByte(esc)
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, [2]string{key, val.String()})
	}
}

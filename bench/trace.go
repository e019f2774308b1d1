package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans wrap only calls made from this
// package — the op boundaries visible from outside the program and the
// isolated layer calls — so tracing needs no edit to any layer. They
// stay in memory until the run ends.

// Layers a span can be charged to: the package whose public function
// the span wraps, or layerBench for the driver's own op envelope.
const (
	layerBench    = "bench"
	layerCore     = "core"
	layerVM       = "vm"
	layerImmunity = "immunity"
	layerWire     = "wire"
	layerCluster  = "cluster"
	layerAuth     = "auth"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is the id of the span that caused this one
// (0 for a root); spans of one op share Op (0 for set-up work).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so workloads
// call it unconditionally and the untraced run pays one nil check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp hands out the next op id.
func (tr *tracer) newOp() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	return tr.ops
}

// add records a finished span and returns its id.
func (tr *tracer) add(parent, op int, name, layer string, start, end time.Time) int {
	if tr == nil {
		return 0
	}
	if end.Before(start) {
		end = start
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	return id
}

// time runs fn inside a span.
func (tr *tracer) time(parent, op int, name, layer string, fn func()) {
	start := time.Now()
	fn()
	tr.add(parent, op, name, layer, start, time.Now())
}

func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// layerTime is one layer's aggregate over a set of spans.
type layerTime struct {
	Layer  string
	Spans  int
	SelfNS int64
}

// selfTimes charges every span's self time — its duration minus the
// part of it that its child spans cover — to the span's layer.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		lt.Spans++
		lt.SelfNS += (s.End - s.Start) - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < cursor {
			start = cursor
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// traceFile is the on-disk form of one traced run: the workload's own
// spans, and apart from them the spans of the isolated layer calls,
// which are the same whatever the workload.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Spans      []span `json:"spans"`
	LayerCalls []span `json:"layer_calls"`
}

func writeTrace(path, workload string, seed int64, spans, layerCalls []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans, LayerCalls: layerCalls})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

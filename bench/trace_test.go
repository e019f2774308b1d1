package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.newOp()
	root := tr.add(0, op, "op", layerBench, at(0), at(100))
	tr.add(root, op, "a", layerImmunity, at(10), at(40))
	// Overlaps a by 10 ms and runs 10 ms past the parent: only 30..40 is
	// already covered, and only up to 100 counts.
	b := tr.add(root, op, "b", layerCluster, at(30), at(110))
	tr.add(b, op, "b1", layerCore, at(50), at(60))
	tr.add(0, tr.newOp(), "other", layerImmunity, at(200), at(205))

	got := make(map[string]layerTime)
	for _, lt := range selfTimes(tr.snapshot()) {
		got[lt.Layer] = lt
	}
	want := map[string]layerTime{
		layerBench:    {layerBench, 1, int64(10 * time.Millisecond)},    // 100 − cover(10..100)
		layerImmunity: {layerImmunity, 2, int64(35 * time.Millisecond)}, // 30 + 5
		layerCluster:  {layerCluster, 1, int64(70 * time.Millisecond)},  // 80 − 10
		layerCore:     {layerCore, 1, int64(10 * time.Millisecond)},
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s: got %+v, want %+v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %d of them", got, len(want))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, tr.newOp(), "x", layerCore, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
	ran := false
	tr.time(0, 0, "x", layerCore, func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Errorf("nil tracer: ran=%v spans=%v", ran, tr.snapshot())
	}
}

func TestTraceFileRoundTrips(t *testing.T) {
	tr := newTracer()
	tr.add(0, 1, "send→confirm", layerImmunity, tr.t0, tr.t0.Add(time.Millisecond))
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeTrace(path, "hub-ingest", 7, tr.snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "hub-ingest" || tf.Seed != 7 || len(tf.Spans) != 1 || tf.Spans[0].End-tf.Spans[0].Start != int64(time.Millisecond) {
		t.Errorf("trace file read back as %+v", tf)
	}
}

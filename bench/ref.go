package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The reference kernel. The box this benchmark is tuned on changes speed
// by a quarter for minutes at a time (a fixed ALU loop reads 100 ms in
// one mode and 126 ms in the other; a hub-recover cycle drifts between
// 200 ms and 290 ms), which no statistic over one run's rounds can
// remove: every round of the run is slow together. So every round is
// bracketed by a fixed piece of work that no change to this repository
// can speed up or slow down — standard-library JSON, map, sort and
// allocator work, the kind of work the hubs do — and the round's times
// are expressed in reference time: multiplied by how fast the box ran
// the kernel around that round, relative to refNominal. A round measured
// while the box is a quarter slow reads as it would have at nominal
// speed; a change that makes the program a tenth faster still reads a
// tenth faster. The kernel tracks the program only when both are bound
// by one processor, which is why GOMAXPROCS is pinned to 1 (see main).

// refNominal is the kernel's duration at the speed the committed numbers
// refer to: its median on the tuning box in its usual mode.
const refNominal = 10 * time.Millisecond

type refRecord struct {
	Key     string   `json:"key"`
	Seq     int      `json:"seq"`
	Devices []string `json:"devices"`
}

func refRecords(n int) []refRecord {
	recs := make([]refRecord, n)
	for i := range recs {
		recs[i] = refRecord{Key: fmt.Sprintf("deadlock{android.os.Looper.next:%d|android.os.Handler.dispatchMessage:%d}", 7*i, 11*i),
			Seq: i, Devices: []string{"device-0", "device-1", "device-2"}}
	}
	return recs
}

// Two working sets: one that stays in cache and one that does not.
var refSmall, refLarge = refRecords(200), refRecords(3000)

var refSink int

func refPass(recs []refRecord) {
	b, _ := json.Marshal(recs) // plain data: cannot fail
	var out []refRecord
	_ = json.Unmarshal(b, &out)
	index := make(map[string]int, len(out))
	for _, r := range out {
		index[r.Key] = r.Seq
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key > out[j].Key })
	refSink += len(index) + out[0].Seq
}

// refKernel runs the kernel once and returns how long the box took. The
// collector runs before and after it and not during it: a collection
// landing inside some kernel runs and not others made single timings
// differ by a tenth, and this way every round also starts on a freshly
// collected heap.
func refKernel() time.Duration {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	start := time.Now()
	for i := 0; i < 6; i++ {
		refPass(refSmall)
	}
	refPass(refLarge)
	took := time.Since(start)
	debug.SetGCPercent(percent)
	runtime.GC()
	return took
}

// boxSpeed turns kernel timings into the factor measured times are
// multiplied by: below 1 when the box ran slower than nominal.
func boxSpeed(kernels ...time.Duration) float64 {
	var total time.Duration
	for _, k := range kernels {
		total += k
	}
	return float64(refNominal) * float64(len(kernels)) / float64(total)
}

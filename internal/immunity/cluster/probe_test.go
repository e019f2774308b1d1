package cluster

import (
	"testing"
	"time"
)

// TestResolveProbe pins the one derivation of the prober and lease
// timings from FailoverAfter: the benchmark's 3-hub cluster, the 50 ms
// and 150 ms budgets of the chaos and partition tests, the floors a tiny
// budget hits, and the lease clamp.
func TestResolveProbe(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, tc := range []struct {
		name          string
		failoverAfter time.Duration
		leaseTTL      time.Duration
		want          probeConfig
	}{
		{"off", 0, 600 * time.Millisecond, probeConfig{}},
		{"bench 8s, lease 600ms", 8 * time.Second, 600 * time.Millisecond,
			probeConfig{true, 2 * time.Second, time.Second, 4 * time.Second, 2, 600 * time.Millisecond}},
		{"test budget 50ms", 50 * time.Millisecond, 0,
			probeConfig{true, ms(12.5), ms(6.25), 25 * time.Millisecond, 2, ms(31.25)}},
		{"default budget 150ms", 150 * time.Millisecond, 0,
			probeConfig{true, ms(37.5), ms(18.75), 75 * time.Millisecond, 2, ms(93.75)}},
		{"floors at 4ms", 4 * time.Millisecond, 0,
			probeConfig{true, 2 * time.Millisecond, time.Millisecond, 2 * time.Millisecond, 2, 3 * time.Millisecond}},
		{"lease clamped to timeout+suspect", time.Second, 2 * time.Second,
			probeConfig{true, 250 * time.Millisecond, 125 * time.Millisecond, 500 * time.Millisecond, 2, 625 * time.Millisecond}},
	} {
		if got := resolveProbe(Config{FailoverAfter: tc.failoverAfter, LeaseTTL: tc.leaseTTL}); got != tc.want {
			t.Errorf("%s: resolveProbe = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

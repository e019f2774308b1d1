package metrics

import (
	"sync/atomic"
	"testing"
	"time"
)

// fixedClockMeter builds a meter with hand-placed samples.
func fixedClockMeter(samples []Sample) *Meter {
	m := NewMeter(func() uint64 { return 0 })
	m.samples = samples
	return m
}

func at(sec int) time.Time {
	return time.Date(2026, 6, 10, 0, 0, sec, 0, time.UTC)
}

func TestMeterRate(t *testing.T) {
	m := fixedClockMeter([]Sample{
		{At: at(0), Count: 0},
		{At: at(10), Count: 1000},
	})
	if got := m.Rate(); got != 100 {
		t.Errorf("Rate = %v, want 100", got)
	}
}

func TestMeterRateDegenerate(t *testing.T) {
	if got := fixedClockMeter(nil).Rate(); got != 0 {
		t.Errorf("empty Rate = %v, want 0", got)
	}
	one := fixedClockMeter([]Sample{{At: at(0), Count: 5}})
	if got := one.Rate(); got != 0 {
		t.Errorf("single-sample Rate = %v, want 0", got)
	}
	same := fixedClockMeter([]Sample{{At: at(0), Count: 5}, {At: at(0), Count: 9}})
	if got := same.Rate(); got != 0 {
		t.Errorf("zero-duration Rate = %v, want 0", got)
	}
}

func TestMeterPeakWindowSelectsBusiestInterval(t *testing.T) {
	// 1-second samples: slow (10/s), then a 3-second burst (100/s), then
	// slow again. The peak 3s window must find the burst.
	samples := []Sample{
		{At: at(0), Count: 0},
		{At: at(1), Count: 10},
		{At: at(2), Count: 20},
		{At: at(3), Count: 120},
		{At: at(4), Count: 220},
		{At: at(5), Count: 320},
		{At: at(6), Count: 330},
	}
	m := fixedClockMeter(samples)
	rate, start, end, ok := m.PeakWindow(3 * time.Second)
	if !ok {
		t.Fatal("PeakWindow found no window")
	}
	if rate != 100 {
		t.Errorf("peak rate = %v, want 100", rate)
	}
	if !start.Equal(at(2)) || !end.Equal(at(5)) {
		t.Errorf("peak window = [%v, %v], want [2s, 5s]", start, end)
	}
}

func TestMeterPeakWindowTooShort(t *testing.T) {
	m := fixedClockMeter([]Sample{
		{At: at(0), Count: 0},
		{At: at(1), Count: 10},
	})
	if _, _, _, ok := m.PeakWindow(30 * time.Second); ok {
		t.Error("PeakWindow must report ok=false when no window is wide enough")
	}
}

func TestMeterBackgroundSampling(t *testing.T) {
	var counter atomic.Uint64
	m := NewMeter(counter.Load)
	m.Start(5 * time.Millisecond)
	for i := 0; i < 50; i++ {
		counter.Add(10)
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	if len(m.Samples()) < 3 {
		t.Fatalf("collected %d samples, want >= 3", len(m.Samples()))
	}
	if r := m.Rate(); r <= 0 {
		t.Errorf("Rate = %v, want > 0", r)
	}
}

func TestFormatRate(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{309, "309"},
		{999, "999"},
		{1952.4, "1,952"},
		{12345, "12,345"},
		{1143, "1,143"},
		{999.6, "1,000"},
		{0, "0"},
	}
	for _, tc := range tests {
		if got := FormatRate(tc.in); got != tc.want {
			t.Errorf("FormatRate(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestAppMemoryOverhead(t *testing.T) {
	a := AppMemory{Name: "Email", VanillaMB: 15.0, CoreBytes: 400 * 1024, VMBytes: 400 * 1024}
	want := 15.0 + 800.0/1024
	if got := a.DimmunixMB(); got < want-0.01 || got > want+0.01 {
		t.Errorf("DimmunixMB = %v, want ~%v", got, want)
	}
	if pct := a.OverheadPct(); pct < 5.0 || pct > 5.5 {
		t.Errorf("OverheadPct = %v, want ~5.2", pct)
	}
	if (AppMemory{}).OverheadPct() != 0 {
		t.Error("zero vanilla footprint must yield 0 overhead")
	}
}

func TestPlatformMemoryAggregates(t *testing.T) {
	p := PlatformMemory{
		DeviceMB: 512,
		BaseOSMB: 100,
		Apps: []AppMemory{
			{Name: "a", VanillaMB: 50, CoreBytes: bytesPerMB},      // 51 with dimmunix
			{Name: "b", VanillaMB: 100, CoreBytes: 3 * bytesPerMB}, // 103
		},
	}
	if got := p.VanillaUsedMB(); got != 250 {
		t.Errorf("VanillaUsedMB = %v, want 250", got)
	}
	if got := p.DimmunixUsedMB(); got != 254 {
		t.Errorf("DimmunixUsedMB = %v, want 254", got)
	}
	if got := p.VanillaPct(); got < 48.8 || got > 48.9 {
		t.Errorf("VanillaPct = %v", got)
	}
	// Overall overhead: (154-150)/150 = 2.67%.
	if got := p.OverallOverheadPct(); got < 2.6 || got > 2.7 {
		t.Errorf("OverallOverheadPct = %v, want ~2.67", got)
	}
}

func TestPowerAttributionArithmetic(t *testing.T) {
	pm := DefaultPowerModel()
	wall := 10 * time.Minute
	// ~37% CPU busy puts apps+os near the paper's 14%.
	busy := time.Duration(float64(wall) * 0.37)
	rep := pm.Attribute(wall, busy)
	if rep.AppsAndOSPct < 13 || rep.AppsAndOSPct > 15 {
		t.Errorf("apps+os share = %.1f%%, want ~14%%", rep.AppsAndOSPct)
	}
	// A 5% CPU overhead must not move the rounded share.
	repDim := pm.Attribute(wall, time.Duration(float64(busy)*1.05))
	if int(rep.AppsAndOSPct+0.5) != int(repDim.AppsAndOSPct+0.5) {
		t.Errorf("share moved: vanilla %.1f%% vs dimmunix %.1f%%", rep.AppsAndOSPct, repDim.AppsAndOSPct)
	}
	// Components must sum to ~100%.
	var sum float64
	for _, c := range rep.Components {
		sum += c.SharePct
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("component shares sum to %.2f%%", sum)
	}
	// Display dominates on this device.
	if rep.Components[0].Name != "display" {
		t.Errorf("largest component = %s, want display", rep.Components[0].Name)
	}
}

func TestPowerBusyCappedByWall(t *testing.T) {
	pm := DefaultPowerModel()
	rep := pm.Attribute(time.Second, 10*time.Second)
	capped := pm.Attribute(time.Second, time.Second)
	if rep.AppsAndOSPct != capped.AppsAndOSPct {
		t.Error("busy time must be capped at wall time (single core)")
	}
}

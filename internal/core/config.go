package core

import "fmt"

// Config carries the tunables of a Core. The zero value is not valid; use
// DefaultConfig or New with options.
//
// Detection, avoidance and the reaction to a deadlock are not tunables:
// Request always detects, and it always avoids unless the request completes
// a cycle, in which case the deadlock manifests with its signature saved
// (a Dalvik monitorenter cannot fail). Starvation handling is not one
// either: a yield that would close a waits-for cycle, or a later edge that
// closes one, always records a starvation signature and force-resumes the
// yielder (starvation.go), the paper's one rule. Nothing in a Core reads
// the clock or runs in the background, so every decision is a function of
// the call schedule.
type Config struct {
	// OuterDepth is the number of frames kept in outer call stacks.
	// The paper uses 1 (§3.2); deeper stacks lower the false-positive rate
	// at a higher capture cost (see the custom-wrapper example).
	OuterDepth int
	// QueueReuse enables the §4 two-queue entry recycling. Disabling it is
	// ablation A2.
	QueueReuse bool
	// Serial disables the sharded fast path, forcing every interception
	// through the paper's single global engine lock — the serial reference
	// engine used for equivalence tests and as the before/after baseline
	// in microbenchmarks.
	Serial bool
	// Store, when non-nil, is the persistent history: loaded by New,
	// appended to on every new signature.
	Store HistoryStore
}

// DefaultConfig returns the paper's configuration: depth-1 outer stacks
// and queue reuse on.
func DefaultConfig() Config {
	return Config{
		OuterDepth: 1,
		QueueReuse: true,
	}
}

// validate rejects inconsistent configurations.
func (c Config) validate() error {
	if c.OuterDepth < 1 {
		return fmt.Errorf("config: OuterDepth must be >= 1, got %d", c.OuterDepth)
	}
	return nil
}

// Option mutates a Config in New.
type Option func(*Config)

// WithOuterDepth sets the outer call-stack depth (paper default: 1).
func WithOuterDepth(depth int) Option {
	return func(c *Config) { c.OuterDepth = depth }
}

// WithStore attaches a persistent history store.
func WithStore(s HistoryStore) Option {
	return func(c *Config) { c.Store = s }
}

// WithQueueReuse toggles the two-queue entry recycling (ablation A2).
func WithQueueReuse(on bool) Option {
	return func(c *Config) { c.QueueReuse = on }
}

// WithSerialEngine selects the serial reference engine: every Enter and
// Exit serializes on the global engine lock, as in the paper's §4
// implementation; off (the default) enables the sharded fast path. It is
// exported only for the benchmarks' global-lock ablation (workload.Micro).
func WithSerialEngine(on bool) Option {
	return func(c *Config) { c.Serial = on }
}

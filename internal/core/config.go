package core

import "fmt"

// DeadlockPolicy selects what Request does when it detects that granting
// the acquisition would complete a deadlock cycle.
type DeadlockPolicy int

const (
	// PolicyFreeze records the signature and lets the acquisition proceed,
	// so the deadlock actually happens — the faithful Dalvik behaviour
	// (monitorenter cannot fail): the phone hangs once, the signature is
	// persisted, and after reboot the deadlock is avoided.
	PolicyFreeze DeadlockPolicy = iota + 1
	// PolicyFail records the signature and returns ErrDeadlockDetected
	// from Request, letting the embedding runtime unwind the thread (used
	// by tests and by simulations that model a crash-and-restart instead
	// of a freeze).
	PolicyFail
)

// String returns a readable policy name.
func (p DeadlockPolicy) String() string {
	switch p {
	case PolicyFreeze:
		return "freeze"
	case PolicyFail:
		return "fail"
	default:
		return fmt.Sprintf("DeadlockPolicy(%d)", int(p))
	}
}

// Config carries the tunables of a Core. The zero value is not valid; use
// DefaultConfig or New with options.
//
// Starvation handling is not a tunable: a yield that would close a
// waits-for cycle, or a later edge that closes one, always records a
// starvation signature and force-resumes the yielder (starvation.go), the
// paper's one rule. Nothing in a Core reads the clock or runs in the
// background, so every decision is a function of the call schedule.
type Config struct {
	// OuterDepth is the number of frames kept in outer call stacks.
	// The paper uses 1 (§3.2); deeper stacks lower the false-positive rate
	// at a higher capture cost (see the custom-wrapper example).
	OuterDepth int
	// Detection enables deadlock detection (cycle search on Request).
	Detection bool
	// Avoidance enables signature-instantiation avoidance.
	Avoidance bool
	// Policy selects the reaction to a detected deadlock.
	Policy DeadlockPolicy
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

// DefaultConfig returns the paper's configuration: depth-1 outer stacks,
// detection and avoidance on, freeze policy, queue reuse on.
func DefaultConfig() Config {
	return Config{
		OuterDepth: 1,
		Detection:  true,
		Avoidance:  true,
		Policy:     PolicyFreeze,
		QueueReuse: true,
	}
}

// validate rejects inconsistent configurations.
func (c Config) validate() error {
	if c.OuterDepth < 1 {
		return fmt.Errorf("config: OuterDepth must be >= 1, got %d", c.OuterDepth)
	}
	switch c.Policy {
	case PolicyFreeze, PolicyFail:
	default:
		return fmt.Errorf("config: invalid policy %d", int(c.Policy))
	}
	return nil
}

// Option mutates a Config in New.
type Option func(*Config)

// WithOuterDepth sets the outer call-stack depth (paper default: 1).
func WithOuterDepth(depth int) Option {
	return func(c *Config) { c.OuterDepth = depth }
}

// WithDetection toggles deadlock detection.
func WithDetection(on bool) Option {
	return func(c *Config) { c.Detection = on }
}

// WithAvoidance toggles signature avoidance.
func WithAvoidance(on bool) Option {
	return func(c *Config) { c.Avoidance = on }
}

// WithPolicy sets the deadlock reaction policy.
func WithPolicy(p DeadlockPolicy) Option {
	return func(c *Config) { c.Policy = p }
}

// WithStore attaches a persistent history store.
func WithStore(s HistoryStore) Option {
	return func(c *Config) { c.Store = s }
}

// WithQueueReuse toggles the two-queue entry recycling (ablation A2).
func WithQueueReuse(on bool) Option {
	return func(c *Config) { c.QueueReuse = on }
}

// WithSerialEngine selects the serial reference engine: every Request,
// Acquired and Release serializes on the global engine lock, as in the
// paper's §4 implementation. Off (the default) enables the sharded
// low-contention fast path.
func WithSerialEngine(on bool) Option {
	return func(c *Config) { c.Serial = on }
}

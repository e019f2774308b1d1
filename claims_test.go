package dimmunix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// claim is one row of the claims ledger: something the repository says
// holds, the tests that check it and the benchmarks and metrics that give
// its number, and the mutants of the code behind it that a test kills. A
// test or benchmark is named "dir:Func", dir relative to the module root
// ("." for the root package); a metric is "workload/metric" of
// BENCHMARK.json.
type claim struct {
	id        string
	statement string
	tests     []string
	numbers   []string // benchmarks, "dir:BenchmarkX"
	metrics   []string // bench/ metrics, "workload/metric"
	mutants   []mutant
}

// mutant is a change to the code behind a claim that breaks it, and the
// deterministic test that fails on it.
type mutant struct {
	change   string
	killedBy string // "dir:TestX"
}

// claims is the ledger. Deleting or renaming a test, benchmark or metric a
// row names fails TestClaims until the row names what checks the claim
// now.
var claims = []claim{
	{
		id:        "E1",
		statement: "a deadlock that froze the phone once is avoided after the reboot: the race completes with a yield",
		tests:     []string{".:TestPhoneE1ThroughFacade"},
		numbers:   []string{".:BenchmarkE1DeadlockImmunity"},
	},
	{
		id: "E1 over generated inversions",
		statement: "over 500 seeded k-cycles (k = 2..4; plain, non-LIFO exits, with a decoy, or with a hold re-acquired in Object.wait), run 1 detects once with one signature, " +
			"run 2 booted from its history completes with yields and no deadlock, and a decoy alone in every outer position never yields",
		tests: []string{"internal/vm:TestGeneratedE1"},
		mutants: []mutant{
			{"Monitor.wait re-acquiring by the monitor's CAS alone, skipping the request (core.Enter)", "internal/vm:TestGeneratedE1"},
		},
	},
	{
		id:        "F1",
		statement: "one phone's detection immunizes the fleet: every process on every phone installs the signature, and another phone is spared",
		tests: []string{
			"internal/workload:TestRunFleetImmunityThresholdOne", "internal/workload:TestRunFleetImmunity",
			"internal/workload:TestFleetImmunityTransportEquivalence", "internal/workload:TestFleetImmunityFederationEquivalence",
		},
		numbers: []string{".:BenchmarkFleetE1"},
	},
	{
		id: "phone-path cost",
		statement: "what an uncontended synchronized block costs under Dimmunix against vanilla: at one P (phone-sync, gated) and at one and two Ps (BenchmarkSyncProcs, report only); " +
			"an unarmed block makes 4 locked instructions (enter: the engine's read pair and the monitor CAS; exit: the monitor's release store), " +
			"and core.Enter's shared section calls only the runtime's tryLock: no acquire, no thread-state hook",
		tests:   []string{"internal/core:TestEnterSharedSectionCallsOnlyTryLock", "internal/vm:TestEnterFastStaysRunnable"},
		numbers: []string{".:BenchmarkSyncProcs"},
		metrics: []string{"phone-sync/ops_per_s"},
	},
	{
		id: "fast path ≡ exclusive path",
		statement: "the shared engine sections and the lock-free exit decide exactly as Request, Acquired and Release under the exclusive lock, and as the reference model; " +
			"the schedules reach the state between a runtime CAS and Acquired, put installs between a lock-free exit's store and its re-check, " +
			"and drive the composed core.Enter, whose failed acquire is aborted and whose blocked hook runs before the request",
		tests: []string{
			"internal/core:TestEnterAbortsAFailedAcquire",
			"internal/core:TestEnterReadsBlockedThroughAYield",
			"internal/vm:TestEnterOnADyingProcessUndoesTheHold",
			"internal/android:TestYieldingThreadReadsBlockedInANR",
			"internal/core:TestFastPathConditions",
			"internal/core:TestFastReleaseConditions",
			"internal/core:TestEngineSchedules",
			"internal/core:FuzzEngineSchedule",
			"internal/core:TestEngineEquivalence",
			"internal/core:TestLockFreeExitReconcilesARacingInstall",
			"internal/core:TestEnterFastNeverOverwritesAPhantom",
			"internal/core:TestCASBeforeAcquiredReadsAsRunning",
			"internal/core:TestStressLockFreeExitRacesInstall",
		},
		mutants: []mutant{
			{"Core.exited without its post-store re-load of inHistory", "internal/core:TestLockFreeExitReconcilesARacingInstall"},
			{"EnterFast overwriting a non-nil acqEntry (no phantom branch)", "internal/core:TestEnterFastNeverOverwritesAPhantom"},
			{"Node.holder taking a CAS-before-Acquired thread for the holder", "internal/core:TestCASBeforeAcquiredReadsAsRunning"},
			{"core.Enter skipping the abort after a failed acquire", "internal/core:TestEnterAbortsAFailedAcquire"},
			{"Monitor.enter dropping the undo of a CAS that won on a dying process", "internal/vm:TestEnterOnADyingProcessUndoesTheHold"},
			{"core.Enter telling the blocked hook only after the Request", "internal/core:TestEnterReadsBlockedThroughAYield"},
		},
	},
	{
		id: "two interception points",
		statement: "an embedder drives the core through core.Enter and core.Exit only, the paper's lockMonitor and unlockMonitor; " +
			"no code outside internal/core, tests included, calls the parts they compose, except the engine benchmarks (bench/ and the root bench_test.go ablations)",
		tests: []string{".:TestEmbeddersCallOnlyEnterAndExit"},
	},
	{
		id: "push queue",
		statement: "every push path (a Service subscriber, a hub session, a cluster forward outbox) is one Queue, stepped by its goroutine or by a test: " +
			"it delivers in enqueue order, folding a mergeable item into the queued tail; a failed retry-mode batch is redelivered whole after Resume, " +
			"also when the Resume arrives during the failing delivery; Cap counts in-flight items; OnExit runs exactly once, whichever way the queue ends, and Done closes after it. " +
			"The queue tests are rows of one step table (queueSteps, internal/immunity/queue_test.go), and three raw hub sessions run hello, two reports, confirm, arm and delta on the test goroutine",
		tests: []string{
			"internal/immunity:TestQueueDeliverBatch",
			"internal/immunity:TestQueueDeliverBatchDropOnError",
			"internal/immunity:TestQueueDeliverBatchRetryParks",
			"internal/immunity:TestQueueResumeDuringFailingDelivery",
			"internal/immunity:TestQueuePendingSeesInFlightBatch",
			"internal/immunity:TestQueueCapCountsInFlight",
			"internal/immunity:TestQueueExitHookRunsOnce",
			"internal/immunity:TestQueueDeliverFailureWithoutCloseStillDies",
			"internal/immunity:TestQueueRetryBatchRedeliversSentPrefix",
			"internal/immunity:TestQueueGaugeInstrumentation",
			"internal/immunity:TestQueueCloseRacesDeliverFailure",
			"internal/immunity:TestQueueDoneClosesAfterExit",
			"internal/immunity:TestExchangeSteppedPushPath",
		},
		mutants: []mutant{
			{"Resume ignoring a drain that is still delivering (Queue.resumed dropped)", "internal/immunity:TestQueueResumeDuringFailingDelivery"},
			{"a Resume that found a delivery in flight remembered after that delivery succeeded", "internal/immunity:TestQueueResumeDuringFailingDelivery"},
			{"Cap counting only queued items, not the batch in flight", "internal/immunity:TestQueueCapCountsInFlight"},
			{"step without its exited guard, so a Close after a drop-mode failure runs OnExit again", "internal/immunity:TestQueueExitHookRunsOnce"},
			{"a failed retry-mode batch re-queued without what was enqueued during its delivery", "internal/immunity:TestQueueRetryBatchRedeliversSentPrefix"},
		},
	},
	{
		id: "the fleet in virtual time",
		statement: "every fleet machine — a hub's session queues, a node's peer links, forward outboxes and ticker, a device's session machine and Service subscription — " +
			"is a step a clock runs: on a mock clock 3 hubs and 4 devices go from report through forward, confirm, arm and broadcast to install, " +
			"then through a partition (the deputy promoted, the minority's lease lost, nothing armed there) and a heal, with one arming decision per key across the cluster, " +
			"on one goroutine (no goroutine added after any step) with the same event log every run; " +
			"the redial backoff, its jitter, the kick and the uptime rule hold in virtual time",
		tests: []string{
			"internal/immunity/cluster:TestFleetInVirtualTime",
			"internal/immunity/cluster:TestClusterGatesAtOwnerAndPropagates",
			"internal/immunity/cluster:TestClusterForwardedReportNeverDoubleCounts",
			"internal/immunity/cluster:TestClusterTenantIsolation",
			"internal/immunity/cluster:TestClusterOwnerFailoverDeputyArms",
			"internal/immunity/cluster:TestRedialHandshakeTable",
			"internal/immunity/cluster:TestPeerSeenKicksBackoff",
			"internal/immunity/cluster:TestClusterFlappingPeerBacksOff",
			"internal/immunity/cluster:TestNodeTick",
			"internal/clock:TestMockRunsDueMachinesInOrder",
		},
		mutants: []mutant{
			{"Kick ending the backoff wait without resetting the backoff to its floor", "internal/immunity/cluster:TestPeerSeenKicksBackoff"},
			{"jitter drawn from [wait/4, 3·wait/4] instead of [wait/2, wait]", "internal/immunity/cluster:TestClusterFlappingPeerBacksOff"},
			{"jitter drawn from [wait/2, 3·wait/2]", "internal/immunity/cluster:TestRedialHandshakeTable"},
			{"uptime measured from the dial instead of from the accept", "internal/immunity/cluster:TestRedialHandshakeTable"},
			{"a lease round skipped when a probe round is due at the same instant", "internal/immunity/cluster:TestNodeTick"},
			{"no uptime rule: every accepted session resets the backoff", "internal/immunity:TestRedialBackoffRule"},
			{"no uptime rule: no session resets the backoff", "internal/immunity/cluster:TestRedialHandshakeTable"},
			{"a handoff import of an armed record decided again by its new owner", "internal/immunity/cluster:TestFleetInVirtualTime"},
		},
	},
	{
		id: "report admission",
		statement: "every hub, the daemon's and every in-process one, puts the same 8-permit pool in front of report ingest: " +
			"at most 8 report batches are handled at once, an over-capacity batch waits FIFO and is shed, unhandled and without error, once its wait runs out, " +
			"every permit comes back whether the batch succeeded or not, and each verdict is counted once; a 16-device flood against the daemon is delayed, never shed",
		tests: []string{
			"internal/immunity:TestAdmissionOnEveryHub",
			"internal/immunity:TestAdmissionShedsAtCapacity",
			"internal/immunity:TestAdmissionDelaysUntilRelease",
			"internal/immunity:TestAdmissionZeroWaitShedsImmediately",
			"internal/immunity:TestAdmissionReleasesAfterAFailingHandler",
			"internal/immunity:TestAdmissionConcurrentAcquire",
			"cmd/immunityd:TestImmunitydAdmissionFlood",
		},
		metrics: []string{"hub-ingest/ops_per_s"},
		mutants: []mutant{
			{"admitReport releasing the permit only after a batch that succeeded", "internal/immunity:TestAdmissionReleasesAfterAFailingHandler"},
			{"a grant after a wait counted as admitted, not delayed", "internal/immunity:TestAdmissionDelaysUntilRelease"},
			{"a shed batch handled anyway", "internal/immunity:TestAdmissionShedsAtCapacity"},
			{"admitReport handling every batch at once, outside the pool", "internal/immunity:TestAdmissionOnEveryHub"},
		},
	},
	{
		id: "client session writes",
		statement: "a device's or peer link's TCP session sends without a syscall per frame: frames sent while a write is in flight leave together, in Send order, in the next write; " +
			"a failed write fails every later Send with its error and fires down once; Send blocks at 64 KiB pending, so pending never exceeds the bound plus one frame; " +
			"Close returns at once, flushes what was sent before it and fires no down; without writev (TLS) frames are gathered into writes of at most 64 KiB",
		tests: []string{
			"internal/immunity:TestTCPSessionCoalescesWhileAWriteIsBlocked",
			"internal/immunity:TestTCPSessionWriteErrorIsSticky",
			"internal/immunity:TestTCPSessionPendingBound",
			"internal/immunity:TestTCPSessionCloseFlushes",
			"internal/immunity:TestTCPSessionWriteFramesWithoutWritev",
			"internal/immunity:TestTCPFleetEndToEnd",
		},
		metrics: []string{"hub-ingest/ops_per_s"},
		mutants: []mutant{
			{"Send ignoring the sticky error: after a failed write it queues the frame and returns nil", "internal/immunity:TestTCPSessionWriteErrorIsSticky"},
			{"the writer not recording its write error, so down and later Sends carry the read loop's closed-conn error", "internal/immunity:TestTCPSessionWriteErrorIsSticky"},
			{"the writer ending at Close with frames still pending", "internal/immunity:TestTCPSessionCloseFlushes"},
			{"Send never parking: no 64 KiB bound", "internal/immunity:TestTCPSessionPendingBound"},
			{"writeFrames writing one Write per frame on a conn without writev", "internal/immunity:TestTCPSessionWriteFramesWithoutWritev"},
		},
	},
	{
		id: "report runs",
		statement: "report frames a hub session reads together commit as one mutation — one admission permit, one provenance write, one delta per tenant — " +
			"with a confirm receipt per signature in frame order, exactly as one by one: a malformed signature in frame k is refused after frames < k are confirmed, " +
			"with nothing of frame k or later recorded; a status request or duplicate hello inside a run is answered in its place; " +
			"a run ends at the last frame whole in the read buffer, without a blocking read (wire.Reader.Ready)",
		tests: []string{
			"internal/immunity:TestReportRunIsOneMutation",
			"internal/immunity:TestReportRunRefusesAtTheMalformedFrame",
			"internal/immunity:TestReportRunAnswersInPlace",
			"internal/immunity:TestReportRunStopsAtAPartialFrame",
			"internal/immunity/wire:TestReaderReady",
			"internal/immunity:TestTCPFleetEndToEnd",
		},
		metrics: []string{"hub-ingest/ops_per_s"},
		mutants: []mutant{
			{"the run concatenating its frames' signatures, so the malformed frame's well-formed prefix commits", "internal/immunity:TestReportRunRefusesAtTheMalformedFrame"},
			{"non-report frames handled after the run's reports", "internal/immunity:TestReportRunAnswersInPlace"},
			{"serve reading past the buffered frames: the run waits for a frame still arriving", "internal/immunity:TestReportRunStopsAtAPartialFrame"},
			{"Ready true once a header is buffered, whatever its payload", "internal/immunity/wire:TestReaderReady"},
			{"one mutation per frame: Handle never groups reports", "internal/immunity:TestReportRunIsOneMutation"},
		},
	},
	{
		id:        "sync counting",
		statement: "SyncCount and Stats count every completed monitorenter exactly once, and never go down while threads exit under a live sampler",
		tests: []string{
			"internal/vm:TestSyncCountCountsEveryEnter",
			"internal/vm:TestSyncCountSampledWhileThreadsExit",
			"internal/apps:TestReplayRunsAndStops",
		},
	},
}

// TestClaims fails when a row of the ledger names a test, benchmark or
// metric that does not exist, and prints the ledger with -v.
func TestClaims(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	metrics := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			metrics[w.Name+"/"+m.Name] = true
		}
	}
	funcs := map[string]map[string]bool{} // dir → the test files' top-level funcs
	exists := func(ref string) bool {
		dir, name, ok := strings.Cut(ref, ":")
		if !ok {
			return false
		}
		if funcs[dir] == nil {
			funcs[dir] = testFuncs(t, dir)
		}
		return funcs[dir][name]
	}
	for _, c := range claims {
		if len(c.tests)+len(c.numbers)+len(c.metrics) == 0 {
			t.Errorf("claim %q: nothing checks it", c.id)
		}
		for _, ref := range slices.Concat(c.tests, c.numbers) {
			if !exists(ref) {
				t.Errorf("claim %q names %s: no such test or benchmark", c.id, ref)
			}
		}
		for _, m := range c.metrics {
			if !metrics[m] {
				t.Errorf("claim %q names %s: no such workload metric in BENCHMARK.json", c.id, m)
			}
		}
		var killed []string
		for _, m := range c.mutants {
			if !exists(m.killedBy) {
				t.Errorf("claim %q: mutant %q is killed by %s: no such test", c.id, m.change, m.killedBy)
			}
			killed = append(killed, m.change+" → "+m.killedBy)
		}
		t.Logf("%-27s %s\n\tchecked by: %s\n\tnumbers: %s\n\tmutants: %s", c.id, c.statement,
			strings.Join(c.tests, ", "), strings.Join(slices.Concat(c.numbers, c.metrics), ", "), strings.Join(killed, "; "))
	}
}

// testFuncs returns the names of the top-level functions declared in the
// _test.go files of one directory.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}

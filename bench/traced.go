package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// The traced run. It measures the workload in pairs of rounds — one
// untraced, one with the span recorder on — so that the tracing
// overhead is itself a paired measurement, runs a couple of rounds of
// every other workload for the layer counters only they can read, and
// then makes the isolated layer calls. It prints every per-layer metric
// whatever the workload, because the contract's metric set is one list.
// End-to-end metrics never come from this run.

// tracedShare is the part of the run's duration spent on the paired
// rounds; the rest is left for the other workloads' counters and the
// layer calls.
const tracedShare = 0.4

// counterRounds is how many rounds of each other workload feed the
// counters.
const counterRounds = 2

func runTraced(w io.Writer, name string, cfg runConfig, out string) (result, error) {
	seed, rounds := cfg.seed, cfg.rounds
	r, in, _, err := setUp(name, cfg)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	plain, traced := newMeasurement(seed), newMeasurement(seed)
	budget := time.Duration(float64(cfg.d) * tracedShare)
	for i, start := 0, time.Now(); another(i, rounds, start, budget); i++ {
		// Alternate which of the pair goes first.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				plain.add(timedRound(r, nil, false))
			} else {
				traced.add(timedRound(r, tr, false))
			}
		}
	}

	counts := map[string]*measurement{name: plain}
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		ro, err := prepare(other, in, cfg.tmp)
		if err != nil {
			return result{}, fmt.Errorf("%s (for its counters): %w", other, err)
		}
		n := counterRounds
		if cfg.trial() {
			n = 1
		}
		counts[other] = measure(ro, nil, seed, 0, n)
	}

	calls := newTracer()
	layers, err := measureLayers(in, cfg, calls)
	if err != nil {
		return result{}, fmt.Errorf("layer calls: %w", err)
	}
	res := result{Correct: true, Metrics: layers, Attempted: plain.attempted + traced.attempted,
		Failed: plain.failed + traced.failed}
	check := func(what string, m *measurement) {
		if len(m.errs) > 0 || m.failed > 0 {
			res.Correct = false
		}
		for _, err := range m.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", what, err)
		}
	}
	check(name+" (traced rounds)", traced)
	for wl, m := range counts {
		check(wl, m)
		for k, v := range m.counts {
			unit := "ratio"
			if k == "immunity.provenance_compactions" || k == "immunity.recover_compactions" {
				unit = "count"
			}
			layers[k] = metric{median(v), unit}
		}
	}
	sync := counts["phone-sync"]
	layers["vm.overhead_x"] = metric{median(sync.baseRates) / median(sync.rates), "ratio"}
	layers["bench.trace_overhead_x"] = metric{median(plain.rates) / median(traced.rates), "ratio"}
	layers["bench.op_p99_us"] = metric{plain.pool.us(99), "us"}
	layers["bench.op_max_us"] = metric{plain.pool.us(100), "us"}

	spans := tr.snapshot()
	if err := writeTrace(out, name, seed, spans, calls.snapshot()); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  traced run: %d untraced + %d traced rounds, %d spans → %s\n",
		name, seed, runtime.GOMAXPROCS(0), plain.rounds, traced.rounds, len(spans), out)
	printLayerShares(w, name, spans)
	printExplained(w, name, plain, layers)
	printMetrics(w, layers)
	return res, nil
}

// printLayerShares prints, over the workload's own spans, each layer's
// span count, self time and share — the ops' spans first, then the
// per-round set-up spans (op 0), which would otherwise drown them.
func printLayerShares(w io.Writer, name string, spans []span) {
	var ops, setup []span
	for _, s := range spans {
		if s.Op != 0 {
			ops = append(ops, s)
		} else {
			setup = append(setup, s)
		}
	}
	for _, part := range []struct {
		what  string
		spans []span
	}{{"ops", ops}, {"per-round set-up", setup}} {
		if len(part.spans) == 0 {
			continue
		}
		layers := selfTimes(part.spans)
		var total int64
		for _, lt := range layers {
			total += lt.SelfNS
		}
		fmt.Fprintf(w, "%s: self time by layer, %s (spans around the calls made from bench/)\n", name, part.what)
		for _, lt := range layers {
			fmt.Fprintf(w, "  %-10s %8d spans %14.3f ms self %6.1f %%\n", lt.Layer, lt.Spans,
				float64(lt.SelfNS)/1e6, 100*float64(lt.SelfNS)/float64(max(total, 1)))
		}
	}
}

// explainers say, per workload, which isolated calls a round or op is
// made of: count × per-call median, summed, against the measured time.
// It is an accounting aid, not a model — queues hand work to other
// goroutines, and the isolated calls run over the loopback where the
// workloads run over TCP and TLS.
func printExplained(w io.Writer, name string, m *measurement, layers map[string]metric) {
	v := func(metric string) float64 { return layers[metric].Value }
	type term struct {
		what  string
		count float64
		us    float64
	}
	var terms []term
	var measuredUS float64
	var unit string
	switch name {
	case "phone-sync":
		ops := float64(syncThreads * syncOps)
		terms = []term{
			// One P: the two threads' blocks add up, they do not overlap.
			{"vm.sync_unarmed_ns", 0.75 * ops, v("vm.sync_unarmed_ns") / 1e3},
			{"vm.sync_armed_ns", 0.25 * ops, v("vm.sync_armed_ns") / 1e3},
		}
		measuredUS, unit = 1e6*ops/median(m.rates), "round"
	case "hub-ingest":
		terms = []term{
			{"immunity.hub_report_persist_us", 2 * ingestSigs, v("immunity.hub_report_persist_us")},
			{"immunity.hub_fanout_us", ingestSigs, v("immunity.hub_fanout_us")},
			{"wire.decode_report_ns", 2 * ingestSigs, v("wire.decode_report_ns") / 1e3},
		}
		measuredUS, unit = 1e6*2*ingestSigs/median(m.rates), "round"
	case "hub-recover":
		terms = []term{
			{"immunity.hub_resume_ms", 1, 1e3 * v("immunity.hub_resume_ms")},
			{"immunity.hub_catchup_ms", recoverDevs, 1e3 * v("immunity.hub_catchup_ms")},
		}
		measuredUS, unit = m.pool.us(50), "op"
	case "fleet-immunity":
		terms = []term{
			{"immunity.service_publish_us", 2, v("immunity.service_publish_us")},
			{"immunity.client_report_us", 1, v("immunity.client_report_us")},
			{"cluster.forward_hop_us", v("cluster.forwards_per_op") / 2, v("cluster.forward_hop_us")},
			{"cluster.arm_broadcast_us", 1, v("cluster.arm_broadcast_us")},
			{"immunity.service_push_us", 1, v("immunity.service_push_us")},
		}
		measuredUS, unit = m.pool.us(50), "op"
	}
	var sum float64
	fmt.Fprintf(w, "%s: one %s as count × isolated per-call median\n", name, unit)
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].count*terms[i].us > terms[j].count*terms[j].us })
	for _, t := range terms {
		sum += t.count * t.us
		fmt.Fprintf(w, "  %-34s %10.2f × %12.3f us = %14.1f us\n", t.what, t.count, t.us, t.count*t.us)
	}
	fmt.Fprintf(w, "  explained %.1f us of %.1f us measured (%.0f %%)\n", sum, measuredUS, 100*sum/measuredUS)
}

package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
)

// TestRunFleetImmunity is the acceptance scenario: 4 phones, live
// processes armed without restart, threshold gating demonstrated, and a
// measured time-to-fleet-immunity.
func TestRunFleetImmunity(t *testing.T) {
	cfg := DefaultFleetImmunityConfig()
	res, err := RunFleetImmunity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceImmunity <= 0 {
		t.Errorf("device immunity %v, want > 0", res.DeviceImmunity)
	}
	if res.FleetImmunity <= 0 {
		t.Errorf("fleet immunity %v, want > 0", res.FleetImmunity)
	}
	if res.FleetArm > res.FleetImmunity {
		t.Errorf("fleet arm %v after fleet immunity %v", res.FleetArm, res.FleetImmunity)
	}
	if res.RemoteProcsSampled != (cfg.Phones-1)*cfg.ProcsPerPhone {
		t.Errorf("sampled %d remote procs, want %d", res.RemoteProcsSampled, (cfg.Phones-1)*cfg.ProcsPerPhone)
	}
	if res.RemoteArmedBeforeThreshold != 0 {
		t.Errorf("%d remote procs armed below the confirmation threshold", res.RemoteArmedBeforeThreshold)
	}
	if len(res.Provenance) != 1 {
		t.Fatalf("provenance has %d entries, want 1", len(res.Provenance))
	}
	prov := res.Provenance[0]
	if !prov.Armed || prov.Confirmations != cfg.ConfirmThreshold || prov.FirstSeen != "phone0" {
		t.Errorf("provenance %+v, want armed, %d confirmations, first-seen phone0", prov, cfg.ConfirmThreshold)
	}
}

// TestRunFleetImmunityThresholdOne: with threshold 1 a single detection
// immunizes the whole fleet.
func TestRunFleetImmunityThresholdOne(t *testing.T) {
	cfg := FleetImmunityConfig{Phones: 2, ProcsPerPhone: 2, ConfirmThreshold: 1, Timeout: 30 * time.Second}
	res, err := RunFleetImmunity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetImmunity <= 0 {
		t.Errorf("fleet immunity %v, want > 0", res.FleetImmunity)
	}
	if res.RemoteProcsSampled != 0 {
		t.Errorf("gating sampled %d procs with threshold 1, want 0", res.RemoteProcsSampled)
	}
}

// TestFleetImmunityConfigValidate rejects inconsistent configs.
func TestFleetImmunityConfigValidate(t *testing.T) {
	base := DefaultFleetImmunityConfig()
	cases := []struct {
		name   string
		mutate func(*FleetImmunityConfig)
	}{
		{"one phone", func(c *FleetImmunityConfig) { c.Phones = 1 }},
		{"zero procs", func(c *FleetImmunityConfig) { c.ProcsPerPhone = 0 }},
		{"zero threshold", func(c *FleetImmunityConfig) { c.ConfirmThreshold = 0 }},
		{"threshold above phones", func(c *FleetImmunityConfig) { c.ConfirmThreshold = c.Phones + 1 }},
		{"no timeout", func(c *FleetImmunityConfig) { c.Timeout = 0 }},
		{"bad transport", func(c *FleetImmunityConfig) { c.Transport = "carrier-pigeon" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunFleetImmunity(cfg); err == nil {
				t.Error("want config error")
			}
		})
	}
}

// TestFleetImmunityTransportEquivalence is the transport-equivalence
// acceptance criterion: the identical scenario over the in-process
// loopback and over real TCP sockets must produce identical arming
// decisions — same gating (0 remote procs armed below threshold), same
// provenance (armed flags, confirmation counts, confirming devices,
// first-seen). Only the latencies may differ.
func TestFleetImmunityTransportEquivalence(t *testing.T) {
	type decision struct {
		remoteArmedBelowThreshold int
		provenance                []immunity.Provenance
	}
	cases := []struct {
		name string
		cfg  FleetImmunityConfig
	}{
		{"default threshold 2", DefaultFleetImmunityConfig()},
		{"threshold 1", FleetImmunityConfig{Phones: 2, ProcsPerPhone: 2, ConfirmThreshold: 1, Timeout: 30 * time.Second}},
		{"threshold 3 of 3", FleetImmunityConfig{Phones: 3, ProcsPerPhone: 1, ConfirmThreshold: 3, Timeout: 30 * time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := make(map[FleetTransport]decision)
			for _, tr := range []FleetTransport{TransportLoopback, TransportTCP} {
				cfg := tc.cfg
				cfg.Transport = tr
				res, err := RunFleetImmunity(cfg)
				if err != nil {
					t.Fatalf("%s: %v", tr, err)
				}
				results[tr] = decision{
					remoteArmedBelowThreshold: res.RemoteArmedBeforeThreshold,
					provenance:                res.Provenance,
				}
			}
			lo, tcp := results[TransportLoopback], results[TransportTCP]
			if lo.remoteArmedBelowThreshold != 0 || tcp.remoteArmedBelowThreshold != 0 {
				t.Fatalf("gating broke: loopback %d, tcp %d remote procs armed below threshold",
					lo.remoteArmedBelowThreshold, tcp.remoteArmedBelowThreshold)
			}
			if !reflect.DeepEqual(lo.provenance, tcp.provenance) {
				t.Fatalf("arming decisions diverge across transports:\nloopback: %+v\ntcp:      %+v",
					lo.provenance, tcp.provenance)
			}
		})
	}
}

// TestFleetImmunityFederationEquivalence is the federation-equivalence
// acceptance criterion: the identical scenario against a single hub and
// against a 3-hub federated cluster — devices split across hubs, over
// both loopback and TCP — must produce identical arming decisions at
// confirm thresholds 1, 2, and 3: same gating (0 remote procs armed
// below threshold), same armed signature, same confirmation count and
// confirming devices (i.e. a confirmation forwarded through a non-owner
// hub is counted exactly once). Only latencies and the owner
// attribution may differ.
func TestFleetImmunityFederationEquivalence(t *testing.T) {
	type decision struct {
		remoteArmedBelowThreshold int
		provenance                []immunity.Provenance
	}
	// normalize strips the fields that legitimately differ across
	// topologies: the owning hub's id.
	normalize := func(provs []immunity.Provenance) []immunity.Provenance {
		out := append([]immunity.Provenance{}, provs...)
		for i := range out {
			out[i].Owner = ""
		}
		return out
	}
	for threshold := 1; threshold <= 3; threshold++ {
		for _, tr := range []FleetTransport{TransportLoopback, TransportTCP} {
			t.Run(fmt.Sprintf("threshold%d_%s", threshold, tr), func(t *testing.T) {
				results := make(map[int]decision)
				for _, hubs := range []int{1, 3} {
					cfg := FleetImmunityConfig{
						Phones:           3,
						ProcsPerPhone:    1,
						ConfirmThreshold: threshold,
						Timeout:          30 * time.Second,
						Transport:        tr,
						Hubs:             hubs,
					}
					res, err := RunFleetImmunity(cfg)
					if err != nil {
						t.Fatalf("%d hub(s): %v", hubs, err)
					}
					results[hubs] = decision{
						remoteArmedBelowThreshold: res.RemoteArmedBeforeThreshold,
						provenance:                normalize(res.Provenance),
					}
				}
				single, clustered := results[1], results[3]
				if single.remoteArmedBelowThreshold != 0 || clustered.remoteArmedBelowThreshold != 0 {
					t.Fatalf("gating broke: single %d, cluster %d remote procs armed below threshold",
						single.remoteArmedBelowThreshold, clustered.remoteArmedBelowThreshold)
				}
				if !reflect.DeepEqual(single.provenance, clustered.provenance) {
					t.Fatalf("arming decisions diverge across topologies:\nsingle:  %+v\ncluster: %+v",
						single.provenance, clustered.provenance)
				}
			})
		}
	}
}

package cluster_test

import (
	"fmt"
	"testing"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
)

// tenantCluster federates n stepped hubs that all require token auth
// under one fleet key and apply the given per-tenant confirm
// thresholds.
func tenantCluster(f *fleet, n, threshold int, key []byte, tenantThresholds map[string]int) []*immunity.Exchange {
	opts := []immunity.ExchangeOption{immunity.WithAuthVerifier(auth.NewStatic(key))}
	for tenant, th := range tenantThresholds {
		opts = append(opts, immunity.WithTenantThreshold(tenant, th))
	}
	hubs, _ := f.cluster(n, threshold, 0, opts...)
	return hubs
}

// tenantPhone connects a device whose token scopes it into a tenant,
// to hub i.
func tenantPhone(f *fleet, name, tenant string, key []byte, hubs []*immunity.Exchange, i int) *phone {
	f.t.Helper()
	token, err := auth.Mint(key, auth.Claims{Tenant: tenant, Device: name})
	if err != nil {
		f.t.Fatal(err)
	}
	return f.phone(name, hubNames(len(hubs))[i], hubs[i], immunity.WithClientToken(token))
}

// TestClusterTenantIsolation: two tenants share a 3-hub cluster. Each
// tenant's confirmations only count toward its own threshold (alpha at
// the default 2, beta raised to 3), an arming only reaches the tenant
// that earned it, and every hub's provenance keeps the tenants' records
// disjoint — the same signature armed by alpha stays invisible to beta.
func TestClusterTenantIsolation(t *testing.T) {
	key := []byte("tenant-cluster-key")
	f := newFleet(t)
	hubs := tenantCluster(f, 3, 2, key, map[string]int{"beta": 3})

	// Three alpha phones and four beta phones, spread across the hubs so
	// confirmations route through owner-forwarding with tenant-prefixed
	// keys. The last phone of each tenant never publishes: a publisher's
	// own service holds the signature locally, so only a pure observer
	// proves an arming was (or was not) pushed to it.
	alpha := make([]*phone, 3)
	for i := range alpha {
		alpha[i] = tenantPhone(f, fmt.Sprintf("alpha-phone%d", i), "alpha", key, hubs, i%len(hubs))
	}
	beta := make([]*phone, 4)
	for i := range beta {
		beta[i] = tenantPhone(f, fmt.Sprintf("beta-phone%d", i), "beta", key, hubs, i%len(hubs))
	}
	alphaObserver, betaObserver := alpha[2], beta[3]
	sig := testSig(0)
	sigKey := sig.Key()

	// Alpha reaches its threshold of 2: alpha arms, beta must not see it.
	f.publish(sig, alpha[:2]...)
	f.settle()
	if !alphaObserver.holds(sigKey) {
		t.Fatal("alpha observer not armed at alpha's threshold")
	}
	if betaObserver.holds(sigKey) || beta[2].holds(sigKey) {
		t.Fatal("beta devices received alpha's arming")
	}

	// Two beta confirmations sit below beta's raised threshold of 3 even
	// though the same signature is already armed for alpha.
	f.publish(sig, beta[:2]...)
	f.settle()
	recorded := false
	for _, hub := range hubs {
		for _, ts := range hub.Status().Tenants {
			recorded = recorded || (ts.Tenant == "beta" && ts.Sigs == 1)
		}
	}
	if !recorded {
		t.Fatal("beta confirmations not recorded")
	}
	if beta[2].holds(sigKey) || betaObserver.holds(sigKey) {
		t.Fatal("beta armed below beta's threshold of 3")
	}

	// The third beta confirmation arms beta — for beta's phones only.
	f.publish(sig, beta[2])
	f.settle()
	if !betaObserver.holds(sigKey) {
		t.Fatal("beta observer not armed at threshold 3")
	}

	// Provenance stays disjoint per tenant on every hub that holds the
	// owned records: the alpha record was confirmed only by alpha
	// devices, the beta record only by beta devices, and the per-tenant
	// status views carry each tenant's own threshold.
	armed := map[string]bool{}
	for _, hub := range hubs {
		for _, rec := range hub.Provenance() {
			armed[rec.Tenant] = armed[rec.Tenant] || rec.Armed
		}
	}
	if !armed["alpha"] || !armed["beta"] {
		t.Fatalf("armed records per tenant: %v, want both", armed)
	}
	for hi, hub := range hubs {
		for _, rec := range hub.Provenance() {
			want := rec.Tenant + "-phone"
			for _, dev := range rec.ConfirmedBy {
				if len(dev) < len(want) || dev[:len(want)] != want {
					t.Fatalf("hub%d: tenant %q record confirmed by %q", hi, rec.Tenant, dev)
				}
			}
		}
		for _, ts := range hub.Status().Tenants {
			switch ts.Tenant {
			case "alpha":
				if ts.Threshold != 2 {
					t.Fatalf("hub%d: alpha threshold = %d, want the default 2", hi, ts.Threshold)
				}
			case "beta":
				if ts.Threshold != 3 {
					t.Fatalf("hub%d: beta threshold = %d, want the per-tenant 3", hi, ts.Threshold)
				}
			}
		}
	}
}

package network

import (
	"reflect"
	"strings"
	"testing"

	"mmr/internal/admission"
	"mmr/internal/flit"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

func tenantTestNetwork(t *testing.T) *Network {
	t.Helper()
	tp, err := topology.Mesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.VCs = 8
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func cbr(mbps int) traffic.ConnSpec {
	return traffic.ConnSpec{Class: flit.ClassCBR, Rate: traffic.Rate(mbps) * traffic.Mbps}
}

// TestOpenAsTenantQuota: the synchronous establishment path refuses a
// tenant at its ceiling before touching the fabric, and frees headroom
// when the tenant's sessions close.
func TestOpenAsTenantQuota(t *testing.T) {
	n := tenantTestNetwork(t)
	n.Tenants().SetQuota("video", admission.TenantQuota{MaxSessions: 2})

	a, err := openAs(n, "video", 0, 8, cbr(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.Tenant != "video" {
		t.Fatalf("conn tenant %q, want video", a.Tenant)
	}
	if _, err := openAs(n, "video", 1, 7, cbr(10)); err != nil {
		t.Fatal(err)
	}
	_, err = openAs(n, "video", 2, 6, cbr(10))
	if err == nil || !strings.Contains(err.Error(), "over admission quota") {
		t.Fatalf("third session: %v, want quota refusal", err)
	}
	// The default tenant is unaffected.
	if _, err := n.Open(2, 6, cbr(10)); err != nil {
		t.Fatalf("default tenant refused: %v", err)
	}
	// Closing one frees headroom.
	if err := n.Close(a); err != nil {
		t.Fatal(err)
	}
	if _, err := openAs(n, "video", 2, 4, cbr(10)); err != nil {
		t.Fatalf("admission after close refused: %v", err)
	}
	if u := n.Tenants().Usage("video"); u.Sessions != 2 {
		t.Fatalf("usage %+v, want 2 sessions", u)
	}
}

// TestOpenAsGuaranteedQuota: the bandwidth budget is denominated in
// guaranteed cycles/round; GuaranteedCyclesFor converts a spec so quota
// and charge agree exactly.
func TestOpenAsGuaranteedQuota(t *testing.T) {
	n := tenantTestNetwork(t)
	slot := n.GuaranteedCyclesFor(cbr(10))
	if slot < 1 {
		t.Fatalf("GuaranteedCyclesFor = %d, want >= 1", slot)
	}
	n.Tenants().SetQuota("iot", admission.TenantQuota{MaxGuaranteed: slot})

	if _, err := openAs(n, "iot", 0, 8, cbr(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := openAs(n, "iot", 1, 7, cbr(10)); err == nil {
		t.Fatal("second session admitted over the bandwidth budget")
	}
	if u := n.Tenants().Usage("iot"); u.Guaranteed != slot {
		t.Fatalf("guaranteed usage %d, want %d", u.Guaranteed, slot)
	}
}

// TestOpenBatchTenantQuota: batch establishment settles each request
// against the tenant table in order, so a tenant's budget admits a
// prefix and refuses the rest within one batch.
func TestOpenBatchTenantQuota(t *testing.T) {
	n := tenantTestNetwork(t)
	n.Tenants().SetQuota("bulk", admission.TenantQuota{MaxSessions: 2})
	reqs := []OpenReq{
		{Src: 0, Dst: 8, Spec: cbr(10), Tenant: "bulk"},
		{Src: 1, Dst: 7, Spec: cbr(10), Tenant: "bulk"},
		{Src: 2, Dst: 6, Spec: cbr(10), Tenant: "bulk"},
		{Src: 3, Dst: 5, Spec: cbr(10)}, // default tenant rides along
	}
	out := n.OpenBatch(reqs)
	for i := 0; i < 2; i++ {
		if out[i].Err != nil {
			t.Fatalf("req %d refused: %v", i, out[i].Err)
		}
	}
	if out[2].Err == nil || !strings.Contains(out[2].Err.Error(), "over admission quota") {
		t.Fatalf("req 2: %v, want quota refusal", out[2].Err)
	}
	if out[3].Err != nil {
		t.Fatalf("default-tenant req refused: %v", out[3].Err)
	}
}

// TestModifyBandwidthTenantQuota: §4.3 growth is quota-tested against
// the tenant's guaranteed budget; shrink always fits.
func TestModifyBandwidthTenantQuota(t *testing.T) {
	n := tenantTestNetwork(t)
	slot := n.GuaranteedCyclesFor(cbr(10))
	n.Tenants().SetQuota("cap", admission.TenantQuota{MaxGuaranteed: slot})
	c, err := openAs(n, "cap", 0, 8, cbr(10))
	if err != nil {
		t.Fatal(err)
	}
	err = n.ModifyBandwidth(c, 400*traffic.Mbps)
	if err == nil || !strings.Contains(err.Error(), "over guaranteed-bandwidth quota") {
		t.Fatalf("growth over quota: %v", err)
	}
	// The refused growth left the charge untouched.
	if u := n.Tenants().Usage("cap"); u.Guaranteed != slot {
		t.Fatalf("guaranteed usage %d after refused growth, want %d", u.Guaranteed, slot)
	}
	if err := n.ModifyBandwidth(c, 5*traffic.Mbps); err != nil {
		t.Fatalf("shrink refused: %v", err)
	}
}

// TestTenantStateSurvivesCheckpoint: on the promotion chain, two tenants
// with session and guaranteed quotas own sessions, one of them promoted
// back from best-effort, and a tenant-owned retried open waits out its
// backoff against a full link. The fabric is checkpointed there and
// restored; then restored fabric and un-checkpointed twin free the link,
// let the retry land and ask once more. Per-tenant usage and quotas,
// every connection's owner, the landed session's owner and charge, and
// the next quota refusal must be the twin's.
func TestTenantStateSurvivesCheckpoint(t *testing.T) {
	slot := 0
	build := func() (*Network, *Conn) {
		n, err := New(chainPromotionConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		slot = n.GuaranteedCyclesFor(victimSpec())
		n.Tenants().SetQuota("a", admission.TenantQuota{MaxSessions: 4, MaxGuaranteed: 3 * slot})
		n.Tenants().SetQuota("b", admission.TenantQuota{MaxSessions: 2, MaxGuaranteed: 2 * slot})
		victim, err := openAs(n, "a", 0, 2, victimSpec())
		if err != nil {
			t.Fatal(err)
		}
		n.Run(100)
		if err := n.FailLink(0, 0); err != nil {
			t.Fatal(err)
		}
		n.Run(2000)
		if !victim.Degraded {
			t.Fatal("victim did not degrade")
		}
		if err := n.RestoreLink(0, 0); err != nil {
			t.Fatal(err)
		}
		n.Run(3000)
		dummy, err := n.Open(0, 2, victimSpec()) // a close is the promotion trigger
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Close(dummy); err != nil {
			t.Fatal(err)
		}
		n.Run(2000)
		if victim.Degraded || !victim.Open() || n.Stats().ConnsPromoted != 1 {
			t.Fatalf("victim not promoted: degraded=%v open=%v promoted=%d", victim.Degraded, victim.Open(), n.Stats().ConnsPromoted)
		}
		for _, tenant := range []string{"a", "b"} {
			if _, err := openAs(n, tenant, 0, 2, victimSpec()); err != nil {
				t.Fatalf("tenant %s: %v", tenant, err)
			}
		}
		// Fill the link's round, so that tenant a's next open, inside its
		// quota, finds no bandwidth and backs off.
		blocker, err := n.Open(0, 2, blockerSpec(40*(32-3)))
		if err != nil {
			t.Fatal(err)
		}
		err = n.OpenRequest(OpenReq{Src: 0, Dst: 2, Spec: victimSpec(), Tenant: "a"}, FormRetry, nil)
		if err != nil || len(n.openRetries) != 1 {
			t.Fatalf("retried open: %v, %d pending", err, len(n.openRetries))
		}
		return n, blocker
	}

	twin, twinBlocker := build()
	snap, err := twin.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(chainPromotionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreState(snap); err != nil {
		t.Fatal(err)
	}

	type view struct {
		usage  map[string]admission.TenantUsage
		quotas map[string]admission.TenantQuota
		owners []string
		err    string
	}
	look := func(n *Network) view {
		v := view{usage: map[string]admission.TenantUsage{}, quotas: map[string]admission.TenantQuota{}}
		for _, tenant := range []string{"", "a", "b"} {
			v.usage[tenant] = n.Tenants().Usage(tenant)
			if q, ok := n.Tenants().Quota(tenant); ok {
				v.quotas[tenant] = q
			}
		}
		for _, c := range n.Conns() {
			v.owners = append(v.owners, c.Tenant)
		}
		return v
	}
	if want, got := look(twin), look(n); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored tenant state differs from the twin's:\ntwin:     %+v\nrestored: %+v", want, got)
	}

	for _, f := range []*Network{twin, n} {
		if err := f.Close(f.conns[twinBlocker.ID]); err != nil {
			t.Fatal(err)
		}
		f.Run(200)
	}
	want, got := look(twin), look(n)
	landed := len(twin.conns) - 1
	if len(twin.openRetries) != 0 || twin.conns[landed].Tenant != "a" || !twin.conns[landed].Open() {
		t.Fatalf("the twin's retried open did not land as tenant a's session (%d pending)", len(twin.openRetries))
	}
	if u := want.usage["a"]; u.Sessions != 3 || u.Guaranteed != 3*slot {
		t.Fatalf("twin: tenant a holds %+v after its retried open landed, want 3 sessions / %d guaranteed", u, 3*slot)
	}
	if len(n.conns) != len(twin.conns) || n.conns[landed].Tenant != "a" || !n.conns[landed].Open() {
		t.Fatalf("the restored fabric's retried open did not land as tenant a's session")
	}
	for _, f := range []*Network{twin, n} {
		_, err := openAs(f, "a", 0, 2, victimSpec())
		if err == nil {
			t.Fatal("tenant a admitted over its guaranteed quota")
		}
		if f == twin {
			want.err = err.Error()
		} else {
			got.err = err.Error()
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("after the retried open landed, the restored fabric differs from the twin:\ntwin:     %+v\nrestored: %+v", want, got)
	}
	if !reflect.DeepEqual(twin.Stats(), n.Stats()) {
		t.Fatalf("stats differ from the twin's:\ntwin:     %+v\nrestored: %+v", twin.Stats(), n.Stats())
	}
}

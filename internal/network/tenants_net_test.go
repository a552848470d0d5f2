package network

import (
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

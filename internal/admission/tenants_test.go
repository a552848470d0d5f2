package admission

import "testing"

func TestTenantDefaultUnlimited(t *testing.T) {
	tt := NewTenantTable()
	for i := 0; i < 1000; i++ {
		if !tt.AdmitSession("", 7) {
			t.Fatalf("default tenant refused at session %d", i)
		}
	}
	if u := tt.Usage(""); u.Sessions != 1000 || u.Guaranteed != 7000 {
		t.Fatalf("usage %+v, want 1000/7000", u)
	}
	if _, ok := tt.Quota(""); ok {
		t.Fatal("default tenant reports an explicit quota")
	}
}

func TestTenantSessionQuota(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxSessions: 2})
	if !tt.AdmitSession("a", 0) || !tt.AdmitSession("a", 0) {
		t.Fatal("admissions under the ceiling refused")
	}
	if tt.CanAdmit("a", 0) || tt.AdmitSession("a", 0) {
		t.Fatal("third session admitted over MaxSessions=2")
	}
	// Refusal charges nothing.
	if u := tt.Usage("a"); u.Sessions != 2 {
		t.Fatalf("usage %+v after refusal, want 2 sessions", u)
	}
	// Other tenants are unaffected.
	if !tt.AdmitSession("b", 0) {
		t.Fatal("unrelated tenant refused")
	}
	tt.ReleaseSession("a")
	if !tt.AdmitSession("a", 0) {
		t.Fatal("admission refused after a release opened headroom")
	}
}

func TestTenantGuaranteedQuota(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxGuaranteed: 10})
	if !tt.AdmitSession("a", 6) {
		t.Fatal("first admission refused")
	}
	if tt.AdmitSession("a", 5) {
		t.Fatal("admission accepted over MaxGuaranteed")
	}
	if !tt.AdmitSession("a", 4) {
		t.Fatal("exact-fit admission refused")
	}
	if u := tt.Usage("a"); u.Sessions != 2 || u.Guaranteed != 10 {
		t.Fatalf("usage %+v, want 2/10", u)
	}
	tt.ReleaseAll("a", 6)
	if u := tt.Usage("a"); u.Sessions != 1 || u.Guaranteed != 4 {
		t.Fatalf("usage %+v after release, want 1/4", u)
	}
}

func TestTenantChargeGuaranteed(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxSessions: 1, MaxGuaranteed: 4})
	if !tt.AdmitSession("a", 4) {
		t.Fatal("admission refused")
	}
	// Degradation refunds the bandwidth but keeps the session.
	tt.ReleaseGuaranteed("a", 4)
	if u := tt.Usage("a"); u.Sessions != 1 || u.Guaranteed != 0 {
		t.Fatalf("usage %+v after degrade refund, want 1/0", u)
	}
	// Re-promotion re-charges bandwidth only: the session count is at
	// its ceiling, but ChargeGuaranteed must not test it.
	if !tt.ChargeGuaranteed("a", 4) {
		t.Fatal("re-promotion charge refused despite bandwidth headroom")
	}
	if tt.ChargeGuaranteed("a", 1) {
		t.Fatal("charge accepted over MaxGuaranteed")
	}
}

func TestTenantAdjustGuaranteed(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxGuaranteed: 10})
	tt.AdmitSession("a", 4)
	if !tt.AdjustGuaranteed("a", 6) {
		t.Fatal("growth within quota refused")
	}
	if tt.AdjustGuaranteed("a", 1) {
		t.Fatal("growth accepted over quota")
	}
	if !tt.AdjustGuaranteed("a", -8) {
		t.Fatal("shrink refused")
	}
	if u := tt.Usage("a"); u.Guaranteed != 2 {
		t.Fatalf("guaranteed %d, want 2", u.Guaranteed)
	}
	// Shrinks always succeed even with no quota set.
	if !tt.AdjustGuaranteed("b", 0) {
		t.Fatal("no-op adjust refused")
	}
}

func TestTenantQuotaBelowUsage(t *testing.T) {
	tt := NewTenantTable()
	tt.AdmitSession("a", 8)
	tt.AdmitSession("a", 8)
	// Lowering the quota under live usage evicts nothing but refuses new
	// work until usage drains.
	tt.SetQuota("a", TenantQuota{MaxSessions: 1, MaxGuaranteed: 8})
	if u := tt.Usage("a"); u.Sessions != 2 || u.Guaranteed != 16 {
		t.Fatalf("usage %+v changed by SetQuota", u)
	}
	if tt.CanAdmit("a", 0) {
		t.Fatal("admission allowed over a lowered quota")
	}
	tt.ReleaseAll("a", 8)
	tt.ReleaseAll("a", 8)
	if !tt.CanAdmit("a", 8) {
		t.Fatal("admission refused after usage drained under the quota")
	}
}

func TestTenantGuaranteedFraction(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxGuaranteed: 8})
	tt.AdmitSession("a", 4)
	if f := tt.GuaranteedFraction("a"); f != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
	tt.AdmitSession("b", 3)
	if f := tt.GuaranteedFraction("b"); f != 3 {
		t.Fatalf("unlimited tenant fraction = %v, want raw usage 3", f)
	}
	if f := tt.GuaranteedFraction("never-seen"); f != 0 {
		t.Fatalf("unknown tenant fraction = %v, want 0", f)
	}
}

func TestTenantNamesSorted(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("zeta", TenantQuota{MaxSessions: 1})
	tt.AdmitSession("alpha", 0)
	tt.AdmitSession("mid", 0)
	got := tt.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestTenantRestoreBypassesQuota(t *testing.T) {
	tt := NewTenantTable()
	tt.SetQuota("a", TenantQuota{MaxSessions: 1, MaxGuaranteed: 4})
	// Checkpoint restore re-applies charges past the ceiling: the writer
	// admitted them, so the restore must not fail.
	tt.RestoreSession("a", 4)
	tt.RestoreSession("a", 4)
	if u := tt.Usage("a"); u.Sessions != 2 || u.Guaranteed != 8 {
		t.Fatalf("usage %+v after restore, want 2/8", u)
	}
	if tt.CanAdmit("a", 0) {
		t.Fatal("new admission allowed while restored usage exceeds quota")
	}
}

func TestTenantPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	tt := NewTenantTable()
	mustPanic("negative quota", func() { tt.SetQuota("a", TenantQuota{MaxSessions: -1}) })
	mustPanic("unmatched guaranteed release", func() { tt.ReleaseGuaranteed("a", 1) })
	mustPanic("unmatched session release", func() { tt.ReleaseSession("a") })
	tt.AdmitSession("a", 2)
	mustPanic("adjust below zero", func() { tt.AdjustGuaranteed("a", -3) })
}

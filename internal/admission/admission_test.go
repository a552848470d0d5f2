package admission

import (
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	cases := []struct {
		round, be   int
		concurrency float64
	}{
		{0, 0, 1},
		{10, -1, 1},
		{10, 10, 1},
		{10, 0, 0.5},
	}
	for _, c := range cases {
		if _, err := NewLinkAllocator(c.round, c.be, c.concurrency); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	if _, err := NewLinkAllocator(512, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	mustNewLinkAllocator(0, 0, 1)
}

func TestCBRAdmission(t *testing.T) {
	a := mustNewLinkAllocator(100, 0, 1)
	if !a.AdmitCBR(60) {
		t.Fatal("first admit failed")
	}
	if !a.CanAdmitCBR(40) || a.CanAdmitCBR(41) {
		t.Fatal("capacity boundary wrong")
	}
	if a.AdmitCBR(41) {
		t.Fatal("over-admission")
	}
	if !a.AdmitCBR(40) {
		t.Fatal("exact-fit admit failed")
	}
	if a.Guaranteed() != 100 || a.Connections() != 2 || a.GuaranteedLoad() != 1 {
		t.Fatalf("accounting wrong: %d cycles, %d conns", a.Guaranteed(), a.Connections())
	}
	a.ReleaseCBR(60)
	if a.Guaranteed() != 40 || a.Connections() != 1 {
		t.Fatal("release accounting wrong")
	}
	if a.AdmitCBR(0) {
		t.Fatal("zero-cycle connection admitted")
	}
}

func TestBestEffortReserve(t *testing.T) {
	// §4.2: "it is possible to reserve some bandwidth/round for best-effort
	// traffic in order to prevent starvation".
	a := mustNewLinkAllocator(100, 20, 1)
	if a.AdmitCBR(81) {
		t.Fatal("admission ate the best-effort reserve")
	}
	if !a.AdmitCBR(80) {
		t.Fatal("full guaranteed budget refused")
	}
}

func TestVBRAdmissionTwoConditions(t *testing.T) {
	a := mustNewLinkAllocator(100, 0, 2) // peaks may oversubscribe 2×
	if !a.AdmitVBR(30, 80) {
		t.Fatal("first VBR refused")
	}
	// Condition (i): permanent must fit the guaranteed budget.
	if a.CanAdmitVBR(71, 71) {
		t.Fatal("permanent overflow admitted")
	}
	// Condition (ii): peak total must stay under round × concurrency = 200.
	if !a.CanAdmitVBR(10, 120) || a.CanAdmitVBR(10, 121) {
		t.Fatal("peak boundary wrong")
	}
	if !a.AdmitVBR(10, 120) {
		t.Fatal("in-budget VBR refused")
	}
	if a.Guaranteed() != 40 || a.PeakTotal() != 200 {
		t.Fatalf("registers wrong: perm=%d peak=%d", a.Guaranteed(), a.PeakTotal())
	}
	a.ReleaseVBR(30, 80)
	if a.Guaranteed() != 10 || a.PeakTotal() != 120 || a.Connections() != 1 {
		t.Fatal("VBR release wrong")
	}
}

func TestVBRRejectsDegenerate(t *testing.T) {
	a := mustNewLinkAllocator(100, 0, 1)
	if a.CanAdmitVBR(0, 10) {
		t.Fatal("zero permanent admitted")
	}
	if a.CanAdmitVBR(10, 5) {
		t.Fatal("peak below permanent admitted")
	}
}

func TestCBRAndVBRShareGuaranteedBudget(t *testing.T) {
	a := mustNewLinkAllocator(100, 0, 3)
	a.AdmitCBR(50)
	if a.CanAdmitVBR(51, 60) {
		t.Fatal("VBR permanent admitted past shared budget")
	}
	if !a.AdmitVBR(50, 60) {
		t.Fatal("exact-fit VBR refused")
	}
}

func TestReleaseWithoutAdmitPanics(t *testing.T) {
	a := mustNewLinkAllocator(10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.ReleaseCBR(1)
}

// Property: any admit/release sequence keeps the registers within bounds.
func TestAdmissionInvariantProperty(t *testing.T) {
	type open struct{ perm, peak int }
	f := func(ops []uint16) bool {
		a := mustNewLinkAllocator(128, 8, 1.5)
		var cbr []int
		var vbr []open
		for _, op := range ops {
			demand := int(op&0x3f) + 1
			switch op >> 14 {
			case 0:
				if a.AdmitCBR(demand) {
					cbr = append(cbr, demand)
				}
			case 1:
				if a.AdmitVBR(demand, demand*2) {
					vbr = append(vbr, open{demand, demand * 2})
				}
			case 2:
				if len(cbr) > 0 {
					a.ReleaseCBR(cbr[len(cbr)-1])
					cbr = cbr[:len(cbr)-1]
				}
			default:
				if len(vbr) > 0 {
					v := vbr[len(vbr)-1]
					a.ReleaseVBR(v.perm, v.peak)
					vbr = vbr[:len(vbr)-1]
				}
			}
			if a.Guaranteed() > 120 { // budget = 128-8
				return false
			}
			if float64(a.PeakTotal()) > 120*1.5 {
				return false
			}
			if a.Connections() != len(cbr)+len(vbr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

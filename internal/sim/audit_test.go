package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/trace"
)

// TestAuditAllPolicies runs every policy under the runtime invariant
// auditor through refresh windows and (for the share-aware policies) a
// mid-run share reassignment. Any violated invariant — timing,
// conservation, VTMS arithmetic, frozen keys, FQ inversion bound —
// panics; the assertions below additionally prove the auditor actually
// engaged and that FQ-VFTF's measured priority-inversion window stayed
// under the Section 3.3 bound.
func TestAuditAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("audit sweep is slow")
	}
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name    string
		factory PolicyFactory
	}{
		{"FCFS", FCFS},
		{"FR-FCFS", FRFCFS},
		{"FR-VFTF", FRVFTF},
		{"FQ-VFTF", FQVFTF},
		{"FR-VSTF", FRVSTF},
		{"BLISS", BLISS},
		{"SLOW-FAIR", SLOWFAIR},
		{"BANK-BW", BANKBW},
	}
	for _, p := range policies {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			s, err := New(Config{
				Workload: []trace.Profile{art, vpr},
				Policy:   p.factory,
				Seed:     13,
				Audit:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Cross the first refresh window (tREF = 280k), reassigning
			// shares mid-run where the policy supports it.
			s.Step(150_000)
			s.SetShare(0, core.Share{Num: 3, Den: 4})
			s.SetShare(1, core.Share{Num: 1, Den: 4})
			s.Step(200_000)
			s.FinishAudit()

			aud := s.Controller().Auditor()
			if aud == nil {
				t.Fatal("Config.Audit did not attach an auditor")
			}
			if aud.Commands() == 0 {
				t.Fatal("auditor validated no commands")
			}
			if s.Controller().CommandCount(dram.KindRefresh) == 0 {
				t.Fatal("run crossed no refresh window")
			}
			if p.name == "FQ-VFTF" {
				x := int64(dram.DDR2800().TRAS)
				if w := aud.MaxInversionWindow(); w >= x {
					t.Fatalf("FQ inversion window %d >= bound %d", w, x)
				}
			}
		})
	}
}

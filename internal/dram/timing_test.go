package dram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDDR2800MatchesTable6(t *testing.T) {
	// The constants of the paper's Table 6, verbatim.
	got := DDR2800()
	want := Timing{
		TRCD: 5, TCL: 5, TWL: 4, TCCD: 2, TWTR: 3, TWR: 6, TRTP: 3,
		TRP: 5, TRRD: 3, TRAS: 18, TRC: 22, BL2: 4, TRFC: 510, TREF: 280000,
	}
	if got != want {
		t.Fatalf("DDR2800() = %+v, want Table 6 values %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Table 6 constants do not validate: %v", err)
	}
}

func TestTimingScale(t *testing.T) {
	base := DDR2800()
	for _, k := range []int{1, 2, 4, 7} {
		s := base.Scale(k)
		if s.TCL != base.TCL*k || s.TRCD != base.TRCD*k || s.TRAS != base.TRAS*k ||
			s.BL2 != base.BL2*k || s.TRFC != base.TRFC*k {
			t.Errorf("Scale(%d) did not scale core constraints: %+v", k, s)
		}
		if s.TREF != base.TREF {
			t.Errorf("Scale(%d) scaled the refresh interval: %d", k, s.TREF)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Scale(%d) invalid: %v", k, err)
		}
	}
}

func TestTimingScalePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	DDR2800().Scale(0)
}

func TestTimingValidateRejectsBadConstants(t *testing.T) {
	cases := []func(*Timing){
		func(tt *Timing) { tt.TCL = 0 },
		func(tt *Timing) { tt.TRCD = -1 },
		func(tt *Timing) { tt.BL2 = 0 },
		func(tt *Timing) { tt.TRAS = tt.TRCD - 1 },
		func(tt *Timing) { tt.TRC = tt.TRAS - 1 },
		func(tt *Timing) { tt.TRFC = 0 },
		func(tt *Timing) { tt.TREF = 0 },
	}
	for i, mutate := range cases {
		tt := DDR2800()
		mutate(&tt)
		if err := tt.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid timing %+v", i, tt)
		}
	}
	// Spacing constraints: the error names the field.
	for _, tc := range []struct {
		field  string
		mutate func(*Timing)
	}{
		{"tRP", func(tt *Timing) { tt.TRP = -5 }},
		{"tRP", func(tt *Timing) { tt.TRP = 0 }},
		{"tRRD", func(tt *Timing) { tt.TRRD = -3 }},
		{"tCCD", func(tt *Timing) { tt.TCCD = -2 }},
		{"tCCD", func(tt *Timing) { tt.TCCD = 0 }},
		{"tWTR", func(tt *Timing) { tt.TWTR = -1 }},
		{"tWR", func(tt *Timing) { tt.TWR = -1 }},
		{"tRTP", func(tt *Timing) { tt.TRTP = -1 }},
		// tRAS = tRCD clears tRAS >= tRCD but, at tCL 10, leaves Table 4's
		// precharge share at 5 + 0 - 10 = -5.
		{"tRAS", func(tt *Timing) { tt.TCL, tt.TRAS = 10, tt.TRCD }},
	} {
		tt := DDR2800()
		tc.mutate(&tt)
		if err := tt.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", tt, err, tc.field)
		}
	}
	// Zero turnaround and recovery times are a legal, if idealised, part.
	tt := DDR2800()
	tt.TWTR, tt.TWR, tt.TRTP = 0, 0, 0
	if err := tt.Validate(); err != nil {
		t.Errorf("Validate refused zero tWTR/tWR/tRTP: %v", err)
	}
}

func TestBankServiceTable3(t *testing.T) {
	// Table 3: conflict = tRP+tRCD+tCL, closed = tRCD+tCL, hit = tCL.
	tt := DDR2800()
	if got, want := tt.BankServiceRead(0), 5+5+5; got != want {
		t.Errorf("conflict read service = %d, want %d", got, want)
	}
	if got, want := tt.BankServiceRead(1), 5+5; got != want {
		t.Errorf("closed read service = %d, want %d", got, want)
	}
	if got, want := tt.BankServiceRead(2), 5; got != want {
		t.Errorf("hit read service = %d, want %d", got, want)
	}
	// Writes substitute tWL for tCL.
	if got, want := tt.BankServiceWrite(0), 5+5+4; got != want {
		t.Errorf("conflict write service = %d, want %d", got, want)
	}
	if got, want := tt.BankServiceWrite(2), 4; got != want {
		t.Errorf("hit write service = %d, want %d", got, want)
	}
}

func TestCmdBankServiceTable4(t *testing.T) {
	// Table 4: precharge = tRP + (tRAS - tRCD - tCL), activate = tRCD,
	// read = tCL, write = tWL; channel service = BL/2.
	tt := DDR2800()
	pre, act, rd := tt.CmdBankService(false)
	if want := 5 + (18 - 5 - 5); pre != want {
		t.Errorf("precharge service = %d, want %d", pre, want)
	}
	if act != 5 {
		t.Errorf("activate service = %d, want 5", act)
	}
	if rd != 5 {
		t.Errorf("read service = %d, want 5", rd)
	}
	_, _, wr := tt.CmdBankService(true)
	if wr != 4 {
		t.Errorf("write service = %d, want 4", wr)
	}
	if tt.ChannelService() != 4 {
		t.Errorf("channel service = %d, want BL/2 = 4", tt.ChannelService())
	}
}

func TestScaleLinearity(t *testing.T) {
	// Property: Scale(a).Scale(b) == Scale(a*b) for the core constraints.
	f := func(a, b uint8) bool {
		ka, kb := int(a%5)+1, int(b%5)+1
		x := DDR2800().Scale(ka).Scale(kb)
		y := DDR2800().Scale(ka * kb)
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

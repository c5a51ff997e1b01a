package trace

import (
	"fmt"
	"testing"

	"repro/internal/addrmap"
)

// memAddrs generates instructions until n memory accesses have been
// collected and returns their line addresses.
func memAddrs(t *testing.T, g *Generator, n int) []uint64 {
	t.Helper()
	var addrs []uint64
	var ins Instr
	for guard := 0; len(addrs) < n; guard++ {
		if guard > 100*n+1_000_000 {
			t.Fatalf("only %d memory accesses in %d instructions", len(addrs), guard)
		}
		g.Next(&ins)
		if ins.Kind == KindLoad || ins.Kind == KindStore {
			addrs = append(addrs, ins.Addr)
		}
	}
	return addrs
}

func TestAntagonistProfilesValidate(t *testing.T) {
	suite := map[string]bool{}
	for _, p := range Suite() {
		suite[p.Name] = true
	}
	for _, p := range Antagonists() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if suite[p.Name] {
			t.Errorf("%s: antagonist name collides with the SPEC suite", p.Name)
		}
		got, err := ByName(p.Name)
		if err != nil {
			t.Errorf("ByName(%s): %v", p.Name, err)
		} else if got.Name != p.Name {
			t.Errorf("ByName(%s) returned %s", p.Name, got.Name)
		}
	}
	if len(AntagonistNames()) != len(Antagonists()) {
		t.Error("AntagonistNames length mismatch")
	}
}

// TestAttackBankTargeting aims both bank-targeted patterns through each
// mapper over 1 and 2 ranks and 1, 2 and 4 channels, and decodes what
// they emit with that same mapper (checkAim).
func TestAttackBankTargeting(t *testing.T) {
	mappers := []struct {
		name string
		make func(addrmap.Geometry) (addrmap.Mapper, error)
	}{
		{"xor", func(g addrmap.Geometry) (addrmap.Mapper, error) { return addrmap.NewXOR(g) }},
		{"linear", func(g addrmap.Geometry) (addrmap.Mapper, error) { return addrmap.NewLinear(g) }},
	}
	for _, name := range []string{"rowthrash", "bankhammer"} {
		t.Run(name, func(t *testing.T) {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, mk := range mappers {
				for _, ranks := range []int{1, 2} {
					for _, channels := range []int{1, 2, 4} {
						geom := addrmap.Table5()
						geom.Ranks, geom.Channels = ranks, channels
						m, err := mk.make(geom)
						if err != nil {
							t.Fatal(err)
						}
						for _, target := range []int{0, 3, geom.Banks() - 1} {
							p.TargetBank = target
							t.Run(fmt.Sprintf("%s-r%d-c%d-b%d", mk.name, ranks, channels, target), func(t *testing.T) {
								checkAim(t, p, m)
							})
						}
					}
				}
			}
		})
	}
}

// checkAim demands exact aim of 4096 accesses: each lands on the (rank,
// bank) p.TargetBank names as a flat bank within a channel, the channels
// take equal turns, the row changes on every access a channel sees
// (rowthrash alternates by construction, bankhammer never repeats a row
// back to back), and no line is revisited within that cache-sized
// window.
func checkAim(t *testing.T, p Profile, m addrmap.Mapper) {
	lim := m.Geometry().Bounds()
	g, err := NewGeneratorOn(p, 1, 7, m)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	lastRow := make([]int, lim.Channel)
	touched := make([]int, lim.Channel)
	for i, a := range memAddrs(t, g, 4096) {
		c := m.Decode(a)
		if flat := c.Rank*lim.Bank + c.Bank; flat != p.TargetBank {
			t.Fatalf("access %d: rank %d bank %d, want flat bank %d (addr %#x row %d)", i, c.Rank, c.Bank, p.TargetBank, a, c.Row)
		}
		if touched[c.Channel] > 0 && c.Row == lastRow[c.Channel] {
			t.Fatalf("access %d: channel %d sees row %d twice running; attack is not thrashing", i, c.Channel, c.Row)
		}
		lastRow[c.Channel] = c.Row
		touched[c.Channel]++
		if seen[a] {
			t.Fatalf("access %d: line %#x reused within a cache-sized window", i, a)
		}
		seen[a] = true
	}
	for ch, n := range touched {
		if n != 4096/lim.Channel {
			t.Errorf("channel %d saw %d of 4096 accesses; the pressure does not rotate evenly: %v", ch, n, touched)
		}
	}
}

// TestAttackGeometryErrors pins the construction-time validation: a
// TargetBank beyond ranks x banks per rank is refused. (Illegal shapes
// are refused where the rule lives, addrmap.TestGeometryValidate.)
func TestAttackGeometryErrors(t *testing.T) {
	p, err := ByName("bankhammer")
	if err != nil {
		t.Fatal(err)
	}
	p.TargetBank = 8 // outside the default 8-bank geometry
	if _, err := NewGenerator(p, 0, 1); err == nil {
		t.Error("out-of-range TargetBank accepted")
	}
	geom := addrmap.Table5()
	geom.Ranks = 2
	m, err := addrmap.NewLinear(geom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGeneratorOn(p, 0, 1, m); err != nil {
		t.Errorf("bank 8 of a 2-rank system refused: %v", err)
	}
	p.TargetBank = 16
	if _, err := NewGeneratorOn(p, 0, 1, m); err == nil {
		t.Error("out-of-range TargetBank accepted on two ranks")
	}
}

// TestAntagonistDeterminism: identical (profile, thread, seed) yields
// bit-identical streams; a different seed diverges.
func TestAntagonistDeterminism(t *testing.T) {
	for _, name := range AntagonistNames() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := NewGenerator(p, 0, 11)
		b, _ := NewGenerator(p, 0, 11)
		c, _ := NewGenerator(p, 0, 12)
		var ia, ib, ic Instr
		diverged := false
		for i := 0; i < 50_000; i++ {
			a.Next(&ia)
			b.Next(&ib)
			c.Next(&ic)
			if ia != ib {
				t.Fatalf("%s: same seed diverged at instruction %d", name, i)
			}
			if ia != ic {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: seed change did not perturb the stream", name)
		}
	}
}

// TestDiurnalEnvelope counts memory accesses per phase of the diurnal
// profile's period: the duty window must carry almost all of the
// traffic, and the envelope must repeat across periods.
func TestDiurnalEnvelope(t *testing.T) {
	p, err := ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	periods := 4
	high := make([]int, periods)
	low := make([]int, periods)
	duty := p.PhasePeriod * uint64(p.PhaseDutyPct) / 100
	var ins Instr
	for i := uint64(0); i < p.PhasePeriod*uint64(periods); i++ {
		g.Next(&ins)
		if ins.Kind != KindLoad && ins.Kind != KindStore {
			continue
		}
		period := int(i / p.PhasePeriod)
		if i%p.PhasePeriod < duty {
			high[period]++
		} else {
			low[period]++
		}
	}
	for k := 0; k < periods; k++ {
		// The duty window covers 40% of the period at MemFrac 0.50; the
		// off phase runs at 0.005. Demand a 20x intensity contrast
		// (the configured contrast is 100x).
		hiRate := float64(high[k]) / float64(duty)
		loRate := float64(low[k]) / float64(p.PhasePeriod-duty)
		if hiRate < 20*loRate {
			t.Errorf("period %d: high-phase rate %.4f not >> low-phase rate %.4f", k, hiRate, loRate)
		}
		if hiRate < 0.3 {
			t.Errorf("period %d: high-phase rate %.4f too low for MemFrac %.2f", k, hiRate, p.MemFrac)
		}
	}
}

// TestAntagonistSnapshotMidStream checkpoints every antagonist
// generator mid-stream — for the diurnal profile, inside the duty
// burst — and demands the restored generator continue bit-identically
// (checkResume).
func TestAntagonistSnapshotMidStream(t *testing.T) {
	for _, name := range AntagonistNames() {
		t.Run(name, func(t *testing.T) {
			p, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			checkResume(t, p)
		})
	}
}

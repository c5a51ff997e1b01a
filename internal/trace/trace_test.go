package trace

import (
	"testing"
	"testing/quick"
)

func TestSuiteHasTwentyOrderedBenchmarks(t *testing.T) {
	s := Suite()
	if len(s) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20", len(s))
	}
	prev := 2.0
	seen := map[string]bool{}
	for _, p := range s {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.SoloUtilTarget > prev {
			t.Errorf("%s breaks Figure 4 ordering (%v after %v)", p.Name, p.SoloUtilTarget, prev)
		}
		prev = p.SoloUtilTarget
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		seen[p.Name] = true
	}
	// The benchmarks the paper's text names must be present.
	for _, n := range []string{"art", "vpr", "crafty", "lucas", "apsi", "ammp", "gzip", "swim", "mgrid", "twolf", "sixtrack", "perlbmk"} {
		if !seen[n] {
			t.Errorf("suite missing %s", n)
		}
	}
	// art leads, and the paper's "less than 2%" trio trails.
	if s[0].Name != "art" {
		t.Errorf("most aggressive benchmark is %s, want art", s[0].Name)
	}
	for _, p := range s[17:] {
		if p.SoloUtilTarget >= 0.04 {
			t.Errorf("%s: excluded tail benchmark with target %v", p.Name, p.SoloUtilTarget)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("vpr")
	if err != nil || p.Name != "vpr" {
		t.Fatalf("ByName(vpr) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

func TestFourCoreWorkloads(t *testing.T) {
	wls := FourCoreWorkloads()
	if len(wls) != 4 {
		t.Fatalf("%d workloads", len(wls))
	}
	// The paper names the first workload: art, lucas, apsi, ammp.
	want := []string{"art", "lucas", "apsi", "ammp"}
	for i, n := range want {
		if wls[0][i] != n {
			t.Fatalf("workload 1 = %v, want %v", wls[0], want)
		}
	}
	// All sixteen distinct, none from the excluded tail.
	seen := map[string]bool{}
	excluded := map[string]bool{}
	for _, p := range Suite()[16:] {
		excluded[p.Name] = true
	}
	for _, wl := range wls {
		if len(wl) != 4 {
			t.Fatalf("workload size %d", len(wl))
		}
		for _, n := range wl {
			if seen[n] {
				t.Errorf("%s in two workloads", n)
			}
			if excluded[n] {
				t.Errorf("%s is an excluded benchmark", n)
			}
			seen[n] = true
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("art")
	g1, _ := NewGenerator(p, 0, 7)
	g2, _ := NewGenerator(p, 0, 7)
	var a, b Instr
	for i := 0; i < 10000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Different seed or thread changes the stream.
	g3, _ := NewGenerator(p, 1, 7)
	diff := false
	for i := 0; i < 100; i++ {
		g1.Next(&a)
		g3.Next(&b)
		if a != b {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different threads generated identical streams")
	}
}

func TestGeneratorAddressesStayInThreadRegion(t *testing.T) {
	p, _ := ByName("mcf")
	for _, thread := range []int{0, 3} {
		g, _ := NewGenerator(p, thread, 1)
		lo := uint64(thread) * regionLines
		hi := lo + regionLines
		var ins Instr
		for i := 0; i < 20000; i++ {
			g.Next(&ins)
			if ins.Kind == KindLoad || ins.Kind == KindStore {
				if ins.Addr < lo || ins.Addr >= hi {
					t.Fatalf("thread %d address %d outside [%d, %d)", thread, ins.Addr, lo, hi)
				}
			}
		}
	}
}

func TestGeneratorMemFraction(t *testing.T) {
	for _, name := range []string{"art", "vpr", "crafty"} {
		p, _ := ByName(name)
		g, _ := NewGenerator(p, 0, 3)
		var ins Instr
		mem := 0
		const n = 200000
		for i := 0; i < n; i++ {
			g.Next(&ins)
			if ins.Kind == KindLoad || ins.Kind == KindStore {
				mem++
			}
		}
		got := float64(mem) / n
		if got < p.MemFrac*0.85 || got > p.MemFrac*1.15 {
			t.Errorf("%s: memory fraction %.4f, want about %.4f", name, got, p.MemFrac)
		}
	}
}

func TestGeneratorStoreFraction(t *testing.T) {
	p, _ := ByName("swim")
	g, _ := NewGenerator(p, 0, 3)
	var ins Instr
	loads, stores := 0, 0
	for i := 0; i < 200000; i++ {
		g.Next(&ins)
		switch ins.Kind {
		case KindLoad:
			loads++
		case KindStore:
			stores++
		}
	}
	got := float64(stores) / float64(loads+stores)
	if got < p.StoreFrac*0.8 || got > p.StoreFrac*1.2 {
		t.Errorf("store fraction %.3f, want about %.3f", got, p.StoreFrac)
	}
}

func TestChaseLoadsCarryDependences(t *testing.T) {
	p, _ := ByName("vpr") // chase-dominated
	g, _ := NewGenerator(p, 0, 3)
	var ins Instr
	loads, deps := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if ins.Kind == KindLoad {
			loads++
			if ins.Dep > 0 {
				deps++
			}
		}
	}
	if loads == 0 {
		t.Fatal("no loads")
	}
	if frac := float64(deps) / float64(loads); frac < 0.4 {
		t.Errorf("only %.2f of vpr loads carry dependences; chase broken", frac)
	}
}

func TestBurstsAreSequentialRuns(t *testing.T) {
	p, _ := ByName("art") // BurstLen 128, stream-coherent
	g, _ := NewGenerator(p, 0, 3)
	var ins Instr
	var run, maxRun int
	var last uint64
	for i := 0; i < 100000; i++ {
		g.Next(&ins)
		if ins.Kind == KindLoad || ins.Kind == KindStore {
			if ins.Addr == last+1 {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 0
			}
			last = ins.Addr
		}
	}
	if maxRun < 32 {
		t.Errorf("longest sequential run %d, want long bursts (>= 32)", maxRun)
	}
}

func TestCodeLine(t *testing.T) {
	p, _ := ByName("crafty") // CodeKB 32
	g, _ := NewGenerator(p, 0, 1)
	a1, ok := g.CodeLine()
	if !ok {
		t.Fatal("crafty should model I-fetch")
	}
	seen := map[uint64]bool{a1: true}
	for i := 0; i < 10000; i++ {
		a, _ := g.CodeLine()
		seen[a] = true
	}
	want := 32 * 1024 / 64
	if len(seen) != want {
		t.Errorf("code footprint %d lines, want %d", len(seen), want)
	}
	// Benchmarks without CodeKB report no I-fetch stream.
	p2, _ := ByName("art")
	g2, _ := NewGenerator(p2, 0, 1)
	if _, ok := g2.CodeLine(); ok {
		t.Error("art should not model I-fetch")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Name: "x", MemFrac: -0.1, WorkingSetKB: 1024},
		{Name: "x", MemFrac: 1.5, WorkingSetKB: 1024},
		{Name: "x", MemFrac: 0.1, StoreFrac: 2, WorkingSetKB: 1024},
		{Name: "x", MemFrac: 0.1, SeqFrac: 0.8, ChaseFrac: 0.5, WorkingSetKB: 1024},
		{Name: "x", MemFrac: 0.1, WorkingSetKB: 8},
		{Name: "x", MemFrac: 0.1, SeqFrac: 0.5, Streams: 0, WorkingSetKB: 1024},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, p)
		}
		if _, err := NewGenerator(p, 0, 1); err == nil {
			t.Errorf("case %d: NewGenerator accepted %+v", i, p)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindInt: "int", KindFp: "fp", KindLoad: "load", KindStore: "store", KindBranch: "branch",
	} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

// TestRNGUniformity is a sanity property: the embedded xorshift
// generator's intn output covers its range without gross bias.
func TestRNGUniformity(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRNG(seed)
		counts := make([]int, 8)
		for i := 0; i < 8000; i++ {
			counts[r.intn(8)]++
		}
		for _, c := range counts {
			if c < 700 || c > 1300 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteProfileShape holds every SPEC profile's generated stream to
// the profile it was built from: the memory and store fractions, data
// addresses inside the thread's working set, the compute and memory
// dependence ranges, and an I-fetch footprint of exactly CodeKB.
func TestSuiteProfileShape(t *testing.T) {
	for _, p := range Suite() {
		t.Run(p.Name, func(t *testing.T) {
			const thread, n = 2, 200_000
			g, err := NewGenerator(p, thread, 3)
			if err != nil {
				t.Fatal(err)
			}
			lo := uint64(thread) * regionLines
			hi := lo + uint64(p.WorkingSetKB*1024/lineBytes)
			var ins Instr
			loads, stores := 0, 0
			for i := 0; i < n; i++ {
				g.Next(&ins)
				switch ins.Kind {
				case KindLoad, KindStore:
					if ins.Kind == KindLoad {
						loads++
					} else {
						stores++
					}
					if ins.Addr < lo || ins.Addr >= hi {
						t.Fatalf("instruction %d: address %d outside the working set [%d, %d)", i, ins.Addr, lo, hi)
					}
					if ins.Dep < 0 || ins.Dep >= 64 {
						t.Fatalf("instruction %d: memory dependence %d", i, ins.Dep)
					}
				default:
					if ins.Addr != 0 || ins.Dep < 0 || ins.Dep >= 16 {
						t.Fatalf("instruction %d: compute instruction %+v", i, ins)
					}
				}
			}
			mem := loads + stores
			if got := float64(mem) / n; got < p.MemFrac*0.85 || got > p.MemFrac*1.15 {
				t.Errorf("memory fraction %.4f, want about %.4f", got, p.MemFrac)
			}
			if got := float64(stores) / float64(mem); got < p.StoreFrac-0.05 || got > p.StoreFrac+0.05 {
				t.Errorf("store fraction %.3f, want about %.3f", got, p.StoreFrac)
			}
			want := p.CodeKB * 1024 / lineBytes
			seen := map[uint64]bool{}
			for i := 0; i < 2*want; i++ {
				a, ok := g.CodeLine()
				if !ok {
					t.Fatalf("CodeKB %d but no I-fetch stream", p.CodeKB)
				}
				seen[a] = true
			}
			if _, ok := g.CodeLine(); ok != (want > 0) {
				t.Errorf("CodeKB %d: I-fetch modeled = %v", p.CodeKB, ok)
			}
			if len(seen) != want {
				t.Errorf("code footprint %d lines, want %d", len(seen), want)
			}
		})
	}
}

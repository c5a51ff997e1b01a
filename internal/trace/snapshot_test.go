package trace

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// save encodes g's checkpointed cursor.
func save(t *testing.T, g *Generator) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewEncoder(&buf)
	if err := g.State(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load decodes b into g and returns the decoder's verdict.
func load(g *Generator, b []byte) error {
	r, err := snapshot.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return g.State(r)
}

// checkResume checkpoints a generator for p mid-stream and demands a
// fresh generator restored from it continue bit-identically.
func checkResume(t *testing.T, p Profile) {
	t.Helper()
	g, err := NewGenerator(p, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// An odd cutover instruction count, inside the diurnal profile's
	// duty burst (10_007 < 24_000 of the 60_000 period) so the restored
	// envelope phase is exercised too.
	var ins Instr
	for i := 0; i < 10_007; i++ {
		g.Next(&ins)
	}
	b := save(t, g)
	h, err := NewGenerator(p, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(h, b); err != nil {
		t.Fatal(err)
	}
	var x, y Instr
	for i := 0; i < 200_000; i++ {
		g.Next(&x)
		h.Next(&y)
		if x != y {
			t.Fatalf("restored stream diverged at instruction %d: %+v vs %+v", i, x, y)
		}
		xa, xok := g.CodeLine()
		ya, yok := h.CodeLine()
		if xa != ya || xok != yok {
			t.Fatalf("restored code stream diverged at instruction %d: %d vs %d", i, xa, ya)
		}
	}
}

// TestSuiteSnapshotMidStream is TestAntagonistSnapshotMidStream for
// every SPEC profile, whose cursor spans more streams, pointer chases
// and an I-fetch position.
func TestSuiteSnapshotMidStream(t *testing.T) {
	for _, p := range Suite() {
		t.Run(p.Name, func(t *testing.T) { checkResume(t, p) })
	}
}

// TestGeneratorStateRejectsHostileCursor restores checkpoints whose
// cursor would index past the generator's streams, or whose layout does
// not fit the generator, and demands an error rather than a latent
// panic on the next instruction.
func TestGeneratorStateRejectsHostileCursor(t *testing.T) {
	swim, _ := ByName("swim") // six streams
	art, _ := ByName("art")   // one stream
	cases := []struct {
		name  string
		from  Profile
		into  Profile
		plant func(g *Generator)
		cut   bool
	}{
		{name: "negative next stream", from: swim, into: swim, plant: func(g *Generator) { g.nextStream = -1 }},
		{name: "next stream past the last", from: swim, into: swim, plant: func(g *Generator) { g.nextStream = len(g.streamPos) }},
		{name: "burst stream below unpinned", from: swim, into: swim, plant: func(g *Generator) { g.burstStream = -2 }},
		{name: "burst stream past the last", from: swim, into: swim, plant: func(g *Generator) { g.burstStream = len(g.streamPos) }},
		{name: "stream count mismatch", from: swim, into: art},
		{name: "truncated", from: swim, into: swim, cut: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewGenerator(c.from, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			var ins Instr
			for i := 0; i < 5_000; i++ {
				g.Next(&ins)
			}
			if c.plant != nil {
				c.plant(g)
			}
			b := save(t, g)
			if c.cut {
				b = b[:len(b)-5]
			}
			h, err := NewGenerator(c.into, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := load(h, b); err == nil {
				t.Fatal("restore accepted the checkpoint")
			}
		})
	}
}

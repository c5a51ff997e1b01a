package addrmap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testGeometry() Geometry {
	return Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 16384, ColsPerRow: 128}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if err := Table5().Validate(); err != nil {
		t.Fatalf("Table 5 geometry invalid: %v", err)
	}
	// The largest address space: 63 line-address bits.
	if err := (Geometry{Channels: 16, Ranks: 2, BanksPerRank: 8, RowsPerBank: 1 << 48, ColsPerRow: 128}).Validate(); err != nil {
		t.Errorf("63-bit geometry refused: %v", err)
	}
	bad := []struct {
		g    Geometry
		want string // the dimension the error must name
	}{
		{Geometry{Ranks: 0, BanksPerRank: 8, RowsPerBank: 16, ColsPerRow: 16}, "ranks"},
		{Geometry{Ranks: 1, BanksPerRank: 6, RowsPerBank: 16, ColsPerRow: 16}, "banks per rank"}, // not power of two
		{Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 0, ColsPerRow: 16}, "rows per bank"},
		{Geometry{Ranks: 3, BanksPerRank: 8, RowsPerBank: 16, ColsPerRow: 16}, "ranks"},
		{Geometry{Ranks: 1, BanksPerRank: 8, RowsPerBank: 16, ColsPerRow: -16}, "cols per row"},
		// Moved here from trace.TestAttackGeometryErrors with the rule.
		{Geometry{Channels: 3, Ranks: 1, BanksPerRank: 8, RowsPerBank: 16384, ColsPerRow: 128}, "channels"},
		{Geometry{Channels: -2, Ranks: 1, BanksPerRank: 8, RowsPerBank: 16, ColsPerRow: 16}, "channels"},
		// Lines() would be 2^64 and wrap to zero.
		{Geometry{Channels: 16, Ranks: 2, BanksPerRank: 8, RowsPerBank: 1 << 49, ColsPerRow: 128}, "line-address bits"},
	}
	for i, c := range bad {
		if err := c.g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: %+v: error = %v, want one naming %q", i, c.g, err, c.want)
		}
		if _, err := NewXOR(c.g); err == nil {
			t.Errorf("case %d: NewXOR built a mapper over %+v", i, c.g)
		}
	}
}

// TestEncodeDecodeRoundTrip holds both mappers to the Mapper contract
// over random power-of-two geometries: Encode and Decode are inverses,
// on in-range coordinates and on line addresses below Lines().
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		g := Geometry{
			Channels:     1 << rng.Intn(5),
			Ranks:        1 << rng.Intn(3),
			BanksPerRank: 1 << rng.Intn(5),
			RowsPerBank:  1 << rng.Intn(18),
			ColsPerRow:   1 << rng.Intn(9),
		}
		lin, err := NewLinear(g)
		if err != nil {
			t.Fatal(err)
		}
		xor, err := NewXOR(g)
		if err != nil {
			t.Fatal(err)
		}
		lim := g.Bounds()
		for _, m := range []Mapper{lin, xor} {
			if m.Geometry() != g {
				t.Fatalf("%s: Geometry() = %+v, built over %+v", m.Name(), m.Geometry(), g)
			}
			for j := 0; j < 200; j++ {
				c := Coord{
					Channel: rng.Intn(lim.Channel), Rank: rng.Intn(lim.Rank), Bank: rng.Intn(lim.Bank),
					Row: rng.Intn(lim.Row), Col: rng.Intn(lim.Col),
				}
				a := m.Encode(c)
				if a >= g.Lines() || m.Decode(a) != c {
					t.Fatalf("%s over %+v: Encode(%+v) = %#x decodes to %+v", m.Name(), g, c, a, m.Decode(a))
				}
				a = rng.Uint64() % g.Lines()
				if got := m.Encode(m.Decode(a)); got != a {
					t.Fatalf("%s over %+v: Encode(Decode(%#x)) = %#x", m.Name(), g, a, got)
				}
			}
		}
	}
}

func TestLinearRoundTrip(t *testing.T) {
	m, err := NewLinear(testGeometry())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a uint64) bool {
		a %= testGeometry().Lines()
		c := m.Decode(a)
		return m.Encode(c) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWithinBounds(t *testing.T) {
	g := testGeometry()
	lin, _ := NewLinear(g)
	xor, _ := NewXOR(g)
	for _, m := range []Mapper{lin, xor} {
		f := func(a uint64) bool {
			c := m.Decode(a)
			return c.Rank >= 0 && c.Rank < g.Ranks &&
				c.Bank >= 0 && c.Bank < g.BanksPerRank &&
				c.Row >= 0 && c.Row < g.RowsPerBank &&
				c.Col >= 0 && c.Col < g.ColsPerRow
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

func TestLinearSequentialStreamsWithinRow(t *testing.T) {
	m, _ := NewLinear(testGeometry())
	// Consecutive lines share rank/bank/row until the column wraps.
	c0 := m.Decode(0)
	for a := uint64(1); a < 128; a++ {
		c := m.Decode(a)
		if c.Rank != c0.Rank || c.Bank != c0.Bank || c.Row != c0.Row {
			t.Fatalf("line %d left the row: %+v vs %+v", a, c, c0)
		}
		if c.Col != int(a) {
			t.Fatalf("line %d col = %d", a, c.Col)
		}
	}
	if c := m.Decode(128); c.Bank == c0.Bank && c.Row == c0.Row {
		t.Fatal("line 128 did not advance bank/row")
	}
}

func TestXORPreservesAllButBank(t *testing.T) {
	g := testGeometry()
	lin, _ := NewLinear(g)
	xor, _ := NewXOR(g)
	f := func(a uint64) bool {
		cl, cx := lin.Decode(a), xor.Decode(a)
		return cl.Rank == cx.Rank && cl.Row == cx.Row && cl.Col == cx.Col
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXORSpreadsConflictingRows(t *testing.T) {
	g := testGeometry()
	lin, _ := NewLinear(g)
	xor, _ := NewXOR(g)
	// Addresses that alias to the same bank under the linear map (same
	// bank bits, consecutive rows) spread across banks under XOR.
	banks := map[int]bool{}
	for row := 0; row < 8; row++ {
		a := lin.Encode(Coord{Rank: 0, Bank: 3, Row: row, Col: 0})
		banks[xor.Decode(a).Bank] = true
	}
	if len(banks) != 8 {
		t.Fatalf("XOR spread 8 conflicting rows over %d banks, want 8", len(banks))
	}
}

func TestXORIsPermutationPerRow(t *testing.T) {
	g := testGeometry()
	xor, _ := NewXOR(g)
	lin, _ := NewLinear(g)
	// For a fixed row, the bank mapping is a bijection.
	for row := 0; row < 4; row++ {
		seen := map[int]bool{}
		for b := 0; b < g.BanksPerRank; b++ {
			a := lin.Encode(Coord{Rank: 0, Bank: b, Row: row, Col: 0})
			nb := xor.Decode(a).Bank
			if seen[nb] {
				t.Fatalf("row %d: bank %d mapped twice", row, nb)
			}
			seen[nb] = true
		}
	}
}

func TestMapperNames(t *testing.T) {
	lin, _ := NewLinear(testGeometry())
	xor, _ := NewXOR(testGeometry())
	if lin.Name() != "linear" || xor.Name() != "xor" {
		t.Errorf("names = %q, %q", lin.Name(), xor.Name())
	}
	if lin.Geometry().Banks() != 8 || xor.Geometry() != lin.Geometry() {
		t.Errorf("geometries = %+v, %+v, want 8 banks each", lin.Geometry(), xor.Geometry())
	}
}

// TestMapperBijectivity exhaustively decodes a small geometry's full
// address space for every mapping mode at 1, 2, and 4 channels and
// asserts the map is a bijection: every (channel, rank, bank, row, col)
// coordinate is produced by exactly one line address. A mapper that
// aliased two addresses onto one DRAM location (or left holes) would
// silently corrupt every experiment built on it.
func TestMapperBijectivity(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		g := Geometry{
			Channels:     channels,
			Ranks:        2,
			BanksPerRank: 4,
			RowsPerBank:  16,
			ColsPerRow:   8,
		}
		for _, mode := range []struct {
			name string
			make func(Geometry) (Mapper, error)
		}{
			{"linear", func(g Geometry) (Mapper, error) { return NewLinear(g) }},
			{"xor", func(g Geometry) (Mapper, error) { return NewXOR(g) }},
		} {
			t.Run(fmt.Sprintf("%s/ch%d", mode.name, channels), func(t *testing.T) {
				m, err := mode.make(g)
				if err != nil {
					t.Fatal(err)
				}
				lines := g.Lines()
				index := func(c Coord) uint64 {
					// Flatten with explicit bounds checking so an
					// out-of-range coordinate fails loudly rather than
					// aliasing into a neighbor's slot.
					if c.Channel < 0 || c.Channel >= channels ||
						c.Rank < 0 || c.Rank >= g.Ranks ||
						c.Bank < 0 || c.Bank >= g.BanksPerRank ||
						c.Row < 0 || c.Row >= g.RowsPerBank ||
						c.Col < 0 || c.Col >= g.ColsPerRow {
						t.Fatalf("coordinate out of bounds: %+v", c)
					}
					i := uint64(c.Channel)
					i = i*uint64(g.Ranks) + uint64(c.Rank)
					i = i*uint64(g.BanksPerRank) + uint64(c.Bank)
					i = i*uint64(g.RowsPerBank) + uint64(c.Row)
					i = i*uint64(g.ColsPerRow) + uint64(c.Col)
					return i
				}
				hitBy := make(map[uint64]uint64, lines)
				for a := uint64(0); a < lines; a++ {
					c := m.Decode(a)
					i := index(c)
					if prev, dup := hitBy[i]; dup {
						t.Fatalf("addresses %d and %d both decode to %+v", prev, a, c)
					}
					hitBy[i] = a
				}
				// Injective over a domain the same size as the codomain
				// implies surjective; double-check the count anyway.
				if uint64(len(hitBy)) != lines {
					t.Fatalf("decoded %d distinct coordinates, want %d", len(hitBy), lines)
				}
			})
		}
	}
}

// TestLinearEncodeInverseAllChannels pins Encode as the exact inverse of
// Linear.Decode across the full small-geometry address space at every
// channel count (the quick.Check round trip above only samples).
func TestLinearEncodeInverseAllChannels(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		g := Geometry{Channels: channels, Ranks: 2, BanksPerRank: 4, RowsPerBank: 16, ColsPerRow: 8}
		m, err := NewLinear(g)
		if err != nil {
			t.Fatal(err)
		}
		for a := uint64(0); a < g.Lines(); a++ {
			if got := m.Encode(m.Decode(a)); got != a {
				t.Fatalf("ch%d: Encode(Decode(%d)) = %d", channels, a, got)
			}
		}
	}
}

func TestMultiRankGeometry(t *testing.T) {
	g := Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 1024, ColsPerRow: 64}
	m, err := NewXOR(g)
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[int]bool{}
	for a := uint64(0); a < g.Lines(); a += 997 {
		c := m.Decode(a)
		ranks[c.Rank] = true
		if c.Rank < 0 || c.Rank >= 2 || c.Bank < 0 || c.Bank >= 4 {
			t.Fatalf("out of bounds: %+v", c)
		}
	}
	if len(ranks) != 2 {
		t.Fatalf("addresses touched %d ranks, want 2", len(ranks))
	}
}

// Package addrmap is the one statement of how a physical line address
// is laid out over DRAM coordinates (channel, rank, bank, row, column)
// and of what a legal memory-system shape is. It implements the XOR bank
// mapping of Lin et al. (HPCA '01), which the paper's memory controller
// uses to spread row-conflicting streams across banks, plus a plain
// linear mapping for ablation.
package addrmap

import "fmt"

// Coord is a decoded DRAM coordinate.
type Coord struct {
	Channel, Rank, Bank, Row, Col int
}

// Mapper is a bijection between physical line addresses (an address
// already divided by the cache line size) below Geometry().Lines() and
// DRAM coordinates.
type Mapper interface {
	// Decode maps a line address to its DRAM coordinate.
	Decode(lineAddr uint64) Coord
	// Encode is the inverse of Decode: the line address of an in-range
	// coordinate. The controller decodes with it and the attack
	// generators (package trace) aim with it, so the two cannot disagree.
	Encode(Coord) uint64
	// Geometry returns the shape the mapper addresses, Channels >= 1.
	Geometry() Geometry
	// Name identifies the mapping for reports.
	Name() string
}

// Geometry describes the address space shape shared by both mappers.
// All fields must be powers of two. Channels == 0 means one channel.
type Geometry struct {
	Channels     int // memory channels, interleaved at line granularity
	Ranks        int
	BanksPerRank int
	RowsPerBank  int
	ColsPerRow   int // cache lines per row
}

// Table5 is the paper's Table 5 memory system shape: one channel, one
// rank, eight banks, 16384 rows of 8KB (128 64-byte cache lines), a
// typical DDR2 page size.
func Table5() Geometry {
	return Geometry{Channels: 1, Ranks: 1, BanksPerRank: 8, RowsPerBank: 16384, ColsPerRow: 128}
}

// Validate checks that every dimension is a positive power of two and
// that the line addresses fit in 64 bits. It is the only place a shape
// dimension is tested; dram and memctrl delegate here.
func (g Geometry) Validate() error {
	var addrBits uint
	for _, d := range [...]struct {
		name string
		v    int
	}{
		{"channels", g.Bounds().Channel},
		{"ranks", g.Ranks},
		{"banks per rank", g.BanksPerRank},
		{"rows per bank", g.RowsPerBank},
		{"cols per row", g.ColsPerRow},
	} {
		if d.v < 1 || d.v&(d.v-1) != 0 {
			return fmt.Errorf("addrmap: %s must be a positive power of two, got %d", d.name, d.v)
		}
		addrBits += log2(d.v)
	}
	if addrBits > 63 {
		return fmt.Errorf("addrmap: %+v needs %d line-address bits, more than 63", g, addrBits)
	}
	return nil
}

// Bounds returns the exclusive upper bound of every coordinate field: c
// is in range when 0 <= field < the same field of Bounds(). It is where
// "Channels == 0 means one channel" is decided.
func (g Geometry) Bounds() Coord {
	ch := g.Channels
	if ch == 0 {
		ch = 1
	}
	return Coord{Channel: ch, Rank: g.Ranks, Bank: g.BanksPerRank, Row: g.RowsPerBank, Col: g.ColsPerRow}
}

// Banks returns the bank count per channel.
func (g Geometry) Banks() int { return g.Ranks * g.BanksPerRank }

// Lines returns the total number of cache lines the geometry addresses.
func (g Geometry) Lines() uint64 {
	return uint64(g.Bounds().Channel) * uint64(g.Ranks) * uint64(g.BanksPerRank) * uint64(g.RowsPerBank) * uint64(g.ColsPerRow)
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Linear maps address bits as row | rank | bank | column | channel
// (channels interleave at line granularity; within a channel, low bits
// are the column, so consecutive lines stream within one row of one
// bank).
type Linear struct {
	g                                     Geometry
	chanBits, colBits, bankBits, rankBits uint
	chanMask, colMask, bankMask, rankMask uint64
	rowMask                               uint64
}

// NewLinear returns a linear mapper over the geometry.
func NewLinear(g Geometry) (*Linear, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.Channels = g.Bounds().Channel
	m := &Linear{g: g}
	m.chanBits = log2(g.Channels)
	m.colBits = log2(g.ColsPerRow)
	m.bankBits = log2(g.BanksPerRank)
	m.rankBits = log2(g.Ranks)
	m.chanMask = uint64(g.Channels - 1)
	m.colMask = uint64(g.ColsPerRow - 1)
	m.bankMask = uint64(g.BanksPerRank - 1)
	m.rankMask = uint64(g.Ranks - 1)
	m.rowMask = uint64(g.RowsPerBank - 1)
	return m, nil
}

// Decode implements Mapper.
func (m *Linear) Decode(lineAddr uint64) Coord {
	ch := lineAddr & m.chanMask
	lineAddr >>= m.chanBits
	col := lineAddr & m.colMask
	lineAddr >>= m.colBits
	bank := lineAddr & m.bankMask
	lineAddr >>= m.bankBits
	rank := lineAddr & m.rankMask
	lineAddr >>= m.rankBits
	row := lineAddr & m.rowMask
	return Coord{Channel: int(ch), Rank: int(rank), Bank: int(bank), Row: int(row), Col: int(col)}
}

// Geometry implements Mapper.
func (m *Linear) Geometry() Geometry { return m.g }

// Name implements Mapper.
func (m *Linear) Name() string { return "linear" }

// XOR is the Lin et al. permutation-based mapping: the bank index is the
// linear bank bits XORed with the low row bits, so that streams that
// would conflict in one bank under the linear map instead spread across
// banks while preserving row locality.
type XOR struct {
	Linear
}

// permute XORs the low row bits into the bank index; for a fixed row it
// is its own inverse.
func (m *XOR) permute(c Coord) Coord {
	c.Bank = int(uint64(c.Bank) ^ uint64(c.Row)&m.bankMask)
	return c
}

// NewXOR returns an XOR-permuted mapper over the geometry.
func NewXOR(g Geometry) (*XOR, error) {
	lin, err := NewLinear(g)
	if err != nil {
		return nil, err
	}
	return &XOR{Linear: *lin}, nil
}

// Decode implements Mapper.
func (m *XOR) Decode(lineAddr uint64) Coord { return m.permute(m.Linear.Decode(lineAddr)) }

// Encode implements Mapper.
func (m *XOR) Encode(c Coord) uint64 { return m.Linear.Encode(m.permute(c)) }

// Name implements Mapper.
func (m *XOR) Name() string { return "xor" }

// Encode implements Mapper: the inverse of Linear.Decode, and the only
// place the row | rank | bank | column | channel layout is assembled.
func (m *Linear) Encode(c Coord) uint64 {
	a := uint64(c.Row) & m.rowMask
	a = a<<m.rankBits | uint64(c.Rank)&m.rankMask
	a = a<<m.bankBits | uint64(c.Bank)&m.bankMask
	a = a<<m.colBits | uint64(c.Col)&m.colMask
	a = a<<m.chanBits | uint64(c.Channel)&m.chanMask
	return a
}

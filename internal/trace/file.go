package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The paper drives its simulator with "100 million instruction SPEC
// benchmark sampled traces". This file implements that workflow for the
// synthetic suite: a compact binary trace format so instruction streams
// can be recorded once (cmd/tracegen), archived, diffed, and replayed
// bit-exactly -- or replaced with externally captured traces that use
// the same format.
//
// Format (little endian):
//
//	magic   [8]byte  "FQMSTRC1"
//	name    uint16-prefixed UTF-8 benchmark name
//	codeKB  uint32   I-fetch footprint (0 = no I-fetch stream)
//	count   uint64   number of instructions
//	records count x {
//	    kind uint8
//	    dep  uint8   (producer distance, 0 = none; saturates at 255)
//	    lat  uint8
//	    addr uint64  (loads/stores only)
//	}

var fileMagic = [8]byte{'F', 'Q', 'M', 'S', 'T', 'R', 'C', '1'}

// Source produces the instruction stream for one thread. Generator
// (synthesis) and Reader (replay) both implement it; the CPU model
// consumes either.
type Source interface {
	// Next fills in the next instruction.
	Next(ins *Instr)
	// CodeLine returns the current instruction-fetch line address; ok
	// is false when I-fetch is not modeled.
	CodeLine() (addr uint64, ok bool)
	// Name identifies the workload.
	Name() string
}

var (
	_ Source = (*Generator)(nil)
	_ Source = (*Reader)(nil)
)

// WriteTrace records n instructions from the source to w.
func WriteTrace(w io.Writer, src Source, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	name := src.Name()
	if len(name) > 1<<16-1 {
		return fmt.Errorf("trace: name too long")
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
	bw.Write(u16[:])
	bw.WriteString(name)
	var u32 [4]byte
	codeKB := uint32(0)
	switch s := src.(type) {
	case *Generator:
		codeKB = uint32(s.p.CodeKB)
	case *Reader:
		// Re-recording a replayed trace must preserve the I-fetch
		// footprint, or the second generation silently loses its code
		// stream.
		codeKB = uint32(s.codeKB)
	}
	binary.LittleEndian.PutUint32(u32[:], codeKB)
	bw.Write(u32[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], n)
	bw.Write(u64[:])

	var ins Instr
	for i := uint64(0); i < n; i++ {
		src.Next(&ins)
		dep := ins.Dep
		if dep > 255 {
			dep = 0 // beyond any ROB; drop the edge
		}
		rec := [3]byte{byte(ins.Kind), byte(dep), byte(ins.Lat)}
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if ins.Kind == KindLoad || ins.Kind == KindStore {
			binary.LittleEndian.PutUint64(u64[:], ins.Addr)
			if _, err := bw.Write(u64[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Reader replays a recorded trace, looping when it reaches the end (the
// measurement window decides how much is consumed, mirroring Generator
// semantics).
type Reader struct {
	name    string
	codeKB  int
	records []Instr

	pos       int
	codeLines int
	codePos   uint64
}

// ReadTrace loads an entire trace into memory for replay.
func ReadTrace(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint16(u16[:])
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	codeKB := binary.LittleEndian.Uint32(u32[:])
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(u64[:])
	if count == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	const maxTrace = 1 << 28 // 256M instructions
	if count > maxTrace {
		return nil, fmt.Errorf("trace: %d instructions exceeds the %d cap", count, maxTrace)
	}
	// The header's count is untrusted: grow the slice as records
	// actually arrive so a tiny file claiming 256M instructions fails on
	// its first short read instead of allocating gigabytes up front.
	const allocChunk = 1 << 16
	records := make([]Instr, 0, min(count, allocChunk))
	var rec [3]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		ins := Instr{Kind: Kind(rec[0]), Dep: int(rec[1]), Lat: int(rec[2])}
		if ins.Kind > KindBranch {
			return nil, fmt.Errorf("trace: record %d: bad kind %d", i, rec[0])
		}
		if ins.Kind == KindLoad || ins.Kind == KindStore {
			if _, err := io.ReadFull(br, u64[:]); err != nil {
				return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
			}
			ins.Addr = binary.LittleEndian.Uint64(u64[:])
		}
		records = append(records, ins)
	}
	return &Reader{
		name:      string(nameBuf),
		codeKB:    int(codeKB),
		codeLines: int(codeKB) * 1024 / lineBytes,
		records:   records,
	}, nil
}

// Name implements Source.
func (r *Reader) Name() string { return r.name }

// Len returns the number of recorded instructions.
func (r *Reader) Len() int { return len(r.records) }

// Next implements Source, looping over the recorded window.
func (r *Reader) Next(ins *Instr) {
	*ins = r.records[r.pos]
	r.pos++
	if r.pos == len(r.records) {
		r.pos = 0
	}
}

// CodeLine implements Source, mirroring Generator's cyclic code walk.
func (r *Reader) CodeLine() (uint64, bool) {
	if r.codeLines == 0 {
		return 0, false
	}
	a := uint64(regionLines/4) + r.codePos
	r.codePos++
	if r.codePos >= uint64(r.codeLines) {
		r.codePos = 0
	}
	return a, true
}

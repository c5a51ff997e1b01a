package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memctrl"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// fuzzConfig is the fixed configuration hostile snapshots are restored
// under. Sampling and audit are enabled so the fuzzer reaches every
// decode path, including the auditor's pointer re-linking.
func fuzzConfig(t testing.TB) Config {
	art, err := trace.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	vpr, err := trace.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workload:       []trace.Profile{art, vpr},
		Policy:         FQVFTF,
		Seed:           5,
		Audit:          true,
		SampleInterval: 1_000,
	}
}

// validSnapshot produces a well-formed checkpoint for seeding.
func validSnapshot(t testing.TB) []byte {
	return snapshotOf(t, fuzzConfig(t))
}

func snapshotOf(t testing.TB, cfg Config) []byte {
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(3_000)
	s.BeginMeasurement()
	s.Step(2_001)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreSnapshot feeds Restore hostile bytes: truncations,
// bit flips, and arbitrary garbage. The contract is that Restore
// returns an error for anything that is not a faithful snapshot — it
// must never panic, hang, or allocate unboundedly. Length caps bound
// every allocation before it happens, every index is validated before
// use, and the recover backstop converts anything residual into an
// error.
func FuzzRestoreSnapshot(f *testing.F) {
	valid := validSnapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("FQMSSNAP"))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// A few deterministic bit flips through the header, fingerprint,
	// and body regions.
	for _, off := range []int{0, 8, 12, 40, 100, len(valid) / 2, len(valid) - 1} {
		if off >= 0 && off < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0x40
			f.Add(mut)
		}
	}
	cfg := fuzzConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(cfg, bytes.NewReader(data))
		if err != nil {
			// Components decode in place, so a failed restore must not
			// hand back the half-loaded system.
			if s != nil {
				t.Fatalf("Restore returned a system alongside error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil system with nil error")
		}
		// A mutation can corrupt merely-stored values (counters,
		// timestamps) without tripping a structural check; Restore
		// accepting those is fine. Stepping such a system may trip the
		// runtime auditor, which panics with a diagnostic dump by
		// design — that is the corruption being *caught*, so it is
		// tolerated here. Only Restore itself must never panic.
		func() {
			defer func() { recover() }()
			s.Step(10)
		}()
	})
}

// TestRestoreHostileInputs runs the fuzz corpus shapes as a plain test
// so the guarantees hold in ordinary `go test` runs too.
func TestRestoreHostileInputs(t *testing.T) {
	valid := validSnapshot(t)
	cfg := fuzzConfig(t)
	cases := [][]byte{
		{},
		[]byte("not a snapshot at all"),
		[]byte("FQMSSNAP"),
		bytes.Repeat([]byte{0x00}, 256),
		bytes.Repeat([]byte{0xff}, 256),
	}
	for i := 1; i < len(valid); i += len(valid)/97 + 1 {
		cases = append(cases, valid[:i])
	}
	for off := 0; off < len(valid); off += len(valid)/211 + 1 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x04
		cases = append(cases, mut)
	}
	for i, data := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("case %d: Restore panicked: %v", i, p)
				}
			}()
			s, err := Restore(cfg, bytes.NewReader(data))
			if err != nil && s != nil {
				t.Fatalf("case %d: Restore returned a system alongside error %v", i, err)
			}
			if err == nil && s != nil {
				// Stepping may trip the runtime auditor on corrupted
				// counters — a deliberate diagnostic panic, tolerated
				// (see FuzzRestoreSnapshot).
				func() {
					defer func() { recover() }()
					s.Step(10)
				}()
			}
		}()
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
// ReadMemStats stops the world and flushes the per-P allocation caches,
// so the difference of two readings is exact.
func heapAllocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestRestoreHostileCounts writes a saturated element count over every
// byte offset of a snapshot in turn, so every count header in the
// format is hit exactly, whatever the layout. The count passes the
// generic snapshot.MaxSlice cap; each component must refuse it against
// what it was constructed to hold, or at worst grow with the bytes
// actually present, so no case may cost more memory than a valid
// restore plus a small margin. Caches are shrunk and sampling is off
// to keep the snapshot small enough to sweep whole; the sampler's
// sections are exercised by TestRestoreHostileInputs.
func TestRestoreHostileCounts(t *testing.T) {
	cfg := fuzzConfig(t)
	cfg.SampleInterval = 0
	cfg.Interference = true
	tiny := cache.Config{SizeKB: 1, Ways: 2, LineBytes: 64, Latency: 2}
	cfg.Cache = cache.DefaultHierarchyConfig()
	cfg.Cache.L1I, cfg.Cache.L1D, cfg.Cache.L2 = tiny, tiny, tiny
	valid := snapshotOf(t, cfg)

	restore := func(data []byte) (alloc uint64, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Restore panicked: %v", p)
			}
		}()
		before := heapAllocBytes()
		s, err := Restore(cfg, bytes.NewReader(data))
		alloc = heapAllocBytes() - before
		if err != nil && s != nil {
			t.Fatalf("Restore returned a system alongside error %v", err)
		}
		return alloc, err
	}
	budget, err := restore(valid)
	if err != nil {
		t.Fatal(err)
	}
	budget += 1 << 20

	// The headers that once allocated from snapshot.MaxSlice, by the
	// error each must now raise: the store buffer, the MSHR token
	// table (which starts at 64 entries), and the auditor's frozen-key
	// map (bounded by the controller's request buffers).
	mem := memctrl.DefaultConfig(len(cfg.Workload))
	refused := map[string]bool{}
	for _, c := range []struct {
		section string
		limit   int
	}{
		{"cpu.Core", cpu.DefaultConfig().StoreBuffer},
		{"cpu.Core", 64},
		{"audit.Auditor", mem.Threads * (mem.ReadEntriesPerThread + mem.WriteEntriesPerThread)},
	} {
		refused[fmt.Sprintf("%s: length %d exceeds cap %d", c.section, snapshot.MaxSlice, c.limit)] = false
	}

	mut := make([]byte, len(valid))
	for off := 0; off+4 <= len(valid); off++ {
		copy(mut, valid)
		binary.LittleEndian.PutUint32(mut[off:], snapshot.MaxSlice)
		alloc, err := restore(mut)
		if alloc > budget {
			t.Fatalf("offset %d: hostile restore allocated %d bytes (valid restore plus margin is %d); err %v",
				off, alloc, budget, err)
		}
		if err != nil {
			for want := range refused {
				if strings.Contains(err.Error(), want) {
					refused[want] = true
				}
			}
		}
	}
	for want, seen := range refused {
		if !seen {
			t.Errorf("no offset was refused with %q", want)
		}
	}
}

// TestRestoreHostileSeries rewrites the retained epochs of a
// checkpoint's metric and fairness series. A sampler record is
// positional over the registry and a fairness record over the threads,
// so restore must refuse a record that names a metric the registry does
// not hold, lacks one its entry count implies, files a metric under the
// wrong kind, or leaves the newest epoch short of the cumulative
// arrays; a latest snapshot that disagrees with the cumulative arrays;
// and a fairness column without one entry per thread. Restore turns a
// panic into a "corrupt snapshot" error, so each row demands its own
// refusal.
func TestRestoreHostileSeries(t *testing.T) {
	cfg := fuzzConfig(t)
	valid := validSnapshot(t)
	if _, err := Restore(cfg, bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	w := parseSeries(t, valid, len(cfg.Workload))
	first, newest := w.epochs[0], w.epochs[len(w.epochs)-1]
	if len(w.epochs) < 2 || len(first[counterMap].es) < 2 {
		t.Fatalf("%d retained epochs, the first with %d counters", len(w.epochs), len(first[counterMap].es))
	}
	if !bytes.Equal(encodeEntries(first[counterMap].es), valid[first[counterMap].at:first[counterMap].end]) {
		t.Fatal("the counter map does not re-encode to its bytes")
	}
	counters, gauges := first[counterMap].es, first[gaugeMap].es
	drop := 0 // a counter that is not the last registered item
	if counters[0].name == w.last.name {
		drop = 1
	}
	without := func(es []seriesEntry, name string) []seriesEntry {
		var out []seriesEntry
		for _, e := range es {
			if e.name != name {
				out = append(out, e)
			}
		}
		return out
	}
	// maps rewrites the counter and gauge maps of the first epoch.
	maps := func(c, g []seriesEntry) []byte {
		return splice(valid, first[counterMap].at, first[gaugeMap].end, append(encodeEntries(c), encodeEntries(g)...))
	}
	lastMap := newest[w.last.wireMap]
	bumped := bytes.Clone(w.latestCounters.es[0].v)
	bumped[0]++
	latest := append([]seriesEntry{{w.latestCounters.es[0].name, bumped}}, w.latestCounters.es[1:]...)
	short := splice(valid, w.fairColumn, w.fairColumn+4+8, binary.LittleEndian.AppendUint32(nil, uint32(len(cfg.Workload)-1)))
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"foreign name", maps(append([]seriesEntry{{"zz.not_registered", counters[0].v}}, counters[1:]...), gauges), "not among the record's counters"},
		{"missing metric", maps(without(counters, counters[drop].name), gauges), "not among the record's counters"},
		{"wrong kind", maps(without(counters, counters[0].name), append([]seriesEntry{counters[0]}, gauges...)), "not among the record's counters"},
		{"newest epoch short", splice(valid, lastMap.at, lastMap.end, encodeEntries(without(lastMap.es, w.last.name))), "newest epoch covers"},
		{"latest disagrees", splice(valid, w.latestCounters.at, w.latestCounters.end, encodeEntries(latest)), "latest snapshot disagrees"},
		{"short fairness column", short, "-entry column for"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := Restore(cfg, bytes.NewReader(c.data))
			if err == nil || s != nil {
				t.Fatalf("Restore = %v, %v; want a refusal naming %q", s != nil, err, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not say %q", err, c.want)
			}
		})
	}
}

// seriesEntry is one entry of an encoded sample map: a name and its
// value's bytes.
type seriesEntry struct {
	name string
	v    []byte
}

func encodeEntries(es []seriesEntry) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(es)))
	for _, e := range es {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.name)))
		b = append(append(b, e.name...), e.v...)
	}
	return b
}

// splice returns a copy of b with b[at:end] replaced by repl.
func splice(b []byte, at, end int, repl []byte) []byte {
	return append(append(append([]byte(nil), b[:at]...), repl...), b[end:]...)
}

// The sample maps of an encoded epoch, in wire order.
const (
	counterMap = iota
	gaugeMap
	histMap
)

// wireMap is an encoded sample map: its entries and the bytes they fill.
type wireMap struct {
	at, end int
	es      []seriesEntry
}

// seriesWire locates, in a checkpoint, what TestRestoreHostileSeries
// rewrites.
type seriesWire struct {
	last struct { // the last registered metric
		name    string
		wireMap int
	}
	epochs         [][3]wireMap // the sampler's retained epochs
	latestCounters wireMap      // the sampler's latest snapshot's counters
	fairColumn     int          // the first fairness epoch's Service column
}

func parseSeries(t *testing.T, b []byte, threads int) seriesWire {
	t.Helper()
	var w seriesWire
	off := 0
	section := func(name string) {
		at := bytes.Index(b, append(binary.LittleEndian.AppendUint32(nil, uint32(len(name))), name...))
		if at < 0 {
			t.Fatalf("no %s section", name)
		}
		off = at + 4 + len(name)
	}
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		return v
	}
	name := func() string {
		n := u32()
		off += n
		return string(b[off-n : off])
	}
	// entries reads a map whose values are fixed bytes and then, when
	// pairs is set, a slice of 16-byte pairs.
	entries := func(fixed int, pairs bool) wireMap {
		m := wireMap{at: off}
		m.es = make([]seriesEntry, u32())
		for i := range m.es {
			m.es[i].name = name()
			at := off
			off += fixed
			if pairs {
				off += 16 * u32()
			}
			m.es[i].v = b[at:off]
		}
		m.end = off
		return m
	}

	section("metrics.Registry")
	items := int(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	for range items {
		w.last.name = name()
		kind := b[off] // counter, gauge, histogram, func
		off++
		w.last.wireMap = [...]int{counterMap, gaugeMap, histMap, gaugeMap}[kind]
		off += [...]int{8, 8, 8*65 + 24, 0}[kind]
	}

	section("metrics.Sampler")
	off += 8                   // nextAt
	off += 8 * u32()           // prevCounter
	off += (8*65 + 16) * u32() // prevHist: bucket counts, n, sum
	off += 8                   // ring capacity
	w.epochs = make([][3]wireMap, u32())
	for i := range w.epochs {
		off += 16 // epoch, cycle
		w.epochs[i] = [3]wireMap{entries(8, false), entries(8, false), entries(16, true)}
	}
	off += 8 + 1 // epochs, latest-snapshot flag
	w.latestCounters = entries(8, false)

	section("memctrl.FairnessMonitor")
	off += 8                         // nextAt
	off += 5 * (4 + 8*threads)       // per-thread arrays, each with its length
	off += 4 + 8*threads*(threads+1) // prevMatrix
	off += 8                         // ring capacity
	if u32() == 0 {
		t.Fatal("no retained fairness epoch")
	}
	w.fairColumn = off + 16 // past epoch, cycle
	return w
}

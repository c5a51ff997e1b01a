package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
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
	t.Parallel() // measures no allocation, so it may share the host
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
// checkpoint's metric series. A sampler record is positional over the
// registry, so restore must refuse a record that does not parse against
// it (values past the last registered metric, a histogram's bucket
// count above the cap or past the record's end) and a newest epoch
// that covers fewer metrics than the cumulative arrays, whether it ends
// early or lacks one in the middle. Restore turns a panic into a
// "corrupt snapshot" error, so each row demands its own refusal.
func TestRestoreHostileSeries(t *testing.T) {
	cfg := fuzzConfig(t)
	valid := validSnapshot(t)
	if _, err := Restore(cfg, bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	w := parseSeries(t, valid)
	if len(w.records) < 2 {
		t.Fatalf("%d retained epochs", len(w.records))
	}
	newest := w.records[len(w.records)-1]
	if !bytes.Equal(encodeVals(newest.vals), valid[newest.at:newest.end]) {
		t.Fatal("the newest record does not re-encode to its bytes")
	}
	// Positions in the newest record: each item's first value, and the
	// last histogram with the single-value item after it.
	var starts []int
	lastHist := -1
	for i, v := 0, 0; v < len(newest.vals); i++ {
		starts = append(starts, v)
		n := 1
		if w.kinds[i] == histKind {
			lastHist, n = i, 3+2*int(newest.vals[v+2])
		}
		v += n
	}
	if len(starts) != len(w.kinds) || lastHist < 0 || lastHist+2 >= len(starts) {
		t.Fatalf("the newest record covers %d of %d metrics, last histogram %d", len(starts), len(w.kinds), lastHist)
	}
	hist := starts[lastHist]
	if tail := len(newest.vals) - hist; tail >= 3+2*histCap {
		t.Fatalf("%d values from the last histogram on: a full bucket count would not run past the end", tail)
	}
	// with rewrites the newest record's values.
	with := func(vals []int64) []byte { return splice(valid, newest.at, newest.end, encodeVals(vals)) }
	without := func(at int) []int64 { return append(slices.Clone(newest.vals[:at]), newest.vals[at+1:]...) }
	buckets := func(nb int64) []int64 {
		v := slices.Clone(newest.vals)
		v[hist+2] = nb
		return v
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"missing metric", with(without(starts[lastHist+1])), "newest epoch covers"},
		{"newest epoch short", with(newest.vals[:starts[len(starts)-1]]), "newest epoch covers"},
		{"values past the registry", with(append(slices.Clone(newest.vals), 7)), "values past the"},
		{"bucket count above the cap", with(buckets(histCap + 1)), "buckets, want at most"},
		{"negative bucket count", with(buckets(-1)), "buckets, want at most"},
		{"buckets past the end", with(buckets(histCap)), "runs past the record's end"},
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

// The registry's kind byte for a histogram, and its bucket count.
const (
	histKind = 2
	histCap  = 65
)

// encodeVals encodes a record's values as the sampler writes them: a
// count, then each value.
func encodeVals(vals []int64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// splice returns a copy of b with b[at:end] replaced by repl.
func splice(b []byte, at, end int, repl []byte) []byte {
	return append(append(append([]byte(nil), b[:at]...), repl...), b[end:]...)
}

// recordWire is an encoded sampler record's values and the bytes they
// fill, count header included.
type recordWire struct {
	at, end int
	vals    []int64
}

// seriesWire locates, in a checkpoint, what TestRestoreHostileSeries
// rewrites: the registry's item kinds and the sampler's retained records.
type seriesWire struct {
	kinds   []byte
	records []recordWire
}

func parseSeries(t *testing.T, b []byte) seriesWire {
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

	section("metrics.Registry")
	w.kinds = make([]byte, binary.LittleEndian.Uint64(b[off:]))
	off += 8
	for i := range w.kinds {
		off += u32()        // name
		w.kinds[i] = b[off] // counter, gauge, histogram, func
		off++
		off += [...]int{8, 8, 8*histCap + 24, 0}[w.kinds[i]]
	}

	section("metrics.Sampler")
	off += 8                        // nextAt
	off += 8 * u32()                // prevCounter
	off += (8*histCap + 24) * u32() // prevHist: bucket counts, n, sum, max
	off += 8                        // ring capacity
	w.records = make([]recordWire, u32())
	for i := range w.records {
		off += 16 // epoch, cycle
		r := recordWire{at: off}
		r.vals = make([]int64, u32())
		for j := range r.vals {
			r.vals[j] = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
		r.end = off
		w.records[i] = r
	}
	return w
}

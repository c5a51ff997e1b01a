package metrics

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/snapshot"
)

// TestSamplerDeltas drives a registry through three epochs and checks
// that counter deltas, gauge point values, Func evaluation, and
// histogram bucket deltas all difference correctly.
func TestSamplerDeltas(t *testing.T) {
	reg := New()
	c := reg.Counter("reqs")
	g := reg.Gauge("occ")
	h := reg.Histogram("lat")
	fnVal := int64(0)
	reg.Func("cycle", func() int64 { return fnVal })

	s := NewSampler(reg, SamplerConfig{Interval: 100, Capacity: 8})
	if s.NextSampleAt() != 100 {
		t.Fatalf("NextSampleAt = %d, want 100", s.NextSampleAt())
	}

	// Baseline at cycle 0.
	s.Sample(0)

	c.Add(5)
	g.Set(3)
	h.Observe(0) // bucket edge 0
	h.Observe(3) // bucket [2,4) edge 4
	fnVal = 100
	s.Sample(100)

	c.Add(2)
	g.Set(1)
	h.Observe(3)
	h.Observe(900) // bucket [512,1024) edge 1024
	fnVal = 200
	s.Sample(200)

	got := s.Samples(-1)
	if len(got) != 3 {
		t.Fatalf("got %d samples, want 3", len(got))
	}
	if got[0].Cycle != 0 || got[1].Cycle != 100 || got[2].Cycle != 200 {
		t.Errorf("cycles = %d,%d,%d", got[0].Cycle, got[1].Cycle, got[2].Cycle)
	}
	if got[0].Epoch != 0 || got[2].Epoch != 2 {
		t.Errorf("epochs = %d,%d", got[0].Epoch, got[2].Epoch)
	}
	if d := got[1].Counters["reqs"]; d != 5 {
		t.Errorf("epoch 1 reqs delta = %d, want 5", d)
	}
	if d := got[2].Counters["reqs"]; d != 2 {
		t.Errorf("epoch 2 reqs delta = %d, want 2", d)
	}
	if v := got[2].Gauges["occ"]; v != 1 {
		t.Errorf("epoch 2 occ = %d, want 1", v)
	}
	if v := got[1].Gauges["cycle"]; v != 100 {
		t.Errorf("epoch 1 cycle func = %d, want 100", v)
	}
	hd := got[1].Histograms["lat"]
	if hd.Count != 2 || hd.Sum != 3 {
		t.Errorf("epoch 1 lat delta = %+v, want count 2 sum 3", hd)
	}
	wantBuckets := [][2]int64{{0, 1}, {4, 1}}
	if len(hd.Buckets) != 2 || hd.Buckets[0] != wantBuckets[0] || hd.Buckets[1] != wantBuckets[1] {
		t.Errorf("epoch 1 lat buckets = %v, want %v", hd.Buckets, wantBuckets)
	}
	hd = got[2].Histograms["lat"]
	if hd.Count != 2 || hd.Sum != 903 {
		t.Errorf("epoch 2 lat delta = %+v, want count 2 sum 903", hd)
	}
	if len(hd.Buckets) != 2 || hd.Buckets[0] != [2]int64{4, 1} || hd.Buckets[1] != [2]int64{1024, 1} {
		t.Errorf("epoch 2 lat buckets = %v", hd.Buckets)
	}

	// Deltas must sum to the cumulative totals.
	var sum int64
	for _, sm := range got {
		sum += sm.Counters["reqs"]
	}
	if sum != c.Value() {
		t.Errorf("counter deltas sum to %d, cumulative is %d", sum, c.Value())
	}

	// The published latest snapshot matches a direct registry snapshot.
	latest, ok := s.Latest()
	if !ok {
		t.Fatal("Latest not available after sampling")
	}
	if latest.Counters["reqs"] != 7 || latest.Gauges["cycle"] != 200 {
		t.Errorf("latest snapshot wrong: %+v", latest)
	}
	if latest.Histograms["lat"].Count != 4 {
		t.Errorf("latest histogram count = %d, want 4", latest.Histograms["lat"].Count)
	}

	// NextSampleAt advanced past the last boundary.
	if s.NextSampleAt() != 300 {
		t.Errorf("NextSampleAt = %d, want 300", s.NextSampleAt())
	}
}

// TestSamplerRingBounded fills the ring past capacity and checks the
// oldest samples are evicted while the epoch count keeps counting.
func TestSamplerRingBounded(t *testing.T) {
	reg := New()
	c := reg.Counter("n")
	s := NewSampler(reg, SamplerConfig{Interval: 10, Capacity: 4})
	for i := int64(1); i <= 10; i++ {
		c.Add(i)
		s.Sample(i * 10)
	}
	got := s.Samples(-1)
	if len(got) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(got))
	}
	if got[0].Cycle != 70 || got[3].Cycle != 100 {
		t.Errorf("ring cycles %d..%d, want 70..100", got[0].Cycle, got[3].Cycle)
	}
	// Evicted records' storage is reused; every epoch still holds its
	// own delta.
	for _, sm := range got {
		if want := sm.Cycle / 10; sm.Counters["n"] != want {
			t.Errorf("epoch %d delta = %d, want %d", sm.Epoch, sm.Counters["n"], want)
		}
	}
	if s.Epochs() != 10 {
		t.Errorf("Epochs = %d, want 10", s.Epochs())
	}
	// since filter
	if got := s.Samples(85); len(got) != 2 || got[0].Cycle != 90 {
		t.Errorf("Samples(85) = %+v, want cycles 90,100", got)
	}
}

// TestSamplerConcurrentReaders hammers the ring and latest snapshot
// from reader goroutines while the owning goroutine samples; run under
// -race this is the sampler's publication-safety test.
func TestSamplerConcurrentReaders(t *testing.T) {
	reg := New()
	c := reg.Counter("n")
	v := int64(0)
	reg.Func("f", func() int64 { return v })
	h := reg.Histogram("h")
	s := NewSampler(reg, SamplerConfig{Interval: 1, Capacity: 16})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Samples(-1)
				s.Latest()
				s.Epochs()
			}
		}()
	}
	for i := int64(0); i < 2000; i++ {
		c.Inc()
		v++
		h.Observe(i)
		s.Sample(i)
	}
	close(stop)
	wg.Wait()
}

// TestSamplerRecordWire round-trips the sampler through its checkpoint
// section: every record, including ones taken before a late
// registration, decodes back to the same record, and the restored
// sampler reads out the same series and latest snapshot.
func TestSamplerRecordWire(t *testing.T) {
	reg := New()
	c := reg.Counter("b.count")
	h := reg.Histogram("a.lat")
	g := reg.Gauge("c.occ")
	s := NewSampler(reg, SamplerConfig{Interval: 10, Capacity: 8})
	s.Sample(0)
	c.Add(3)
	h.Observe(5)
	h.Observe(700)
	g.Set(-2)
	s.Sample(10)
	reg.Func("0.late", func() int64 { return 9 })
	h.Observe(0)
	s.Sample(20)

	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	if err := s.State(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := NewSampler(reg, SamplerConfig{Interval: 10, Capacity: 8})
	if err := back.State(d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.ring, s.ring) {
		t.Errorf("records decode to %+v, want %+v", back.ring, s.ring)
	}
	if got, want := back.Samples(-1), s.Samples(-1); !reflect.DeepEqual(got, want) {
		t.Errorf("restored series %+v, want %+v", got, want)
	}
	got, _ := back.Latest()
	if want, _ := s.Latest(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored latest %+v, want %+v", got, want)
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean 1..3")
	}
}

func TestHarmonicMean(t *testing.T) {
	if HarmonicMean(nil) != 0 {
		t.Error("HM(nil)")
	}
	if !almost(HarmonicMean([]float64{1, 1}), 1) {
		t.Error("HM(1,1)")
	}
	// Classic: HM(2, 6) = 3.
	if !almost(HarmonicMean([]float64{2, 6}), 3) {
		t.Error("HM(2,6)")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("HM with zero")
	}
	if HarmonicMean([]float64{1, -1}) != 0 {
		t.Error("HM with negative")
	}
}

func TestVariance(t *testing.T) {
	if Variance(nil) != 0 {
		t.Error("Var(nil)")
	}
	if !almost(Variance([]float64{5, 5, 5}), 0) {
		t.Error("Var constant")
	}
	// Population variance of {1, 3} is 1.
	if !almost(Variance([]float64{1, 3}), 1) {
		t.Error("Var(1,3)")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 || Max(xs) != 7 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty min/max should be infinities")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, x := range []float64{5, 15, 15, 95} {
		h.Add(x)
	}
	if h.N != 4 || h.Overflow != 1 {
		t.Errorf("N=%d overflow=%d", h.N, h.Overflow)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if !almost(h.Mean(), 32.5) {
		t.Errorf("mean = %v", h.Mean())
	}
	if q := h.Quantile(0.5); q != 20 {
		t.Errorf("median bound = %v, want 20", q)
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(0, 5)
}

// Properties: HM <= AM for positive inputs; variance >= 0.
func TestMeanInequalities(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9 && Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

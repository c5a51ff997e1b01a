package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestCalibrationReport prints the solo data-bus utilization and IPC of
// every suite benchmark under FR-FCFS (the paper's Figure 4 input). Run
// with -v to see the table; the test itself only checks the ordering is
// monotone enough to reproduce the figure (each benchmark within a
// tolerance band of the profile's documented target).
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	t.Parallel() // measures no allocation, so it may share the host
	prev := 2.0
	for _, p := range trace.Suite() {
		res, err := Run(Config{
			Workload: []trace.Profile{p},
			Policy:   FRFCFS,
		}, 50_000, 400_000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		tr := res.Threads[0]
		t.Logf("%-9s util=%.3f (target %.3f) ipc=%.3f readLat=%.0f rowHit=%.2f reads=%d",
			p.Name, tr.BusUtil, p.SoloUtilTarget, tr.IPC, tr.AvgReadLatency, tr.RowHitRate, tr.ReadsDone)
		if tr.BusUtil > prev+0.06 {
			t.Errorf("%s: solo utilization %.3f breaks Figure 4 ordering (previous %.3f)", p.Name, tr.BusUtil, prev)
		}
		prev = tr.BusUtil
	}
}

package memctrl

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The fairness-over-time monitor makes the paper's central claim
// observable as a time series rather than an end-of-run average:
// FQ-VFTF bounds how far each thread's received service can drift from
// its allocated share phi_i at every point in time, while FR-FCFS lets
// a bandwidth hog starve its neighbors for arbitrarily long stretches
// (Section 3, Figures 5/6). On each epoch boundary the monitor reads
// the controller's per-thread data-bus service counters, differences
// them against the previous boundary, and scores the epoch:
//
//   - share_i   = service_i / total service delivered this epoch
//   - excess_i  = service_i - phi_i * total: the signed drift of the
//     thread's service from its entitlement of what was delivered
//   - shortfall = max(0, -excess_i) accumulated only while the thread
//     is backlogged (has requests queued at the controller): service
//     a demanding thread was entitled to but did not receive
//
// Cumulative backlogged shortfall is the monitor's QoS headline: under
// FQ-VFTF it stays bounded (the scheduler repays any lag), under
// FR-FCFS it grows without bound for a starved thread.
//
// Like the metrics registry, the monitor is write-only from the
// simulation's point of view: Sample is called on the simulation
// goroutine at epoch boundaries (sim.Step clamps its skip-ahead), and
// everything concurrent readers touch is mutex-guarded.

// FairnessSample is one epoch of per-thread service accounting. All
// slices are indexed by hardware thread.
type FairnessSample struct {
	// Epoch is the 0-based sample index; Cycle the boundary it was
	// taken at (the sample covers (prevCycle, Cycle]).
	Epoch int64 `json:"epoch"`
	Cycle int64 `json:"cycle"`

	// Service is the data-bus cycles each thread consumed this epoch;
	// Total is their sum.
	Service []int64 `json:"service"`
	Total   int64   `json:"total"`

	// Share is Service/Total (0 when the epoch delivered nothing);
	// Phi the allocated share at the boundary.
	Share []float64 `json:"share"`
	Phi   []float64 `json:"phi"`

	// Excess is Service - Phi*Total: positive when the thread consumed
	// beyond its entitlement of the delivered service (using slack),
	// negative when it fell short.
	Excess []float64 `json:"excess"`

	// Backlogged reports whether the thread had requests queued at the
	// controller at the boundary — a shortfall only counts against the
	// scheduler when the thread actually demanded service.
	Backlogged []bool `json:"backlogged"`

	// CumShortfall is the running sum of backlogged shortfalls up to
	// and including this epoch, in data-bus cycles.
	CumShortfall []float64 `json:"cum_shortfall"`

	// TopAggressor names the other thread charged the most of this
	// thread's wait cycles during the epoch by the interference
	// attribution layer, and StolenCycles that charge. -1/0 when no
	// other thread was charged or attribution is off.
	TopAggressor []int   `json:"top_aggressor"`
	StolenCycles []int64 `json:"stolen_cycles"`
}

// FairnessSummary is the monitor's end-of-run digest.
type FairnessSummary struct {
	Epochs   int64 `json:"epochs"`
	Interval int64 `json:"interval"`
	Threads  int   `json:"threads"`

	// CumShortfall is each thread's total backlogged shortfall;
	// MaxEpochShortfall the worst single backlogged epoch. Both in
	// data-bus cycles.
	CumShortfall      []float64 `json:"cum_shortfall"`
	MaxEpochShortfall []float64 `json:"max_epoch_shortfall"`

	// MaxAbsExcess is the largest single-epoch |excess| per thread,
	// backlogged or not.
	MaxAbsExcess []float64 `json:"max_abs_excess"`
}

// fairThread is one thread's columns of a FairnessSample.
type fairThread struct {
	service      int64
	share, phi   float64
	excess       float64
	cumShortfall float64
	stolen       int64
	top          int
	backlogged   bool
}

// fairRecord is one epoch as the ring keeps it: the per-thread columns
// in one allocation, turned into a FairnessSample on read.
type fairRecord struct {
	epoch, cycle, total int64
	th                  []fairThread
}

// FairnessMonitor tracks per-thread service share against phi over
// epoch windows. Construct with NewFairnessMonitor, drive with Sample.
type FairnessMonitor struct {
	ctrl     *Controller
	interval int64
	capacity int
	nextAt   int64

	prevService []int64

	// Running per-thread aggregates, owned by the sampling goroutine
	// but read (under mu) by Summary.
	cumShort     []float64
	maxEpochShrt []float64
	maxAbsExcess []float64

	// lastExcess/lastShort are int64-rounded views of the most recent
	// epoch for Func gauges registered in a metrics registry.
	lastExcess []int64

	// prevMatrix/curMatrix are the previous epoch boundary's cumulative
	// interference pair totals (threads x threads+1, flattened) and the
	// differencing scratch; all zeros when attribution is off.
	prevMatrix []int64
	curMatrix  []int64

	mu     sync.Mutex
	ring   []fairRecord // grows on demand up to capacity
	start  int
	epochs int64
}

// NewFairnessMonitor returns a monitor over the controller's threads.
// interval <= 0 selects metrics.DefaultSampleInterval, capacity <= 0
// metrics.DefaultSampleCapacity.
func NewFairnessMonitor(c *Controller, interval int64, capacity int) *FairnessMonitor {
	if interval <= 0 {
		interval = metrics.DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = metrics.DefaultSampleCapacity
	}
	n := c.Threads()
	return &FairnessMonitor{
		ctrl:         c,
		interval:     interval,
		capacity:     capacity,
		nextAt:       interval,
		prevService:  make([]int64, n),
		cumShort:     make([]float64, n),
		maxEpochShrt: make([]float64, n),
		maxAbsExcess: make([]float64, n),
		lastExcess:   make([]int64, n),
		prevMatrix:   make([]int64, n*(n+1)),
		curMatrix:    make([]int64, n*(n+1)),
	}
}

// Interval returns the epoch length in cycles.
func (m *FairnessMonitor) Interval() int64 { return m.interval }

// NextSampleAt returns the next epoch boundary.
func (m *FairnessMonitor) NextSampleAt() int64 { return m.nextAt }

// phi returns thread t's allocated share: live from the policy when it
// exposes shares (so runtime SetShare reassignments are tracked), else
// the static equal allocation.
func (m *FairnessMonitor) phi(t int) float64 {
	if sg, ok := m.ctrl.Policy().(core.ShareGetter); ok {
		return sg.ThreadShare(t).Float()
	}
	return 1 / float64(m.ctrl.Threads())
}

// Sample scores the epoch ending at cycle now. Call on the simulation
// goroutine only. Once the ring is full the evicted record's storage
// is reused, so a steady run's epoch allocates nothing.
func (m *FairnessMonitor) Sample(now int64) {
	n := m.ctrl.Threads()
	m.mu.Lock()
	defer m.mu.Unlock()
	r := fairRecord{cycle: now}
	if len(m.ring) < m.capacity {
		r.th = make([]fairThread, n)
	} else {
		r.th = m.ring[m.start].th
	}
	intf := m.ctrl.intf != nil
	if intf {
		m.ctrl.intf.pairTotals(m.curMatrix)
	}
	for t := range r.th {
		ft := &r.th[t]
		svc := m.ctrl.Stats(t).DataBusCycles
		ft.service = svc - m.prevService[t]
		m.prevService[t] = svc
		r.total += ft.service
		ft.phi = m.phi(t)
		rd, wr := m.ctrl.Occupancy(t)
		ft.backlogged = rd+wr > 0
		ft.top, ft.stolen = -1, 0
		if intf {
			for a := 0; a < n; a++ {
				if a == t {
					continue
				}
				if d := m.curMatrix[t*(n+1)+a] - m.prevMatrix[t*(n+1)+a]; d > ft.stolen {
					ft.stolen, ft.top = d, a
				}
			}
		}
	}
	if intf {
		copy(m.prevMatrix, m.curMatrix)
	}
	for m.nextAt <= now {
		m.nextAt += m.interval
	}

	for t := range r.th {
		ft := &r.th[t]
		ft.share = 0
		if r.total > 0 {
			ft.share = float64(ft.service) / float64(r.total)
		}
		ft.excess = float64(ft.service) - ft.phi*float64(r.total)
		m.lastExcess[t] = int64(ft.excess)
		if ae := ft.excess; ae < 0 {
			ae = -ae
			if ae > m.maxAbsExcess[t] {
				m.maxAbsExcess[t] = ae
			}
		} else if ae > m.maxAbsExcess[t] {
			m.maxAbsExcess[t] = ae
		}
		if ft.backlogged && ft.excess < 0 {
			short := -ft.excess
			m.cumShort[t] += short
			if short > m.maxEpochShrt[t] {
				m.maxEpochShrt[t] = short
			}
		}
		ft.cumShortfall = m.cumShort[t]
	}
	r.epoch = m.epochs
	m.epochs++
	if len(m.ring) < m.capacity {
		m.ring = append(m.ring, r)
	} else {
		m.ring[m.start] = r
		m.start = (m.start + 1) % len(m.ring)
	}
}

// expand turns a record into its FairnessSample.
func (r *fairRecord) expand() FairnessSample {
	n := len(r.th)
	sm := FairnessSample{
		Epoch:        r.epoch,
		Cycle:        r.cycle,
		Total:        r.total,
		Service:      make([]int64, n),
		Share:        make([]float64, n),
		Phi:          make([]float64, n),
		Excess:       make([]float64, n),
		Backlogged:   make([]bool, n),
		CumShortfall: make([]float64, n),
		TopAggressor: make([]int, n),
		StolenCycles: make([]int64, n),
	}
	for t, ft := range r.th {
		sm.Service[t], sm.Share[t], sm.Phi[t] = ft.service, ft.share, ft.phi
		sm.Excess[t], sm.Backlogged[t], sm.CumShortfall[t] = ft.excess, ft.backlogged, ft.cumShortfall
		sm.TopAggressor[t], sm.StolenCycles[t] = ft.top, ft.stolen
	}
	return sm
}

// Samples returns the retained epochs at boundary cycles strictly
// greater than sinceCycle, oldest first (negative = all). The result
// is built on each call, safe to use while sampling continues.
func (m *FairnessMonitor) Samples(sinceCycle int64) []FairnessSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]FairnessSample, 0, len(m.ring))
	for i := range m.ring {
		r := &m.ring[(m.start+i)%len(m.ring)]
		if r.cycle > sinceCycle {
			out = append(out, r.expand())
		}
	}
	return out
}

// Summary returns the end-of-run digest. Safe to call concurrently
// with sampling: the aggregates are mutated and read under the lock.
func (m *FairnessMonitor) Summary() FairnessSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.cumShort)
	s := FairnessSummary{
		Epochs:            m.epochs,
		Interval:          m.interval,
		Threads:           n,
		CumShortfall:      append([]float64(nil), m.cumShort...),
		MaxEpochShortfall: append([]float64(nil), m.maxEpochShrt...),
		MaxAbsExcess:      append([]float64(nil), m.maxAbsExcess...),
	}
	return s
}

// RegisterMetrics mirrors the monitor's running aggregates into a
// metrics registry as Func gauges, so the Prometheus exposition and
// the epoch sampler carry the fairness series alongside everything
// else. The Funcs read state owned by the sampling goroutine and are
// evaluated only at snapshot time on that same goroutine (the
// sampler's contract).
func (m *FairnessMonitor) RegisterMetrics(reg *metrics.Registry) {
	for t := 0; t < len(m.cumShort); t++ {
		t := t
		reg.Func(fmt.Sprintf("fairness.thread%d.cum_shortfall", t),
			func() int64 { return int64(m.cumShort[t]) })
		reg.Func(fmt.Sprintf("fairness.thread%d.last_excess", t),
			func() int64 { return m.lastExcess[t] })
	}
}

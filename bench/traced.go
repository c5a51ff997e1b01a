package main

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// The traced stepping loop drives a system built by sim.New one cycle at
// a time from this file, through the layers' public calls only, so that a
// span can sit around each call group without touching the program. It is
// sim.System.Step's serial fast path restated: the transit queues are
// kept here, and the controller's read-completion callback is pointed at
// this file's response queue. The output checks require its simulated
// counters to equal System.Step's exactly.

// transit is the on-chip latency of each leg between an L2 and the
// controller (sim's default, which simConfig spells out).
const transit = 10

// sampleEvery is k: a span set is recorded on one stepped cycle in k on
// average (the gap is drawn uniformly from 1..2k-1, so that no period of
// the simulated machine can line up with the sampling).
const sampleEvery = 16

// Spans of one stepped cycle, in the order they run.
const (
	spTickBegin = iota // memctrl.Controller.TickBegin
	spSchedule         // ScheduleChannel over every channel
	spTickEnd          // TickEnd
	spFill             // per core: TokenFor + Hierarchy.Fill + Core.OnFill for due responses
	spCPUTick          // per core: Core.Tick
	spDrain            // per core: NextFetch/NextWriteback into the transit queues
	spAccept           // Controller.Accept attempts, core order
	spWake             // the skip-ahead bound: queue heads, CanAccept, NextEventAt
	spNextWork         // Core.NextWork calls inside it
	spSkip             // Controller.SkipTo + Core.CreditStall
	numSpans

	// spEmpty brackets nothing: two timer calls back to back on every
	// sampled cycle. Its mean is what one timer call costs inside this
	// loop, at this loop's clock speed and cache state, which is what every
	// other span carries and has subtracted.
	spEmpty = numSpans
)

var spanMetric = [numSpans]string{
	spTickBegin: "memctrl.tickbegin_ns_per_kcycle",
	spSchedule:  "memctrl.schedule_ns_per_kcycle",
	spTickEnd:   "memctrl.tickend_ns_per_kcycle",
	spFill:      "cpu.fill_ns_per_kcycle",
	spCPUTick:   "cpu.tick_ns_per_kcycle",
	spDrain:     "sim.drain_ns_per_kcycle",
	spAccept:    "memctrl.accept_ns_per_kcycle",
	spWake:      "sim.wake_ns_per_kcycle",
	spNextWork:  "cpu.nextwork_ns_per_kcycle",
	spSkip:      "memctrl.skipto_ns_per_kcycle",
}

type timedAddr struct {
	addr uint64
	at   int64
}

// queue is a FIFO of in-transit addresses with monotone delivery times.
type queue struct {
	buf  []timedAddr
	head int
}

func (q *queue) push(e timedAddr) { q.buf = append(q.buf, e) }

func (q *queue) peek() (timedAddr, bool) {
	if q.head >= len(q.buf) {
		return timedAddr{}, false
	}
	return q.buf[q.head], true
}

func (q *queue) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// loop is the harness-side stepping engine over one system's parts.
type loop struct {
	ctrl  *memctrl.Controller
	cores []*cpu.Core
	cycle int64

	fetchQ, wbQ, respQ []queue

	// Sampling state: spans are recorded on iteration nextSample.
	tracing    bool
	rng        uint64
	iters      int64 // stepped cycles while tracing
	nextSample int64
	sampled    int64
	spanNs     [numSpans + 1]int64 // raw: each call still holds one timer call
	spanCalls  [numSpans + 1]int64
	innerCalls int64 // NextWork spans, whose two timer calls each sit inside spWake

	// Counts taken at the same boundaries as the spans.
	schedTicks             int64 // stepped cycles whose TickBegin returned true
	acceptTried, acceptNAK int64
}

// newLoop takes over a freshly built, never stepped system.
func newLoop(sys *sim.System, seed uint64) *loop {
	ctrl := sys.Controller()
	n := ctrl.Threads()
	l := &loop{
		ctrl: ctrl, cores: make([]*cpu.Core, n),
		fetchQ: make([]queue, n), wbQ: make([]queue, n), respQ: make([]queue, n),
		rng: seed*0x9E3779B97F4A7C15 + 1,
	}
	for i := range l.cores {
		l.cores[i] = sys.Core(i)
	}
	ctrl.OnReadDone = func(req *core.Request, now int64) {
		l.respQ[req.Thread].push(timedAddr{addr: req.Addr, at: now + transit})
	}
	return l
}

// gap draws the distance to the next sampled iteration (xorshift64).
func (l *loop) gap() int64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return 1 + int64(l.rng%(2*sampleEvery-1))
}

// startTracing begins the measured region: spans and counts from here.
func (l *loop) startTracing() {
	l.tracing = true
	l.nextSample = l.gap()
}

// lap closes the span that began at t and returns the start of the next.
// Chained timestamps leave no gap between spans; each interval holds one
// timer call, which selfNs subtracts.
func (l *loop) lap(span int, t int64) int64 {
	now := nanotime()
	l.spanNs[span] += now - t
	l.spanCalls[span]++
	return now
}

// step advances n cycles exactly as sim.System.Step does on its serial
// fast path.
func (l *loop) step(n int64) {
	end := l.cycle + n
	nch := l.ctrl.Channels()
	for l.cycle < end {
		now := l.cycle
		s := false
		if l.tracing {
			l.iters++
			if l.iters == l.nextSample {
				s = true
				l.sampled++
				l.nextSample += l.gap()
			}
		}
		var t int64
		if s {
			t = l.lap(spEmpty, nanotime())
		}

		sched := l.ctrl.TickBegin(now)
		if s {
			t = l.lap(spTickBegin, t)
		}
		if sched {
			if l.tracing {
				l.schedTicks++
			}
			for ch := 0; ch < nch; ch++ {
				l.ctrl.ScheduleChannel(ch, now)
			}
			if s {
				t = l.lap(spSchedule, t)
			}
			l.ctrl.TickEnd(now)
			if s {
				t = l.lap(spTickEnd, t)
			}
		}

		for i, c := range l.cores {
			h := c.Hierarchy()
			for {
				e, ok := l.respQ[i].peek()
				if !ok || e.at > now {
					break
				}
				if tok, ok := h.TokenFor(e.addr); ok {
					h.Fill(tok)
					c.OnFill(tok, now)
				}
				l.respQ[i].pop()
			}
			if s {
				t = l.lap(spFill, t)
			}
			c.Tick(now)
			if s {
				t = l.lap(spCPUTick, t)
			}
			for {
				addr, _, ok := h.NextFetch()
				if !ok {
					break
				}
				h.FetchAccepted()
				l.fetchQ[i].push(timedAddr{addr: addr, at: now + transit})
			}
			for {
				addr, ok := h.NextWriteback()
				if !ok {
					break
				}
				h.WritebackAccepted()
				l.wbQ[i].push(timedAddr{addr: addr, at: now + transit})
			}
			if s {
				t = l.lap(spDrain, t)
			}
		}

		for i := range l.cores {
			if e, ok := l.fetchQ[i].peek(); ok && e.at <= now {
				l.offer(&l.fetchQ[i], i, e.addr, false, now)
			}
			if e, ok := l.wbQ[i].peek(); ok && e.at <= now {
				l.offer(&l.wbQ[i], i, e.addr, true, now)
			}
		}
		if s {
			t = l.lap(spAccept, t)
		}

		wake, inner := l.nextWake(now, end, s)
		if s {
			// The NextWork spans sit inside this one: take them out.
			l.spanNs[spWake] -= inner
			t = l.lap(spWake, t)
		}
		if wake > now+1 {
			l.ctrl.SkipTo(now+1, wake)
			for _, c := range l.cores {
				c.CreditStall(wake - now - 1)
			}
			l.cycle = wake
			if s {
				l.lap(spSkip, t)
			}
			continue
		}
		l.cycle++
	}
}

// offer makes one acceptance attempt and counts it.
func (l *loop) offer(q *queue, thread int, addr uint64, isWrite bool, now int64) {
	ok := l.ctrl.Accept(thread, addr, isWrite, now)
	if ok {
		q.pop()
	}
	if l.tracing {
		l.acceptTried++
		if !ok {
			l.acceptNAK++
		}
	}
}

// nextWake is sim.System.nextWake without the telemetry epoch (the
// traced loop runs with observers off). On a sampled cycle it times the
// NextWork calls and returns their raw total, for the enclosing span to
// subtract.
func (l *loop) nextWake(now, end int64, s bool) (wake, inner int64) {
	wake = end
	for i, c := range l.cores {
		if e, ok := l.respQ[i].peek(); ok {
			if e.at <= now+1 {
				return now + 1, inner
			}
			if e.at < wake {
				wake = e.at
			}
		}
		if e, ok := l.fetchQ[i].peek(); ok && l.ctrl.CanAccept(i, false) {
			if e.at <= now+1 {
				return now + 1, inner
			}
			if e.at < wake {
				wake = e.at
			}
		}
		if e, ok := l.wbQ[i].peek(); ok && l.ctrl.CanAccept(i, true) {
			if e.at <= now+1 {
				return now + 1, inner
			}
			if e.at < wake {
				wake = e.at
			}
		}
		var t int64
		if s {
			t = nanotime()
		}
		w := c.NextWork(now + 1)
		if s {
			d := nanotime() - t
			l.spanNs[spNextWork] += d
			l.spanCalls[spNextWork]++
			l.innerCalls++
			inner += d
		}
		if w <= now+1 {
			return now + 1, inner
		} else if w < wake {
			wake = w
		}
	}
	if w := l.ctrl.NextEventAt(); w < wake {
		wake = w
	}
	if wake < now+1 {
		wake = now + 1
	}
	return wake, inner
}

// timerNs is the cost of one timer call as the loop itself measured it.
func (l *loop) timerNs() float64 {
	return ratio(float64(l.spanNs[spEmpty]), float64(l.spanCalls[spEmpty]))
}

// selfNs is a span's time with the timer calls taken out, scaled from
// the sampled cycles to every stepped cycle.
func (l *loop) selfNs(span int) float64 {
	if l.sampled == 0 {
		return 0
	}
	timers := l.spanCalls[span]
	if span == spWake {
		// Each NextWork span left one timer call of its two in here (the
		// other is inside its own raw time, already subtracted).
		timers += l.innerCalls
	}
	ns := float64(l.spanNs[span]) - float64(timers)*l.timerNs()
	return ns * float64(l.iters) / float64(l.sampled)
}

package core

import (
	"testing"

	"repro/internal/dram"
)

// propRng is a tiny deterministic generator (splitmix64) so the
// property tests replay identically everywhere, including under -race.
type propRng struct{ s uint64 }

func (r *propRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *propRng) intn(n int) int { return int(r.next() % uint64(n)) }

var propKinds = [...]CmdKind{CmdPrecharge, CmdActivate, CmdRead, CmdWrite}

// TestVTMSRegistersMonotone: the Table 4 updates only ever move the
// virtual clocks forward. B_j.R = max{a, B_j.R} + L/phi with L > 0 and
// C.R = max{B_j.R, C.R} + C.L/phi are both strictly greater than the
// old register value, for every command kind, bank, share, and arrival
// order — including arrivals far in the past (a << B_j.R) and far in
// the future (a >> B_j.R).
func TestVTMSRegistersMonotone(t *testing.T) {
	const nbanks, nchans, events = 8, 2, 20_000
	timing := dram.DefaultConfig().Timing
	shares := []Share{{1, 2}, {1, 7}, {9, 10}, {1, 64}}
	rng := &propRng{s: 41}
	for si, share := range shares {
		v := NewVTMS(si, share, nbanks, timing)
		v.SetChannels(nchans)
		var clock int64
		for i := 0; i < events; i++ {
			// Arrivals wander around the register values: sometimes
			// stale, sometimes ahead of everything seen so far.
			clock += int64(rng.intn(200))
			arrival := clock - int64(rng.intn(400)) + 100
			if arrival < 0 {
				arrival = 0
			}
			bank := rng.intn(nbanks)
			ch := rng.intn(nchans)
			kind := propKinds[rng.intn(len(propKinds))]
			isWrite := kind == CmdWrite

			prevBank := v.BankR(bank)
			prevChan := v.ChanRAt(ch)
			v.OnCommandIssue(kind, arrival, bank, ch, isWrite)

			if v.BankR(bank) <= prevBank {
				t.Fatalf("share %v event %d: bank %d register moved %d -> %d (kind %v, arrival %d)",
					share, i, bank, prevBank, v.BankR(bank), kind, arrival)
			}
			if kind.IsCAS() {
				if v.ChanRAt(ch) <= prevChan {
					t.Fatalf("share %v event %d: channel %d register moved %d -> %d on CAS",
						share, i, ch, prevChan, v.ChanRAt(ch))
				}
			} else if v.ChanRAt(ch) != prevChan {
				t.Fatalf("share %v event %d: channel register changed on non-CAS %v", share, i, kind)
			}
		}
	}
}

// TestVTMSFinishTimeBounds: Equation 7's output is bounded below by
// every term it maxes over — the arrival, the bank register, and the
// channel register — plus the strictly positive service times, and it
// never mutates the registers it reads.
func TestVTMSFinishTimeBounds(t *testing.T) {
	const nbanks = 4
	timing := dram.DefaultConfig().Timing
	v := NewVTMS(0, Share{1, 3}, nbanks, timing)
	rng := &propRng{s: 97}
	for i := 0; i < 10_000; i++ {
		arrival := int64(rng.intn(1 << 20))
		bank := rng.intn(nbanks)
		state := BankState(rng.intn(3))
		isWrite := rng.intn(2) == 1

		beforeBank := v.BankR(bank)
		beforeChan := v.ChanR()
		ft := v.FinishTime(arrival, bank, 0, isWrite, state)
		if v.BankR(bank) != beforeBank || v.ChanR() != beforeChan {
			t.Fatalf("event %d: FinishTime mutated registers", i)
		}
		if ft <= maxVT(maxVT(FromCycles(arrival), beforeBank), beforeChan) {
			t.Fatalf("event %d: finish time %d not beyond max(arrival, B.R, C.R)", i, ft)
		}

		// Occasionally consume service so the registers advance.
		if rng.intn(4) == 0 {
			v.OnCommandIssue(propKinds[rng.intn(len(propKinds))], arrival, bank, 0, isWrite)
		}
	}
}

// TestFrozenKeyNeverMutates: once the controller has frozen a request's
// key at its first command, no policy entry point — later commands of
// the same request, other requests' service, register churn, window
// ticks, share reassignment — writes it, and KeyOf reads it back under
// every bank state. The controller's half of the rule (freeze the key
// the scheduler compared) is held in memctrl; the audit layer enforces
// both at run time.
func TestFrozenKeyNeverMutates(t *testing.T) {
	const rounds = 5_000
	for _, pol := range purityPolicies() {
		rng := &propRng{s: 7}
		ticker, _ := pol.(PolicyTicker)
		shares, _ := pol.(ShareSetter)
		frozen := map[*Request]int64{}
		var live []*Request
		var nextID uint64
		var clock int64
		for i := 0; i < rounds; i++ {
			clock += int64(rng.intn(50))
			if ticker != nil && clock >= ticker.NextTickAt() {
				ticker.Tick(clock)
			}
			switch rng.intn(3) {
			case 0: // new request
				nextID++
				live = append(live, &Request{
					ID:         nextID,
					Thread:     rng.intn(purityThreads),
					Arrival:    clock,
					GlobalBank: rng.intn(purityBanks),
					IsWrite:    rng.intn(4) == 0,
				})
			case 1: // issue a command for a random live request
				if len(live) == 0 {
					continue
				}
				r := live[rng.intn(len(live))]
				kind := CmdRead
				if r.IsWrite {
					kind = CmdWrite
				}
				if !r.KeyFrozen {
					// The controller's first-command step.
					kind = propKinds[rng.intn(len(propKinds))]
					if r.IsWrite && kind == CmdRead {
						kind = CmdWrite
					}
					k := KeyOf(pol, r, BankState(rng.intn(3)))
					r.Key, r.KeyFrozen = VTime(k), true
					frozen[r] = k
				}
				pol.OnIssue(r, kind)
			case 2: // share reassignment: rewrites future keys only
				if shares != nil {
					shares.SetThreadShare(rng.intn(purityThreads), Share{1 + rng.intn(3), 4})
				}
			}
			for r, want := range frozen {
				if !r.KeyFrozen || int64(r.Key) != want {
					t.Fatalf("%s: frozen key of request %d mutated %d -> %d (frozen %v)", pol.Name(), r.ID, want, r.Key, r.KeyFrozen)
				}
				if got := KeyOf(pol, r, BankState(rng.intn(3))); got != want {
					t.Fatalf("%s: frozen request %d re-keyed: %d -> %d", pol.Name(), r.ID, want, got)
				}
			}
		}
		if len(frozen) < rounds/10 {
			t.Fatalf("%s: only %d requests froze; generator is broken", pol.Name(), len(frozen))
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dram"
)

// The memory controller stamps each cached key with the epoch of the
// request's (channel, thread) and of its bank, and a command issue
// bumps only the issuing thread's epoch on the issuing channel. That is
// sound exactly when the Policy contract's locality rule holds: OnIssue
// for a request of thread t on channel c leaves Key unchanged for every
// request of another thread or on another channel, under every
// BankState. These tests hold every shipped policy to it.

const (
	purityThreads  = 4
	purityChannels = 2
	purityBanks    = 8 // per channel
)

var allBankStates = [...]BankState{BankConflict, BankClosed, BankHit}

// purityPolicies constructs every shipped policy for the test geometry.
func purityPolicies() []Policy {
	shares := []Share{{1, 2}, {1, 4}, {1, 8}, {1, 8}}
	nbanks := purityChannels * purityBanks
	tt := dram.DDR2800()
	return []Policy{
		NewFRFCFS(),
		NewFCFS(),
		NewFRVFTF(shares, nbanks, tt),
		NewFQVFTF(shares, nbanks, tt),
		NewFRVSTF(shares, nbanks, tt),
		NewFRVFTFArrival(shares, nbanks, tt),
		NewBLISS(purityThreads),
		NewSlowFair(purityThreads, tt),
		NewBankBW(purityThreads, nbanks),
	}
}

// checkIssueLocality drives p with a random command stream over a
// random pending set and returns the first locality violation. Each
// request is serviced as the controller would service it — from a
// conflict (precharge, activate, column access), a closed bank or a row
// hit — interleaved at random with the others, and a fresh request
// replaces it when its column access issues. Interval policies tick on
// their boundaries, so blacklists, boosts and budget refills are live
// while the property is probed.
func checkIssueLocality(p Policy, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	if cs, ok := p.(ChannelSetter); ok {
		cs.SetChannels(purityChannels)
	}
	ticker, _ := p.(PolicyTicker)
	type entry struct {
		req  *Request
		todo []CmdKind // commands still to issue, in order
	}
	var nextID uint64
	now := int64(0)
	fresh := func() entry {
		nextID++
		ch, bank := rng.Intn(purityChannels), rng.Intn(purityBanks)
		r := &Request{
			ID:         nextID,
			Thread:     rng.Intn(purityThreads),
			IsWrite:    rng.Intn(4) == 0,
			Arrival:    now - int64(rng.Intn(200)),
			Channel:    ch,
			Bank:       bank,
			Row:        rng.Intn(4),
			GlobalBank: ch*purityBanks + bank,
		}
		cas := CmdRead
		if r.IsWrite {
			cas = CmdWrite
		}
		todo := []CmdKind{CmdPrecharge, CmdActivate, cas}
		return entry{r, todo[rng.Intn(3):]}
	}
	pending := make([]entry, 48)
	for i := range pending {
		pending[i] = fresh()
	}
	type keys [len(allBankStates)]int64
	keysOf := func(r *Request) (k keys) {
		for i, st := range allBankStates {
			k[i] = p.Key(r, st)
		}
		return k
	}
	before := make([]keys, len(pending))
	for step := 0; step < steps; step++ {
		now += int64(1 + rng.Intn(40))
		if ticker != nil && now >= ticker.NextTickAt() {
			ticker.Tick(now)
		}
		for j := range pending {
			before[j] = keysOf(pending[j].req)
		}
		e := &pending[rng.Intn(len(pending))]
		r, kind := e.req, e.todo[0]
		p.OnIssue(r, kind)
		r.Issued++
		e.todo = e.todo[1:]
		for j := range pending {
			q := pending[j].req
			if q.Thread == r.Thread && q.Channel == r.Channel {
				continue
			}
			if after := keysOf(q); after != before[j] {
				return fmt.Errorf("%s step %d: OnIssue(%v) for thread %d on channel %d moved the key of request %d (thread %d, channel %d, bank %d) from %v to %v",
					p.Name(), step, kind, r.Thread, r.Channel, q.ID, q.Thread, q.Channel, q.GlobalBank, before[j], after)
			}
		}
		if len(e.todo) == 0 {
			*e = fresh()
		}
	}
	return nil
}

func TestOnIssueMovesOnlyIssuingThreadKeys(t *testing.T) {
	for _, p := range purityPolicies() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				if err := checkIssueLocality(p, seed, 3_000); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// coupledPolicy breaks the locality rule the way a global-virtual-clock
// scheduler would: every column access pushes every later key back.
type coupledPolicy struct {
	FRFCFS
	served int64
}

func (p *coupledPolicy) Name() string { return "coupled" }

func (p *coupledPolicy) Key(r *Request, _ BankState) int64 { return r.Arrival + p.served }

func (p *coupledPolicy) OnIssue(_ *Request, kind CmdKind) {
	if kind.IsCAS() {
		p.served++
	}
}

// TestIssueLocalityCheckCatchesCoupling proves the property test has
// teeth: a policy that couples threads through shared state is reported.
func TestIssueLocalityCheckCatchesCoupling(t *testing.T) {
	err := checkIssueLocality(&coupledPolicy{}, 1, 200)
	if err == nil || !strings.Contains(err.Error(), "moved the key") {
		t.Fatalf("coupled policy passed the locality check: %v", err)
	}
}

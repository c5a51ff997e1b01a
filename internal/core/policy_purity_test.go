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

// purityTraffic drives a policy with a random command stream over a
// random pending set. Each request is serviced as the controller would
// service it — from a conflict (precharge, activate, column access), a
// closed bank or a row hit — interleaved at random with the others, and
// a fresh request replaces it when its column access issues. Interval
// policies tick on their boundaries, so blacklists, boosts and budget
// refills are live while a property is probed.
type purityTraffic struct {
	rng     *rand.Rand
	ticker  PolicyTicker
	now     int64
	nextID  uint64
	pending []purityEntry
}

type purityEntry struct {
	req  *Request
	todo []CmdKind // commands still to issue, in order
}

func newPurityTraffic(p Policy, seed int64) *purityTraffic {
	tr := &purityTraffic{rng: rand.New(rand.NewSource(seed)), pending: make([]purityEntry, 48)}
	if cs, ok := p.(ChannelSetter); ok {
		cs.SetChannels(purityChannels)
	}
	tr.ticker, _ = p.(PolicyTicker)
	for i := range tr.pending {
		tr.pending[i] = tr.fresh()
	}
	return tr
}

func (tr *purityTraffic) fresh() purityEntry {
	rng := tr.rng
	tr.nextID++
	ch, bank := rng.Intn(purityChannels), rng.Intn(purityBanks)
	r := &Request{
		ID:         tr.nextID,
		Thread:     rng.Intn(purityThreads),
		IsWrite:    rng.Intn(4) == 0,
		Arrival:    tr.now - int64(rng.Intn(200)),
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
	return purityEntry{r, todo[rng.Intn(3):]}
}

// next advances the clock, ticks an interval policy over its boundary
// and picks the entry whose next command issues.
func (tr *purityTraffic) next() *purityEntry {
	tr.now += int64(1 + tr.rng.Intn(40))
	if tr.ticker != nil && tr.now >= tr.ticker.NextTickAt() {
		tr.ticker.Tick(tr.now)
	}
	return &tr.pending[tr.rng.Intn(len(tr.pending))]
}

// issued records that e's next command went to the policy, and retires
// e after its column access.
func (tr *purityTraffic) issued(e *purityEntry) {
	e.req.Issued++
	if e.todo = e.todo[1:]; len(e.todo) == 0 {
		*e = tr.fresh()
	}
}

// checkIssueLocality returns the first locality violation of p under
// purityTraffic.
func checkIssueLocality(p Policy, seed int64, steps int) error {
	tr := newPurityTraffic(p, seed)
	type keys [len(allBankStates)]int64
	keysOf := func(r *Request) (k keys) {
		for i, st := range allBankStates {
			k[i] = p.Key(r, st)
		}
		return k
	}
	before := make([]keys, len(tr.pending))
	for step := 0; step < steps; step++ {
		e := tr.next()
		for j := range tr.pending {
			before[j] = keysOf(tr.pending[j].req)
		}
		r, kind := e.req, e.todo[0]
		p.OnIssue(r, kind)
		for j := range tr.pending {
			q := tr.pending[j].req
			if q.Thread == r.Thread && q.Channel == r.Channel {
				continue
			}
			if after := keysOf(q); after != before[j] {
				return fmt.Errorf("%s step %d: OnIssue(%v) for thread %d on channel %d moved the key of request %d (thread %d, channel %d, bank %d) from %v to %v",
					p.Name(), step, kind, r.Thread, r.Channel, q.ID, q.Thread, q.Channel, q.GlobalBank, before[j], after)
			}
		}
		tr.issued(e)
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

// The controller owns the freeze rule (KeyOf, memctrl.Controller.issue):
// it stores the key a request's first command issued under and reads it
// back itself. So a policy's Key is a function and nothing else — two
// calls agree and the request is left byte for byte as it was — and
// OnIssue never writes the request either. checkKeyPurity returns the
// first violation of p under purityTraffic.
func checkKeyPurity(p Policy, seed int64, steps int) error {
	tr := newPurityTraffic(p, seed)
	for step := 0; step < steps; step++ {
		e := tr.next()
		for j := range tr.pending {
			q := tr.pending[j].req
			for _, st := range allBankStates {
				was := *q
				k1 := p.Key(q, st)
				k2 := p.Key(q, st)
				if k1 != k2 {
					return fmt.Errorf("%s step %d: Key(request %d, %v) returned %d, then %d", p.Name(), step, q.ID, st, k1, k2)
				}
				if *q != was {
					return fmt.Errorf("%s step %d: Key(request %d, %v) wrote the request: %+v -> %+v", p.Name(), step, q.ID, st, was, *q)
				}
			}
		}
		r, kind := e.req, e.todo[0]
		was := *r
		p.OnIssue(r, kind)
		if *r != was {
			return fmt.Errorf("%s step %d: OnIssue(request %d, %v) wrote the request: %+v -> %+v", p.Name(), step, r.ID, kind, was, *r)
		}
		tr.issued(e)
	}
	return nil
}

// freezesAtFirstEvaluation names the one declared exception:
// FR-VFTF-arrival is the paper's rejected option, a finish time fixed
// the first time the request is looked at, so its Key writes the request
// by design (KeyOf honours a key frozen early).
const freezesAtFirstEvaluation = "FR-VFTF-arrival"

func TestKeyIsPureAndOnIssueLeavesTheRequest(t *testing.T) {
	for _, p := range purityPolicies() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			err := checkKeyPurity(p, 1, 1_000)
			if p.Name() == freezesAtFirstEvaluation {
				if err == nil || !strings.Contains(err.Error(), "wrote the request") {
					t.Fatalf("the arrival ablation no longer freezes at first evaluation: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// selfFreezingPolicy is the shape every stateful policy had before the
// controller owned the freeze: Key caches on the request, OnIssue
// freezes.
type selfFreezingPolicy struct{ FRFCFS }

func (*selfFreezingPolicy) Name() string { return "self-freezing" }

func (*selfFreezingPolicy) Key(r *Request, _ BankState) int64 {
	r.Key = VTime(r.Arrival)
	return r.Arrival
}

type freezeOnIssuePolicy struct{ FRFCFS }

func (*freezeOnIssuePolicy) Name() string { return "freeze-on-issue" }

func (*freezeOnIssuePolicy) OnIssue(r *Request, _ CmdKind) {
	r.Key, r.KeyFrozen = VTime(r.Arrival), true
}

// TestKeyPurityCheckCatchesRequestWrites proves checkKeyPurity has
// teeth on both halves.
func TestKeyPurityCheckCatchesRequestWrites(t *testing.T) {
	if err := checkKeyPurity(&selfFreezingPolicy{}, 1, 50); err == nil || !strings.Contains(err.Error(), "Key(request") {
		t.Fatalf("a Key that writes the request passed: %v", err)
	}
	if err := checkKeyPurity(&freezeOnIssuePolicy{}, 1, 50); err == nil || !strings.Contains(err.Error(), "OnIssue(request") {
		t.Fatalf("an OnIssue that freezes the key passed: %v", err)
	}
}

// The controller ranks only the first unfrozen request of each (class,
// read/write) group of a (bank, thread) queue when the policy declares
// that its keys follow arrival (ArrivalMonotone). checkKeysFollowArrival
// returns the first pair of unfrozen requests of one (thread, bank,
// IsWrite, BankState) under purityTraffic whose keys fall as arrival
// grows, with OnIssue, interval Ticks and, for a share-aware policy,
// SetThreadShare interleaved.
func checkKeysFollowArrival(p Policy, seed int64, steps int) error {
	tr := newPurityTraffic(p, seed)
	ss, _ := p.(ShareSetter)
	for step := 0; step < steps; step++ {
		e := tr.next()
		if ss != nil && tr.rng.Intn(50) == 0 {
			ss.SetThreadShare(tr.rng.Intn(purityThreads), Share{1 + tr.rng.Intn(8), 8})
		}
		for _, a := range tr.pending {
			for _, b := range tr.pending {
				r1, r2 := a.req, b.req
				if r1 == r2 || r1.KeyFrozen || r2.KeyFrozen || r1.Arrival > r2.Arrival ||
					r1.Thread != r2.Thread || r1.GlobalBank != r2.GlobalBank || r1.IsWrite != r2.IsWrite {
					continue
				}
				for _, st := range allBankStates {
					if k1, k2 := p.Key(r1, st), p.Key(r2, st); k1 > k2 {
						return fmt.Errorf("%s step %d: request %d arrived at %d and request %d of the same thread, bank and kind at %d, but under %v their keys are %d > %d",
							p.Name(), step, r1.ID, r1.Arrival, r2.ID, r2.Arrival, st, k1, k2)
					}
				}
			}
		}
		p.OnIssue(e.req, e.todo[0])
		tr.issued(e)
	}
	return nil
}

// TestKeysFollowArrival holds every policy but FR-VFTF-arrival to the
// ArrivalMonotone declaration it makes, and FR-VFTF-arrival, whose key is
// fixed at its first evaluation, to not making it.
func TestKeysFollowArrival(t *testing.T) {
	for _, p := range purityPolicies() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			am, ok := p.(ArrivalMonotone)
			declared := ok && am.KeysFollowArrival()
			if p.Name() == freezesAtFirstEvaluation {
				if declared {
					t.Fatal("declares that its keys follow arrival, but a key fixed at its first evaluation does not")
				}
				return
			}
			if !declared {
				t.Fatal("does not declare that its keys follow arrival")
			}
			for seed := int64(1); seed <= 3; seed++ {
				if err := checkKeysFollowArrival(p, seed, 1_500); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// fallingKeysPolicy declares, through FRFCFS, that its keys follow
// arrival, and ranks the youngest request first.
type fallingKeysPolicy struct{ FRFCFS }

func (*fallingKeysPolicy) Name() string { return "falling-keys" }

func (*fallingKeysPolicy) Key(r *Request, _ BankState) int64 { return -r.Arrival }

// TestArrivalCheckCatchesFallingKeys proves checkKeysFollowArrival has
// teeth.
func TestArrivalCheckCatchesFallingKeys(t *testing.T) {
	if err := checkKeysFollowArrival(&fallingKeysPolicy{}, 1, 200); err == nil || !strings.Contains(err.Error(), "their keys are") {
		t.Fatalf("a policy whose keys fall with arrival passed: %v", err)
	}
}

// TestKeyOf: the frozen key if frozen, else the policy's, whatever the
// state argument.
func TestKeyOf(t *testing.T) {
	p := NewFRVFTF([]Share{{1, 2}, {1, 2}}, 8, dram.DDR2800())
	r := &Request{ID: 1, Arrival: 10, GlobalBank: 3}
	for _, st := range allBankStates {
		if got, want := KeyOf(p, r, st), p.Key(r, st); got != want {
			t.Fatalf("unfrozen KeyOf(%v) = %d, want Key = %d", st, got, want)
		}
	}
	r.Key, r.KeyFrozen = 777, true
	for _, st := range allBankStates {
		if got := KeyOf(p, r, st); got != 777 {
			t.Fatalf("frozen KeyOf(%v) = %d, want 777", st, got)
		}
	}
}

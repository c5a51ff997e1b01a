package core

import "repro/internal/dram"

// FRVFTFArrival is the paper's *first* (rejected) option for resolving
// the bank-service discrepancy (Section 3.2): assume an average bank
// service requirement at arrival time, compute the virtual finish-time
// immediately, and never revise it. The paper argues this penalizes
// threads with many row-buffer hits; the deferred implementation
// (FRVFTF/FQVFTF) is what the evaluation uses. This policy exists for
// the ablation benchmark.
type FRVFTFArrival struct {
	vftBase
	avgBankL int // average of the Table 3 service times
}

// NewFRVFTFArrival returns the arrival-time-estimate ablation policy.
func NewFRVFTFArrival(shares []Share, nbanks int, t dram.Timing) *FRVFTFArrival {
	avg := (t.BankServiceRead(0) + t.BankServiceRead(1) + t.BankServiceRead(2)) / 3
	return &FRVFTFArrival{vftBase: newVFTBase(shares, nbanks, t), avgBankL: avg}
}

// Name implements Policy.
func (*FRVFTFArrival) Name() string { return "FR-VFTF-arrival" }

// Key implements Policy: the finish time is computed once, with the
// average service estimate, the first time the request is examined, and
// frozen immediately (arrival-time semantics).
func (p *FRVFTFArrival) Key(r *Request, _ BankState) int64 {
	if !r.KeyFrozen {
		v := p.vtms[r.Thread]
		bs := maxVT(FromCycles(r.Arrival), v.BankR(r.GlobalBank)) + v.scale(p.avgBankL)
		r.Key = maxVT(bs, v.ChanRAt(r.Channel)) + v.scale(v.timing.ChannelService())
		r.KeyFrozen = true
	}
	return int64(r.Key)
}

// OnIssue implements Policy: registers still update per issued command
// (the estimate only affects priorities, not accounting).
func (p *FRVFTFArrival) OnIssue(r *Request, kind CmdKind) {
	p.Key(r, BankClosed) // ensure frozen
	p.vtms[r.Thread].OnCommandIssue(kind, r.Arrival, r.GlobalBank, r.Channel, r.IsWrite)
}

// BankRule implements Policy.
func (*FRVFTFArrival) BankRule() (BankRule, int64) { return RuleFirstReady, 0 }

// KeysFollowArrival implements ArrivalMonotone, overriding vftBase: the
// key is fixed at the request's first evaluation, so when a request is
// first evaluated is part of its key. Ranking only a queue's heads would
// move keys, and a share change between two first evaluations can leave
// a younger request ranked before an older one.
func (*FRVFTFArrival) KeysFollowArrival() bool { return false }

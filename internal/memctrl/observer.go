package memctrl

import (
	"repro/internal/audit"
	"repro/internal/core"
)

// Observer is the controller's one event stream (DESIGN §18): what a
// consumer may learn about a run, in the order it happened. Events are
// emitted only from Accept, TickBegin and TickEnd, never from
// ScheduleChannel, so an observer hears a decision when it is applied
// and the stream is the same under the per-cycle oracle and the
// event-driven path. Observers must not change simulated state.
// *audit.Auditor re-derives every timing, conservation and VTMS
// invariant from these six calls alone, which is the evidence that the
// stream is sufficient.
type Observer interface {
	// OnAccept follows a successful Accept, the request queued.
	OnAccept(r *core.Request, now int64)
	// OnTick ends TickBegin on full ticks (not on cycles the event-driven
	// path skips), after completions and the policy tick.
	OnTick(now int64)
	// OnRefresh precedes a refresh command on the channel.
	OnRefresh(chIdx int, now int64)
	// BeforeIssue precedes a command's device issue and policy update,
	// AfterIssue follows both; a write retires after its CAS's AfterIssue,
	// a read after OnReadDone, its burst having ended at doneAt.
	BeforeIssue(cmd audit.Cmd, now int64)
	AfterIssue(cmd audit.Cmd, now int64)
	OnReadDone(r *core.Request, doneAt, now int64)
}

// nopObserver is embedded by observers that ignore some events.
type nopObserver struct{}

func (nopObserver) OnAccept(*core.Request, int64)          {}
func (nopObserver) OnTick(int64)                           {}
func (nopObserver) OnRefresh(int, int64)                   {}
func (nopObserver) BeforeIssue(audit.Cmd, int64)           {}
func (nopObserver) AfterIssue(audit.Cmd, int64)            {}
func (nopObserver) OnReadDone(*core.Request, int64, int64) {}

// attachObservers builds the consumers the Config switches on and lists
// them in the stream's fixed order: the auditor first, so a violation
// panics before any other consumer records the offending event, then
// the interference tracker, metrics and the tracer.
func (c *Controller) attachObservers() {
	cfg := &c.cfg
	if cfg.Audit {
		c.aud = audit.New(audit.Config{}, audit.Target{
			Timing:          cfg.DRAM.Timing,
			Channels:        len(c.chans),
			Ranks:           cfg.DRAM.Ranks,
			BanksPerRank:    cfg.DRAM.BanksPerRank,
			Threads:         cfg.Threads,
			ReadEntries:     cfg.ReadEntriesPerThread,
			WriteEntries:    cfg.WriteEntriesPerThread,
			SharedBuffers:   cfg.SharedBuffers,
			RefreshDisabled: cfg.DisableRefresh,
			Policy:          c.policy,
			Chans:           c.chans,
			Totals: func(t int) audit.Totals {
				st := &c.stats[t]
				return audit.Totals{
					ReadsAccepted:  st.ReadsAccepted,
					ReadsDone:      st.ReadsDone,
					WritesAccepted: st.WritesAccepted,
					WritesDone:     st.WritesDone,
					ReadOcc:        c.readOcc[t],
					WriteOcc:       c.writeOcc[t],
				}
			},
		})
		c.obs = append(c.obs, c.aud)
	}
	// Checkpoints carry the registry in registration order: metrics
	// registers ahead of the tracker's mirrors though it listens after.
	var met *memMetrics
	if cfg.Metrics != nil {
		met = newMemMetrics(cfg.Metrics, c)
	}
	if cfg.Interference {
		c.intf = newIntfTracker(c, cfg.Metrics)
		c.obs = append(c.obs, c.intf)
	}
	if met != nil {
		c.obs = append(c.obs, met)
	}
	if cfg.Trace != nil {
		c.obs = append(c.obs, newTracer(cfg.Trace, c))
	}
}

// Auditor returns the runtime invariant auditor, or nil when auditing is
// off.
func (c *Controller) Auditor() *audit.Auditor { return c.aud }

// FinishAudit runs the auditor's end-of-run conservation and starvation
// checks (a no-op without Config.Audit).
func (c *Controller) FinishAudit(now int64) {
	if c.aud != nil {
		c.aud.Finish(now)
	}
}

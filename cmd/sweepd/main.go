// Command sweepd is the sweep coordinator daemon: it shards an arena
// sweep matrix (policies x workloads x shares x channels) into chunks,
// serves them to workers over an HTTP/JSON work queue, collects each
// chunk's artifacts into a content-addressed store, reassigns chunks
// whose workers stop heartbeating (resuming from their last uploaded
// checkpoint), and — once every chunk completes — merges the artifacts
// into exactly the files a single-process sweep emits.
//
// Usage:
//
//	sweepd -out dir [-addr host:port]
//	       [-mixes vpr+art,...] [-shares eq,3-4] [-channels 1,2]
//	       [-warmup N] [-window N] [-seed N] [-sample-interval N]
//	       [-checkpoint-every N] [-lease-expiry D] [-retries N]
//
// Workers are `experiments -worker http://host:port` processes; any
// number may join or die at any time. The merged output directory is
// byte-identical to
//
//	experiments -fig arena -arena-mixes ... -out out
//
// on the same spec — the determinism the fabric test battery pins.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9400", "listen address for the work queue")
		out       = flag.String("out", "sweep-out", "directory receiving the merged artifacts")
		mixes     = flag.String("mixes", "", "workload mixes, e.g. \"vpr+art,swim+mcf+vpr+art\" (empty = default arena)")
		shares    = flag.String("shares", "", "thread-0 share splits, e.g. \"eq,3-4\" (empty = default arena)")
		channels  = flag.String("channels", "", "channel counts, e.g. \"1,2\" (empty = default arena)")
		warmup    = flag.Int64("warmup", 50_000, "warmup cycles per run")
		window    = flag.Int64("window", 400_000, "measurement cycles per run")
		seed      = flag.Uint64("seed", 0, "trace generator seed")
		sampleInt = flag.Int64("sample-interval", 0, "epoch sampling interval in cycles (0 = no series artifacts)")
		intfOn    = flag.Bool("interference", false, "run every chunk with delay attribution on (adds each chunk's delay matrix to its artifact set and the arena interference_index column)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "chunk epoch: cycles between worker checkpoints/heartbeats (0 = default)")
		expiry    = flag.Duration("lease-expiry", fabric.DefaultLeaseExpiry, "heartbeat deadline before a chunk is reassigned")
		retries   = flag.Int("retries", fabric.DefaultRetryBudget, "lease grants per chunk before the job fails")
		linger    = flag.Duration("linger", 5*time.Second, "keep serving after completion so polling workers observe \"done\" and exit cleanly")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}

	spec, err := exp.ParseArenaSpec(*mixes, *shares, *channels)
	if err != nil {
		fail(err)
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Job: fabric.JobSpec{
			Spec:            spec,
			Warmup:          *warmup,
			Window:          *window,
			Seed:            *seed,
			SampleInterval:  *sampleInt,
			Interference:    *intfOn,
			CheckpointEvery: *ckptEvery,
		},
		LeaseExpiry: *expiry,
		RetryBudget: *retries,
	})
	if err != nil {
		fail(err)
	}
	srv, err := coord.Serve(*addr)
	if err != nil {
		fail(err)
	}
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "sweepd: serving %d chunks on %s\n", st.Total, srv.URL())
	fmt.Fprintf(os.Stderr, "sweepd: join workers with: experiments -worker %s\n", srv.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := coord.Wait(ctx); err != nil {
		fail(err)
	}
	if err := coord.WriteMerged(*out); err != nil {
		fail(err)
	}
	blobs, bytes, dedup := coord.Store().Stats()
	fmt.Fprintf(os.Stderr, "sweepd: merged %d chunks into %s (store: %d blobs, %d bytes, %d deduplicated puts)\n",
		st.Total, *out, blobs, bytes, dedup)

	arena, err := coord.Arena()
	if err != nil {
		fail(err)
	}
	arena.Render(os.Stdout)

	// Leave the queue up long enough for every worker's next poll to
	// see "done"; killing the listener first would strand them on a
	// connection error instead of a clean exit.
	select {
	case <-time.After(*linger):
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shCtx)
}

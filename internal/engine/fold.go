package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/trace"
)

// The coordinator's per-superstep work — folding every worker's reported
// update-parameter changes and routing the survivors — used to be a single
// map-based loop, so worker parallelism was capped by one serial aggregation
// step. foldState shards that work: changed IDs hash into one shard per
// worker, each folded by its own goroutine. Within a shard the fold still
// walks replies in worker order, so aggregation stays deterministic even for
// non-commutative aggregates (e.g. CF's parameter averaging) — shards
// partition the ID space, so per-ID fold order is exactly what the serial
// loop produced.

// changeRec is one folded change of a superstep: the node, its new global
// value, and the worker whose report set the final value (routing skips that
// worker — it already holds the value).
type changeRec[V any] struct {
	id     graph.ID
	val    V
	winner int
}

// foldState carries the coordinator's aggregation machinery across
// supersteps: the sharded global border state, per-shard change lists, and
// per-worker routing buffers, all reused between supersteps so the hot path
// stops reallocating.
type foldState[V any] struct {
	spec   VarSpec[V] //grapevet:keep construction-time identity: fixed per Resident, like Context.spec
	n      int        //grapevet:keep construction-time shape: worker count is a property of the layout the scratch was built for
	shards int        //grapevet:keep construction-time shape: derived from n at construction

	global  []map[graph.ID]V   // best-known border values, by shard
	pos     []map[graph.ID]int // scratch: id -> index into changed[s]
	changed [][]changeRec[V]   // this superstep's folded changes, by shard
	errs    []error            // per-shard fold errors (parallel path)
	buckets [][]VarUpdate[V]   // n*shards scratch for the parallel fold
	sorted  []changeRec[V]     // scratch: all shards' changes, ID-ordered
	route   [][]VarUpdate[V]   // per-worker routing buffers
}

func newFoldState[V any](spec VarSpec[V], n int) *foldState[V] {
	s := n
	if s < 1 {
		s = 1
	}
	fs := &foldState[V]{
		spec:    spec,
		n:       n,
		shards:  s,
		global:  make([]map[graph.ID]V, s),
		pos:     make([]map[graph.ID]int, s),
		changed: make([][]changeRec[V], s),
		errs:    make([]error, s),
		buckets: make([][]VarUpdate[V], n*s),
		route:   make([][]VarUpdate[V], n),
	}
	for i := 0; i < s; i++ {
		fs.global[i] = make(map[graph.ID]V)
		fs.pos[i] = make(map[graph.ID]int)
	}
	return fs
}

func (f *foldState[V]) shardOf(id graph.ID) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15) % uint64(f.shards))
}

// lookup returns the folded global value of id, if any. The session layer
// uses it to bring new outer copies up to date.
func (f *foldState[V]) lookup(id graph.ID) (V, bool) {
	v, ok := f.global[f.shardOf(id)][id]
	return v, ok
}

// forget drops the coordinator's folded value of id. Delete repair uses it
// when a node's value is invalidated: the retained baseline would otherwise
// suppress (via Eq) or reject (via the monotonicity check) the re-derived
// value of the node.
func (f *foldState[V]) forget(id graph.ID) {
	delete(f.global[f.shardOf(id)], id)
}

// force overwrites the coordinator's folded value of id, bypassing Agg and
// the monotonicity check. Delete repair uses it to re-align the baseline
// with a repaired value that may sit above the old one in the order (e.g. a
// CC label after a component split).
func (f *foldState[V]) force(id graph.ID, v V) {
	f.global[f.shardOf(id)][id] = v
}

// parallelFoldThreshold is the changed-value count below which sharded
// goroutines cost more than they save and the fold runs serially (over the
// same shard structures, in the same order).
const parallelFoldThreshold = 256

// fold aggregates one superstep's reports. replies is indexed by worker;
// nil entries are workers that were not scheduled. checkMono enables the
// Assurance Theorem verification of Options.CheckMonotonic.
func (f *foldState[V]) fold(replies []*workerReply[V], checkMono bool) error {
	total := 0
	for _, rep := range replies {
		if rep != nil {
			total += len(rep.changes)
		}
	}
	for s := 0; s < f.shards; s++ {
		f.changed[s] = f.changed[s][:0]
		clear(f.pos[s])
		f.errs[s] = nil
	}
	if f.shards == 1 || total < parallelFoldThreshold {
		for w := 0; w < f.n; w++ {
			if replies[w] == nil {
				continue
			}
			for _, u := range replies[w].changes {
				if err := f.foldOne(f.shardOf(u.ID), w, u, checkMono); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Bucket phase: split each worker's (ID-sorted) report by shard, workers
	// in parallel, preserving per-worker order within every bucket.
	var wg sync.WaitGroup
	for w := 0; w < f.n; w++ {
		base := w * f.shards
		for s := 0; s < f.shards; s++ {
			f.buckets[base+s] = f.buckets[base+s][:0]
		}
		if replies[w] == nil || len(replies[w].changes) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * f.shards
			for _, u := range replies[w].changes {
				s := f.shardOf(u.ID)
				f.buckets[base+s] = append(f.buckets[base+s], u)
			}
		}(w)
	}
	wg.Wait()
	// Fold phase: one goroutine per shard, walking buckets in worker order —
	// the same deterministic order as the serial path.
	for s := 0; s < f.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for w := 0; w < f.n; w++ {
				for _, u := range f.buckets[w*f.shards+s] {
					if err := f.foldOne(s, w, u, checkMono); err != nil {
						f.errs[s] = err
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// foldOne merges one reported value into shard s's state, recording the
// change (and its winning worker) when the global value moves.
func (f *foldState[V]) foldOne(s, w int, u VarUpdate[V], checkMono bool) error {
	if f.spec.Consume {
		// queue semantics: fold this superstep's reports only, deliver to
		// the owner; nothing persists at the coordinator
		if p, ok := f.pos[s][u.ID]; ok {
			f.changed[s][p].val = f.spec.Agg(f.changed[s][p].val, u.Val)
			return nil
		}
		f.pos[s][u.ID] = len(f.changed[s])
		f.changed[s] = append(f.changed[s], changeRec[V]{id: u.ID, val: f.spec.Agg(f.spec.Default, u.Val), winner: w})
		return nil
	}
	old, has := f.global[s][u.ID]
	if !has {
		old = f.spec.Default
	}
	merged := f.spec.Agg(old, u.Val)
	if f.spec.Eq(old, merged) {
		return nil
	}
	if checkMono && f.spec.Less != nil && has && !f.spec.Less(merged, old) {
		return fmt.Errorf("engine: node %d: %v -> %v: %w", u.ID, old, merged, ErrNotMonotonic)
	}
	f.global[s][u.ID] = merged
	if p, ok := f.pos[s][u.ID]; ok {
		f.changed[s][p].val = merged
		f.changed[s][p].winner = w
		return nil
	}
	f.pos[s][u.ID] = len(f.changed[s])
	f.changed[s] = append(f.changed[s], changeRec[V]{id: u.ID, val: merged, winner: w})
	return nil
}

// collectStep is the coordinator's end-of-superstep sequence, shared by
// RunOnLayout, Session.fixpoint and runWire: drain expect worker replies
// from the transport, update stillActive, fold the reports, append the
// superstep's work and byte rows to stats, and build the routing table.
// replies is caller-owned scratch of length workers. codec is nil on the
// in-process bus (replies arrive as Go values); wire transports deliver
// frames that are decoded with it. A cancelled ctx unblocks the barrier
// wait mid-superstep and surfaces as the context's error, wrapped with the
// run's provenance.
//
// rc, when non-nil, makes the barrier survive worker-fatal envelopes: the
// dead worker's fragment is revived on a survivor (rc.revive), and if it
// still owed this superstep a reply, the replayed fragment produces it —
// the drain keeps waiting for exactly the replies the superstep is due, so
// a fatal envelope never consumes a reply slot. With rc nil (sessions,
// recovery disabled) a fatal envelope fails the run with its classified
// error.
// rec is the flight recorder (nil when tracing is off): the barrier, each
// worker's piggybacked phase timings, checkpoint/recovery events, and the
// span close are recorded here because collectStep is the one place all
// three run loops share.
func collectStep[V any](ctx context.Context, tr mpi.Transport, codec Codec[V], fold *foldState[V], rc *recoverer[V], replies []*workerReply[V], stillActive map[int]bool, stats *metrics.Stats, layout *partition.Layout, rec *trace.Recorder, expect, step int, checkMono bool) ([][]VarUpdate[V], int, error) {
	n := fold.n
	perWorker := make([]int64, n)
	var stepBytes int64
	// Drain all replies first, then fold them in worker order so that
	// aggregation is deterministic even for non-commutative aggregates
	// (e.g. CF's parameter averaging).
	clear(replies)
	for remaining := expect; remaining > 0; {
		env, err := tr.Recv(ctx, mpi.Coordinator)
		if err != nil {
			return nil, 0, cancelled(stats.Engine, step, err)
		}
		if perr, ok := env.Payload.(error); ok && env.Frame == nil {
			// A terminal link envelope: a worker (or the link to it) died.
			// Recv picks at random between it and ctx.Done, and a worker
			// that saw the shipped deadline hangs up on its own: if the
			// run's bound has passed, the run was cancelled — report that,
			// and never revive a fragment for it.
			if cerr := settleDeadline(ctx); cerr != nil {
				if env.From >= 0 && env.From < n && replies[env.From] == nil {
					replies[env.From] = &workerReply[V]{}
				}
				return nil, 0, cancelled(stats.Engine, step, cerr)
			}
			w, workerFatal := mpi.WorkerFatalOf(perr)
			if !workerFatal || rc == nil || w < 0 || w >= n {
				// Run-fatal, or recovery is off. Record the empty reply so a
				// concurrent cancellation does not wait out the abort-drain
				// timeout on a frame that already arrived.
				if env.From >= 0 && env.From < n && replies[env.From] == nil {
					replies[env.From] = &workerReply[V]{}
				}
				return nil, 0, fmt.Errorf("worker %d superstep %d: %w", env.From, step, perr)
			}
			owe := 0
			if rc.sched[w] && replies[w] == nil {
				owe = step
			}
			host, rerr := rc.revive(w, step, owe)
			if rerr != nil {
				return nil, 0, fmt.Errorf("worker %d superstep %d: recovering from %v: %w", w, step, perr, rerr)
			}
			stats.Recoveries = append(stats.Recoveries, metrics.Recovery{Superstep: step, Fragment: w, Host: host})
			if rec != nil {
				rec.Event("recovery", fmt.Sprintf("superstep %d: fragment %d revived on worker %d", step, w, host))
			}
			// remaining is untouched: if a reply was owed, the revived
			// fragment ships it and the drain picks it up below.
			continue
		}
		var rep workerReply[V]
		// A terminal envelope (broken link, undecodable frame, worker-side
		// error reply) still counts as this worker's frame for the
		// superstep: record it before failing, so a concurrent cancellation
		// does not wait out the abort-drain timeout on a frame that already
		// arrived.
		if codec != nil {
			frame, err := wireFrame(env)
			if err == nil {
				rep, err = decodeReply(codec, frame)
			}
			if err != nil {
				if env.From >= 0 && env.From < n {
					replies[env.From] = &workerReply[V]{}
				}
				return nil, 0, fmt.Errorf("worker %d superstep %d: %w", env.From, step, err)
			}
		} else {
			rep = env.Payload.(workerReply[V])
		}
		if rep.err != nil {
			if env.From >= 0 && env.From < n {
				replies[env.From] = &rep
			}
			// The error may be the worker's copy of the shipped deadline,
			// which crosses the wire as text: settle ctx so the caller sees
			// the cancellation and re-attaches ctx's error.
			settleDeadline(ctx)
			return nil, 0, fmt.Errorf("worker %d superstep %d: %w", env.From, step, rep.err)
		}
		if env.From < 0 || env.From >= n || replies[env.From] != nil {
			return nil, 0, fmt.Errorf("superstep %d: unexpected reply from worker %d", step, env.From)
		}
		replies[env.From] = &rep
		perWorker[env.From] = rep.work
		stepBytes += int64(env.Size)
		rec.WorkerTiming(step, env.From, rep.computeNS, rep.applyNS)
		remaining--
	}
	rec.BarrierDone(step)
	for w := 0; w < n; w++ {
		rep := replies[w]
		if rep == nil {
			continue
		}
		if rep.active {
			stillActive[w] = true
		} else {
			delete(stillActive, w)
		}
	}
	if err := fold.fold(replies, checkMono); err != nil {
		return nil, 0, err
	}
	if rc != nil {
		if err := rc.ckpt.append(step, fold, stillActive); err != nil {
			return nil, 0, err
		}
		if rec != nil {
			rec.Event("checkpoint", fmt.Sprintf("superstep %d", step))
		}
	}
	stats.WorkPerStep = append(stats.WorkPerStep, perWorker)
	stats.BytesPerStep = append(stats.BytesPerStep, stepBytes)
	route, scheduled := fold.buildRoute(layout)
	rec.EndStep(step)
	return route, scheduled, nil
}

// settleDeadline returns ctx's error, first waiting for ctx's timer when
// ctx's deadline has passed but the timer has not fired yet. Workers bound
// their runs by the deadline shipped in the setup frame (whole
// microseconds), so one may notice it, and fail, before ctx's own timer
// fires.
func settleDeadline(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(time.UnixMicro(dl.UnixMicro())) {
		<-ctx.Done()
	}
	return ctx.Err()
}

// buildRoute turns the folded changes into per-worker update batches: each
// changed value goes to every fragment hosting the node except the winner
// (queue variables go to the owner only: they are messages, not state).
// Buffers are reused across supersteps — workers are done with the previous
// batch before their replies reach the coordinator, so nothing aliases.
// The changes of all shards are sorted by ID once (shards partition the ID
// space, so IDs are unique), which fills every route in ID order.
// Returns the routing table (indexed by worker; empty slices mean "not
// scheduled") and the number of workers with pending updates.
func (f *foldState[V]) buildRoute(layout *partition.Layout) ([][]VarUpdate[V], int) {
	for w := 0; w < f.n; w++ {
		f.route[w] = f.route[w][:0]
	}
	f.sorted = f.sorted[:0]
	for s := 0; s < f.shards; s++ {
		f.sorted = append(f.sorted, f.changed[s]...)
	}
	slices.SortFunc(f.sorted, func(a, b changeRec[V]) int { return cmp.Compare(a.id, b.id) })
	for _, rec := range f.sorted {
		if f.spec.Consume {
			o := layout.Asg.Owner(rec.id)
			f.route[o] = append(f.route[o], VarUpdate[V]{ID: rec.id, Val: rec.val})
			continue
		}
		for _, h := range layout.Hosts(rec.id) {
			if h == rec.winner {
				continue
			}
			f.route[h] = append(f.route[h], VarUpdate[V]{ID: rec.id, Val: rec.val})
		}
	}
	scheduled := 0
	for w := 0; w < f.n; w++ {
		if len(f.route[w]) > 0 {
			scheduled++
		}
	}
	return f.route, scheduled
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/partition"
	"grape/internal/server"
	"grape/internal/store"
	"grape/internal/trace"
	"grape/internal/transport"
)

// layerPass is the traced pass that attributes each class's query time to
// layers, timing calls into each layer from outside. Per class and
// repetition it cuts the graph with the strategy's Partition, builds a fresh
// layout, and runs the fixpoint once on it: three repetitions untraced (wall
// time and mallocs) alternating with three that carry the flight recorder on
// the run context. Each run is the first on its layout, as in a one-shot
// query, so lazy per-layout work and cold run scratch are counted.
// engine.run_ms is the traced median; the last traced run's spans give the
// compute/wait/fold/ship/assemble split. It also times the answer's JSON
// encoding as the server would write it.
func layerPass(ctx context.Context, o *outcome, specs []querySpec, graphs map[string]*graph.Graph, refs map[string]answer, pool *wirePool) error {
	var traced, untraced float64
	for _, s := range specs {
		c := s.class
		e, err := engine.Lookup(c)
		if err != nil {
			return err
		}
		pq, err := e.Parse(s.query)
		if err != nil {
			return err
		}
		g := graphs[s.graph]
		var cuts, builds, plain, tracedMs, allocs []float64
		// once cuts the graph, builds a layout and runs the query on it.
		once := func(ctx context.Context) (time.Duration, any, *metrics.Stats, *partition.Layout, error) {
			start := time.Now()
			asg, err := s.strat.Partition(g, workers)
			if err != nil {
				return 0, nil, nil, nil, err
			}
			cuts = append(cuts, ms(time.Since(start)))
			start = time.Now()
			var layout *partition.Layout
			if pq.Hops > 0 {
				layout = partition.BuildExpanded(g, asg, pq.Hops)
			} else {
				layout = partition.Build(g, asg)
			}
			builds = append(builds, ms(time.Since(start)))
			run, err := layoutRunner(e, g, layout, pq, pool)
			if err != nil {
				return 0, nil, nil, nil, err
			}
			d, res, st, err := run(ctx)
			return d, res, st, layout, err
		}
		var layout *partition.Layout
		var res, tres any
		var st, tst *metrics.Stats
		var tr *trace.Run
		for range 3 {
			m0 := mallocs()
			var d time.Duration
			if d, res, st, layout, err = once(ctx); err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
			allocs = append(allocs, float64(mallocs()-m0))
			plain = append(plain, ms(d))

			rec := trace.NewRecorder("perfbench-" + c)
			d, tres, tst, _, err = once(trace.WithRecorder(ctx, rec))
			tr = rec.Snapshot()
			rec.Release()
			if err != nil {
				return fmt.Errorf("%s traced: %w", c, err)
			}
			tracedMs = append(tracedMs, ms(d))

			// Tracing must change neither the answer nor the guardrail
			// counters, and the recorder must hold one superstep span per
			// superstep.
			if len(tr.Steps) != tst.Supersteps {
				o.problem("%s: %d superstep spans recorded, Stats.Supersteps = %d", c, len(tr.Steps), tst.Supersteps)
			}
			if tst.Bytes != st.Bytes || tst.Supersteps != st.Supersteps || !reflect.DeepEqual(tres, res) {
				o.problem("%s: traced run differs from the untraced run", c)
			}
		}
		traced += median(tracedMs)
		untraced += median(plain)
		if !reflect.DeepEqual(res, refs[c].result) {
			o.problem("%s: answer on the prebuilt layout differs from the reference run", c)
		}
		if st.Bytes != refs[c].bytes || st.Supersteps != refs[c].steps {
			o.problem("%s: comm %d B / %d steps on the prebuilt layout, reference %d B / %d steps", c, st.Bytes, st.Supersteps, refs[c].bytes, refs[c].steps)
		}
		o.m["partition.cut_ms."+c] = median(cuts)
		o.m["partition.build_ms."+c] = median(builds)
		o.m["partition.replication_kb."+c] = float64(layout.ReplicationBytes) / 1e3
		o.m["engine.run_ms."+c] = median(tracedMs)
		o.m["engine.allocs."+c] = median(allocs)
		o.m["engine.supersteps."+c] = float64(st.Supersteps)
		o.m["engine.comm_kb."+c] = float64(st.Bytes) / 1e3
		splitRun(o, c, tr)

		enc := make([]float64, 3)
		for i := range enc {
			resp := server.QueryResponse{Graph: s.graph, Epoch: 1, Program: c, Canonical: pq.Canonical, Result: res}
			start := time.Now()
			if _, err := resp.MarshalJSON(); err != nil {
				return fmt.Errorf("%s: encoding: %w", c, err)
			}
			enc[i] = ms(time.Since(start))
		}
		o.m["server.encode_ms."+c] = median(enc)
	}
	o.m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	return nil
}

// layoutRunner returns a closure running pq on the prebuilt layout: through
// Entry.Resident's RunParsed on the bus, or through Entry.Run with the
// layout and a fresh wire transport per call.
func layoutRunner(e engine.Entry, g *graph.Graph, layout *partition.Layout, pq engine.ParsedQuery, pool *wirePool) (func(context.Context) (time.Duration, any, *metrics.Stats, error), error) {
	if pool == nil {
		r, err := e.Resident(layout, engine.Options{})
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (time.Duration, any, *metrics.Stats, error) {
			start := time.Now()
			res, st, err := r.RunParsed(ctx, pq)
			return time.Since(start), res, st, err
		}, nil
	}
	return func(ctx context.Context) (d time.Duration, res any, st *metrics.Stats, err error) {
		err = pool.run(ctx, func(tr *transport.Coordinator) error {
			start := time.Now()
			var rerr error
			res, st, rerr = e.Run(ctx, g, engine.Options{Workers: workers, Layout: layout, Transport: tr}, pq.Canonical)
			d = time.Since(start)
			return rerr
		})
		return d, res, st, err
	}, nil
}

// splitRun turns one traced run into its layer times. Per superstep the
// slowest worker's compute+apply is compute, the rest of start..barrier is
// waiting on delivery and codecs, and barrier..end is the coordinator fold.
// Before the first superstep the run ships setup frames and fragments;
// after the last it assembles the answer.
func splitRun(o *outcome, c string, r *trace.Run) {
	var compute, wait, fold time.Duration
	for _, s := range r.Steps {
		var slowest int64
		for _, w := range s.Workers {
			slowest = max(slowest, w.ComputeNS+w.ApplyNS)
		}
		compute += time.Duration(slowest)
		wait += s.Barrier.Sub(s.Start) - time.Duration(slowest)
		fold += s.End.Sub(s.Barrier)
	}
	var ship, assemble time.Duration
	if n := len(r.Steps); n > 0 {
		ship = r.Steps[0].Start.Sub(r.Start)
		assemble = r.End.Sub(r.Steps[n-1].End)
	}
	o.m["engine.compute_ms."+c] = ms(compute)
	o.m["engine.wait_ms."+c] = ms(wait)
	o.m["engine.fold_ms."+c] = ms(fold)
	o.m["engine.assemble_ms."+c] = ms(assemble)
	o.m["transport.ship_ms."+c] = ms(ship)
}

// probes times the layers no workload query reaches on its own: connecting
// eight wire workers, snapshotting the workload's graphs and journaling
// update batches on a scratch store, and (sessionProbe) applying update
// batches through a cc session, as POST /update does.
func probes(ctx context.Context, cfg config, o *outcome, graphs map[string]*graph.Graph, sessionProbe bool) error {
	connect := make([]float64, 5)
	for i := range connect {
		d, err := connectOnce(ctx)
		if err != nil {
			return err
		}
		connect[i] = ms(d)
	}
	o.m["transport.connect_ms"] = median(connect)

	social := graphs["social"]
	if social == nil {
		social = dataset(scaleFor(cfg.seed), "social").Freeze()
	}
	batches := updateBatches(social, 32, cfg.seed)
	st, err := store.Open(filepath.Join(cfg.tmp, "store-probe"))
	if err != nil {
		return err
	}
	snap := 0.0
	for name, g := range graphs {
		gs, err := st.Graph(name)
		if err != nil {
			return err
		}
		start := time.Now()
		err = gs.Create(g, 1)
		snap += ms(time.Since(start))
		gs.Close()
		if err != nil {
			return err
		}
	}
	o.m["store.snapshot_ms"] = snap
	gs, err := st.Graph("journal-probe")
	if err != nil {
		return err
	}
	defer gs.Close()
	if err := gs.Create(social, 1); err != nil {
		return err
	}
	before := gs.Stats().JournalBytes
	appends := make([]float64, len(batches))
	for i, b := range batches {
		start := time.Now()
		if err := gs.Append(store.Record{PreEpoch: uint64(i + 1), Program: "cc", Updates: b}); err != nil {
			return err
		}
		appends[i] = ms(time.Since(start))
	}
	o.m["store.append_ms"] = median(appends)
	o.m["store.journal_bytes_per_write"] = float64(gs.Stats().JournalBytes-before) / float64(len(batches))

	if !sessionProbe {
		return nil
	}
	e, err := engine.Lookup("cc")
	if err != nil {
		return err
	}
	pq, err := e.Parse("")
	if err != nil {
		return err
	}
	sess, _, _, err := e.Session(ctx, social.Clone(), engine.Options{Workers: workers, Strategy: partition.Hash{}}, pq)
	if err != nil {
		return err
	}
	walls := make([]float64, 8)
	for i := range walls {
		_, st, err := sess.Update(ctx, batches[i])
		if err != nil {
			return fmt.Errorf("cc session update: %w", err)
		}
		walls[i] = ms(st.WallTime)
	}
	o.m["engine.session_update_ms"] = median(walls)
	return nil
}

// connectOnce listens on loopback, dials eight workers and accepts them,
// then closes everything.
func connectOnce(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	conns := make([]*transport.WorkerConn, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = transport.Dial("tcp", l.Addr().String(), 5*time.Second)
		}(i)
	}
	coord, err := l.AcceptWorkers(workers, 10*time.Second)
	wg.Wait()
	d := time.Since(start)
	if coord != nil {
		coord.Close()
	}
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	if err != nil {
		return 0, err
	}
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return d, ctx.Err()
}

// updateBatches draws n legal batches of eight mixed edge updates (40%
// deletions) for g from the seeded update-stream generator.
func updateBatches(g *graph.Graph, n int, seed int64) [][]engine.EdgeUpdate {
	stream := gen.UpdateStream(g, gen.StreamConfig{Batches: n, BatchSize: 8, DeleteP: 0.4, Seed: seed})
	out := make([][]engine.EdgeUpdate, len(stream))
	for i, b := range stream {
		out[i] = make([]engine.EdgeUpdate, len(b))
		for k, u := range b {
			out[i][k] = engine.EdgeUpdate{From: u.From, To: u.To, W: u.W, Label: u.Label, Del: u.Del}
		}
	}
	return out
}

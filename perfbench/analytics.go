package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/transport"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// wirePool hands each distributed query a fresh transport: eight in-process
// worker loops dial one loopback listener and serve engine.ServeWorker, the
// code path grape-worker runs.
type wirePool struct {
	l *transport.Listener
}

func newWirePool() (*wirePool, error) {
	l, err := transport.NewListener("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &wirePool{l: l}, nil
}

func (p *wirePool) close() { p.l.Close() }

// run connects eight workers, hands the coordinator side to fn, then tears
// the transport down and waits for every worker loop to return.
func (p *wirePool) run(ctx context.Context, fn func(*transport.Coordinator) error) error {
	addr := p.l.Addr().String()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := transport.Dial("tcp", addr, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			errs[i] = engine.ServeWorker(ctx, conn)
		}(i)
	}
	coord, err := p.l.AcceptWorkers(workers, 10*time.Second)
	if err != nil {
		wg.Wait()
		return err
	}
	err = fn(coord)
	coord.Close()
	wg.Wait()
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("worker %d: %w", i, e)
		}
	}
	return nil
}

// runQuery answers one query from scratch with Entry.Run — on the bus, or
// over a fresh wire transport when pool is set — and returns its latency:
// partitioning, layout build, connecting the workers (wire) and the
// fixpoint, up to the moment the answer is back.
func runQuery(ctx context.Context, s querySpec, g *graph.Graph, pool *wirePool) (time.Duration, answer, error) {
	e, err := engine.Lookup(s.class)
	if err != nil {
		return 0, answer{}, err
	}
	opts := engine.Options{Workers: workers, Strategy: s.strat}
	var res any
	var st *metrics.Stats
	start := time.Now()
	var d time.Duration
	if pool == nil {
		res, st, err = e.Run(ctx, g, opts, s.query)
		d = time.Since(start)
	} else {
		err = pool.run(ctx, func(tr *transport.Coordinator) error {
			opts.Transport = tr
			var rerr error
			res, st, rerr = e.Run(ctx, g, opts, s.query)
			d = time.Since(start)
			return rerr
		})
	}
	if err != nil {
		return 0, answer{}, fmt.Errorf("%s: %w", s.class, err)
	}
	return d, answer{result: res, bytes: st.Bytes, steps: st.Supersteps}, nil
}

// onePass answers every class once and returns the answers by class.
func onePass(ctx context.Context, specs []querySpec, graphs map[string]*graph.Graph, pool *wirePool) (map[string]answer, error) {
	out := make(map[string]answer, len(specs))
	for _, s := range specs {
		_, a, err := runQuery(ctx, s, graphs[s.graph], pool)
		if err != nil {
			return nil, err
		}
		out[s.class] = a
	}
	return out, nil
}

// runAnalytics is the analytics workload (bus) and, with wire set, the
// analytics-wire workload: a closed loop of one-shot queries cycling through
// the seven classes, each answered from scratch by Entry.Run.
func runAnalytics(ctx context.Context, cfg config, o *outcome, wire bool) error {
	sc := scaleFor(cfg.seed)
	specs := classSpecs(sc)
	var pool *wirePool
	if wire {
		var err error
		if pool, err = newWirePool(); err != nil {
			return err
		}
		defer pool.close()
	}

	// Set-up: freeze the graphs and answer one query per class. Input
	// generation is not set-up; each repetition regenerates and thaws the
	// graphs untimed.
	var graphs map[string]*graph.Graph
	var refs map[string]answer
	var setups, freezes []float64
	for range setupReps {
		graphs = allGraphs(sc)
		for _, g := range graphs {
			thawed(g)
		}
		residentMB()
		start := time.Now()
		for _, g := range graphs {
			g.Freeze()
		}
		freezes = append(freezes, ms(time.Since(start)))
		var err error
		if refs, err = onePass(ctx, specs, graphs, pool); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.m["setup_s"] = median(setups)
	o.m["graph.freeze_ms"] = median(freezes)
	o.m["resident_mb"] = residentMB()

	// Answer checks before timing: the bus reference against internal/seq
	// ground truth and BENCH_PR10's guardrail counters at seed 1; the wire
	// answers against the bus answers.
	bus := refs
	if wire {
		var err error
		if bus, err = onePass(ctx, specs, graphs, nil); err != nil {
			return err
		}
		for _, c := range classNames {
			if !reflect.DeepEqual(refs[c].result, bus[c].result) {
				o.problem("%s: wire answer differs from the bus answer", c)
			}
		}
	}
	if err := groundTruth(graphs["road"], bus); err != nil {
		o.problem("%v", err)
	}
	if !wire && cfg.seed == 1 {
		for _, c := range classNames {
			g := pr10Guard[c]
			if a := refs[c]; float64(a.bytes)/1e3 != g.commKB || a.steps != g.steps {
				o.problem("%s: comm %.3f KB / %d steps, BENCH_PR10.json records %.3f KB / %d steps", c, float64(a.bytes)/1e3, a.steps, g.commKB, g.steps)
			}
		}
	}

	// Timed window: whole passes until the window closes.
	lat := map[string][]float64{}
	var all, passes []float64
	gcw := startGC()
	start := time.Now()
	for time.Since(start) < cfg.window {
		pass, complete := 0.0, true
		for _, s := range specs {
			o.attempted++
			d, a, err := runQuery(ctx, s, graphs[s.graph], pool)
			if err != nil {
				o.opFailed("%v", err)
				complete = false
				continue
			}
			ref := refs[s.class]
			if a.bytes != ref.bytes || a.steps != ref.steps {
				o.opFailed("%s: comm %d B / %d steps, reference %d B / %d steps", s.class, a.bytes, a.steps, ref.bytes, ref.steps)
				complete = false
				continue
			}
			if !reflect.DeepEqual(a.result, ref.result) {
				o.opFailed("%s: answer differs from the reference run", s.class)
				complete = false
				continue
			}
			lat[s.class] = append(lat[s.class], ms(d))
			all = append(all, ms(d))
			pass += ms(d)
		}
		if complete {
			passes = append(passes, pass)
		}
	}
	o.m["runtime.gc_cycles"], o.m["runtime.gc_pause_ms"] = gcw.stop()

	// One client in a closed loop: throughput is the seven queries of a pass
	// over the median pass time (answer checks excluded).
	o.m["qps"] = float64(len(specs)) / (median(passes) / 1e3)
	o.m["read_p50_ms"] = quantile(all, 0.5)
	o.m["read_p90_ms"] = quantile(all, 0.9)
	comm := 0.0
	for _, c := range classNames {
		o.m[c+"_ms"] = median(lat[c])
		comm += float64(refs[c].bytes) / 1e3
	}
	o.m["comm_kb"] = comm
	// No server and no writes on this workload.
	for _, n := range []string{"write_p50_ms", "first_read_after_write_ms", "server.hit_ratio", "server.hit_ms",
		"server.miss_run_ms", "server.miss_overhead_ms", "server.rejected"} {
		o.m[n] = 0
	}
	if !cfg.traced {
		return nil
	}
	if err := layerPass(ctx, o, specs, graphs, refs, pool); err != nil {
		return err
	}
	if err := probes(ctx, cfg, o, graphs, true); err != nil {
		return err
	}
	// How much of each class's query time the timed layer calls account for.
	connect := 0.0
	if wire {
		connect = o.m["transport.connect_ms"]
	}
	for _, c := range classNames {
		parts := o.m["partition.cut_ms."+c] + o.m["partition.build_ms."+c] + connect + o.m["engine.run_ms."+c]
		q := o.m[c+"_ms"]
		o.notes = append(o.notes, fmt.Sprintf("account %-8s %s_ms %.2f = cut %.2f + build %.2f + connect %.2f + run %.2f + residual %.2f (%.0f%%)",
			c, c, q, o.m["partition.cut_ms."+c], o.m["partition.build_ms."+c], connect, o.m["engine.run_ms."+c], q-parts, 100*(q-parts)/q))
	}
	return nil
}

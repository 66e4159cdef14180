package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"grape/internal/engine"
	"grape/internal/graph"
	"grape/internal/partition"
	"grape/internal/server"
	"grape/internal/server/client"
	"grape/internal/store"
)

// clients is the closed-loop client count of serve-mixed: one per
// core, each on its own keep-alive connection.
var clients = runtime.NumCPU()

// request is one operation a serve client issues.
type request struct {
	graph, program, query string
	write                 bool
}

// servedOp is one completed or failed operation as the client saw it.
type servedOp struct {
	req     request
	start   time.Time
	ms      float64
	ok      bool
	status  int
	cached  bool
	epoch   uint64
	traceID string
	body    []byte  // kept only for sampled answer checks
	wallMs  float64 // writes: the session update's engine wall time
}

// liveServer is a server.Server behind a real loopback HTTP listener.
type liveServer struct {
	s    *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer serves a new server.Server on an ephemeral loopback port.
func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(cfg)
	ls := &liveServer{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		ls.hs.Serve(ln)
		close(ls.done)
	}()
	return ls, nil
}

// stop drains the HTTP server, waits for its accept loop to return, and
// closes the serving runtime (journals and snapshot mappings included).
func (ls *liveServer) stop() {
	ls.hs.Shutdown(context.Background())
	<-ls.done
	ls.s.Close()
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// warm answers one query per request through the typed client.
func warm(ctx context.Context, url string, reqs []request) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := client.New(url, hc)
	for _, r := range reqs {
		if _, err := c.Query(ctx, server.QueryRequest{Graph: r.graph, Program: r.program, Query: r.query}); err != nil {
			return fmt.Errorf("warming %s on %s: %w", r.program, r.graph, err)
		}
	}
	return nil
}

// mix is a traffic mix: n of every block of requests are req. Each client
// deals its requests from a block shuffled by its own seeded generator, so
// every block holds the mix's shares exactly and the shares do not drift
// from run to run.
type mix []struct {
	n   int
	req request
}

// writer applies POST /update batches in stream order: deletions in a
// generated stream name edges live at their point in the stream, so two
// clients must not reorder them.
type writer struct {
	mu      sync.Mutex
	batches [][]engine.EdgeUpdate
	next    int
	applied []appliedBatch
}

type appliedBatch struct {
	epoch uint64
	batch []engine.EdgeUpdate
}

// drive runs the closed loop: clients goroutines, each on one keep-alive
// connection, issue requests until the deadline. Reads are timed to
// the last byte of the body and not JSON-decoded; a seeded sample of
// bodies is kept for answer checks after the window.
func drive(ctx context.Context, url string, deadline time.Time, seed int64, m mix, w *writer) [][]servedOp {
	var block []int
	for k, part := range m {
		for range part.n {
			block = append(block, k)
		}
	}
	out := make([][]servedOp, clients)
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
			deck := append([]int(nil), block...)
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			c := client.New(url, hc)
			sampled := map[string]int{}
			var buf bytes.Buffer
			for i := 0; time.Now().Before(deadline); i++ {
				if i%len(deck) == 0 {
					rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
				}
				req := m[deck[i%len(deck)]].req
				if req.write {
					if op, ok := w.apply(ctx, c, req); ok {
						out[ci] = append(out[ci], op)
						continue
					}
					req = request{graph: req.graph, program: "cc"} // stream exhausted: read instead
				}
				op := read(ctx, hc, url, req, &buf)
				if op.ok && sampled[req.program] < 2 && rng.Float64() < 0.05 {
					sampled[req.program]++
					op.body = append([]byte(nil), buf.Bytes()...)
				}
				out[ci] = append(out[ci], op)
			}
		}(ci)
	}
	wg.Wait()
	return out
}

// read issues one POST /query and reads the whole body. The epoch, cache
// flag and trace id are found by byte search, not by decoding: the server
// writes epoch and cached before the (possibly large) result, and trace_id
// after it.
func read(ctx context.Context, hc *http.Client, url string, r request, buf *bytes.Buffer) servedOp {
	body, _ := json.Marshal(server.QueryRequest{Graph: r.graph, Program: r.program, Query: r.query})
	op := servedOp{req: r, start: time.Now()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return op
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return op
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	op.ms = ms(time.Since(op.start))
	op.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusOK {
		return op
	}
	b := buf.Bytes()
	head := b[:min(len(b), 512)]
	op.ok = true
	op.cached = bytes.Contains(head, []byte(`"cached":true`))
	if i := bytes.Index(head, []byte(`"epoch":`)); i >= 0 {
		rest := head[i+len(`"epoch":`):]
		j := bytes.IndexByte(rest, ',')
		if j > 0 {
			op.epoch, _ = strconv.ParseUint(string(rest[:j]), 10, 64)
		}
	}
	tail := b[max(0, len(b)-128):]
	if i := bytes.LastIndex(tail, []byte(`"trace_id":"`)); i >= 0 {
		rest := tail[i+len(`"trace_id":"`):]
		if j := bytes.IndexByte(rest, '"'); j > 0 {
			op.traceID = string(rest[:j])
		}
	}
	return op
}

// apply posts the next batch of the stream through the cc session; ok is
// false when the stream is exhausted.
func (w *writer) apply(ctx context.Context, c *client.Client, r request) (servedOp, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.next >= len(w.batches) {
		return servedOp{}, false
	}
	b := w.batches[w.next]
	w.next++
	edges := make([]server.EdgeJSON, len(b))
	for i, u := range b {
		edges[i] = server.EdgeJSON{From: int64(u.From), To: int64(u.To), W: u.W, Label: u.Label, Del: u.Del}
	}
	op := servedOp{req: r, start: time.Now()}
	resp, err := c.MutateProgram(ctx, r.graph, "cc", "", edges)
	op.ms = ms(time.Since(op.start))
	if err != nil {
		return op, true
	}
	op.ok, op.epoch, op.wallMs = true, resp.Epoch, resp.Stats.WallMs
	w.applied = append(w.applied, appliedBatch{resp.Epoch, b})
	return op, true
}

// serveMetrics turns the clients' operations into serve-mixed's
// metrics and counts failures.
func serveMetrics(o *outcome, ls *liveServer, ops [][]servedOp, start time.Time, window time.Duration) []servedOp {
	var all []servedOp
	for _, c := range ops {
		all = append(all, c...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	var reads, hits, writes, walls, firsts, runSpans, overheads []float64
	perClass := map[string][]float64{}
	seen := map[string]bool{}
	slices := make([]float64, max(int(window/time.Second), 1)) // operations per second of the window
	rejected := 0
	for _, op := range all {
		o.attempted++
		if !op.ok {
			if op.status == http.StatusTooManyRequests {
				rejected++
			}
			o.opFailed("%s %s %q failed (HTTP status %d)", op.req.graph, op.req.program, op.req.query, op.status)
			continue
		}
		spread(slices, op.start.Sub(start).Seconds(), op.ms/1e3)
		if op.req.write {
			writes = append(writes, op.ms)
			walls = append(walls, op.wallMs)
			continue
		}
		reads = append(reads, op.ms)
		perClass[op.req.program] = append(perClass[op.req.program], op.ms)
		if op.cached {
			hits = append(hits, op.ms)
			continue
		}
		if key := fmt.Sprintf("%s@%d", op.req.program, op.epoch); op.epoch > 1 && !seen[key] {
			seen[key] = true
			firsts = append(firsts, op.ms)
		}
		if run, ok := ls.s.Flight().Get(op.traceID); ok {
			span := ms(run.End.Sub(run.Start))
			runSpans = append(runSpans, span)
			overheads = append(overheads, op.ms-span)
		}
	}
	o.m["qps"] = median(slices)
	o.m["read_p50_ms"] = quantile(reads, 0.5)
	o.m["read_p90_ms"] = quantile(reads, 0.9)
	for _, c := range classNames {
		o.m[c+"_ms"] = median(perClass[c])
	}
	o.m["write_p50_ms"] = median(writes)
	o.m["first_read_after_write_ms"] = median(firsts)
	o.m["server.hit_ratio"] = float64(len(hits)) / float64(max(len(reads), 1))
	o.m["server.hit_ms"] = median(hits)
	o.m["server.miss_run_ms"] = median(runSpans)
	o.m["server.miss_overhead_ms"] = median(overheads)
	o.m["server.rejected"] = float64(rejected)
	if len(walls) > 0 {
		o.m["engine.session_update_ms"] = median(walls)
	}
	return all
}

// spread adds one completed operation, in flight from t0 for d seconds, to
// the one-second slices it overlaps, in proportion to the overlap.
func spread(slices []float64, t0, d float64) {
	for i := max(int(t0), 0); i < len(slices) && float64(i) < t0+d; i++ {
		lo, hi := max(t0, float64(i)), min(t0+d, float64(i+1))
		slices[i] += (hi - lo) / d
	}
}

// checkSamples compares each sampled served answer with Entry.Run on the
// graph at the answer's reported epoch: base plus the batches applied up to
// that epoch, replayed in epoch order on a private copy.
func checkSamples(ctx context.Context, o *outcome, ops []servedOp, base map[string]*graph.Graph, applied []appliedBatch) error {
	var samples []client.QueryResult
	for _, op := range ops {
		if op.body == nil {
			continue
		}
		var r client.QueryResult
		if err := json.Unmarshal(op.body, &r); err != nil {
			o.opFailed("undecodable %s answer: %v", op.req.program, err)
			continue
		}
		samples = append(samples, r)
	}
	if len(samples) == 0 {
		o.problem("no served answer was sampled for checking")
		return nil
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Epoch < samples[j].Epoch })
	sort.Slice(applied, func(i, j int) bool { return applied[i].epoch < applied[j].epoch })
	work := map[string]*graph.Graph{}
	for name, g := range base {
		work[name] = g.Clone()
	}
	next := 0
	for _, r := range samples {
		for ; next < len(applied) && applied[next].epoch <= r.Epoch; next++ {
			g := work["social"]
			for _, u := range applied[next].batch {
				if !u.Del {
					g.AddLabeledEdge(u.From, u.To, u.W, u.Label)
				} else if _, ok := g.RemoveEdge(u.From, u.To, u.Label); !ok {
					return fmt.Errorf("replaying epoch %d: no edge %d->%d to delete", applied[next].epoch, u.From, u.To)
				}
			}
		}
		g := work[r.Graph].Freeze()
		want, err := referenceRun(ctx, g, r.Program, r.Canonical, partition.Hash{})
		if err != nil {
			return err
		}
		same, err := sameJSON(r.Result, want)
		if err != nil {
			return err
		}
		if !same {
			o.opFailed("served %s %q at epoch %d differs from Entry.Run on that epoch's graph", r.Program, r.Canonical, r.Epoch)
		}
	}
	return nil
}

// runServeMixed is the serve-mixed workload: a durable server (journal
// fsync as shipped) holding social, under 10% POST /update batches through
// the cc session and 40% cc, 25% keyword, 25% tricount reads.
func runServeMixed(ctx context.Context, cfg config, o *outcome) error {
	sc := scaleFor(cfg.seed)
	warmReqs := []request{
		{graph: "social", program: "cc"},
		{graph: "social", program: "keyword", query: "k=db,graph bound=4"},
		{graph: "social", program: "tricount"},
	}
	var ls *liveServer
	var social *graph.Graph
	var dir string
	var setups, freezes []float64
	for range setupReps {
		if ls != nil {
			ls.stop()
			os.RemoveAll(dir)
		}
		social = thawed(dataset(sc, "social"))
		var err error
		if dir, err = os.MkdirTemp(cfg.tmp, "durable-"); err != nil {
			return err
		}
		residentMB()
		start := time.Now()
		social.Freeze()
		freezes = append(freezes, ms(time.Since(start)))
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		if ls, err = startServer(server.Config{Durable: st}); err != nil {
			return err
		}
		if err := ls.s.AddGraph("social", social); err != nil {
			return err
		}
		if err := warm(ctx, ls.url, warmReqs); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer ls.stop()
	o.m["setup_s"] = median(setups)
	o.m["graph.freeze_ms"] = median(freezes)
	o.m["resident_mb"] = residentMB()

	// The server mutates its graph in place; answers are checked against a
	// private frozen copy taken before any write.
	base := map[string]*graph.Graph{"social": social.Clone()}
	w := &writer{batches: updateBatches(base["social"], 4000, cfg.seed)}
	m := mix{
		{2, request{graph: "social", program: "update", write: true}},
		{8, request{graph: "social", program: "cc"}},
		{5, request{graph: "social", program: "keyword", query: "k=db,graph bound=4"}},
		{5, request{graph: "social", program: "tricount"}},
	}
	gcw := startGC()
	start := time.Now()
	ops := drive(ctx, ls.url, start.Add(cfg.window), cfg.seed, m, w)
	o.m["runtime.gc_cycles"], o.m["runtime.gc_pause_ms"] = gcw.stop()
	all := serveMetrics(o, ls, ops, start, cfg.window)
	if err := checkSamples(ctx, o, all, base, w.applied); err != nil {
		return err
	}
	if !cfg.traced {
		return nil
	}
	// The traced pass runs the seven classes on the bus over fresh copies of
	// every dataset (the served graph has been mutated), then the probes on
	// the workload's own graph; session_update_ms came from the writes.
	graphs := allGraphs(sc)
	refs, err := onePass(ctx, classSpecs(sc), graphs, nil)
	if err != nil {
		return err
	}
	if err := layerPass(ctx, o, classSpecs(sc), graphs, refs, nil); err != nil {
		return err
	}
	comm := 0.0
	for _, c := range classNames {
		comm += o.m["engine.comm_kb."+c]
	}
	o.m["comm_kb"] = comm
	return probes(ctx, cfg, o, base, false)
}

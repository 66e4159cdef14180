package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"grape/internal/engine"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
)

// Tests of the POST /query read path: cache hits that take no graph lock,
// coalesced identical misses, and the response bytes. CI runs the
// concurrency tests with -race -count=20.

// holdGraph takes name's graph lock for write, as a pending mutation does,
// and returns its release. Calls after the first are no-ops, so a test
// defers it too and a failed test never leaves the lock held.
func holdGraph(t *testing.T, s *Server, name string) func() {
	t.Helper()
	s.mu.Lock()
	rg := s.graphs[name]
	s.mu.Unlock()
	if rg == nil {
		t.Fatalf("no resident graph %q", name)
	}
	rg.mu.Lock()
	return sync.OnceFunc(rg.mu.Unlock)
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flights reports the number of flights up and their followers in total.
func (c *inflight) counts() (flights, followers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.flights {
		followers += f.followers
	}
	return len(c.flights), followers
}

func roadServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.AddGraph("road", gen.RoadGrid(12, 12, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// solo is the engine's answer to req on g, with the server's layout
// parameters.
func solo(t *testing.T, g *graph.Graph, cfg Config, req QueryRequest) any {
	t.Helper()
	e, err := engine.Lookup(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := partition.ByName(cfg.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Run(context.Background(), g, engine.Options{Workers: cfg.Workers, Strategy: strat}, req.Query)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func postQuery(t *testing.T, url string, req QueryRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out
}

// TestCacheHitDuringPendingWrite: a cached answer is served while a writer
// holds the graph lock — the hit is a read ordered before that write.
func TestCacheHitDuringPendingWrite(t *testing.T) {
	s := roadServer(t, Config{Workers: 4})
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}
	warm, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	release := holdGraph(t, s, "road")
	defer release()
	type answer struct {
		resp *QueryResponse
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := s.Query(context.Background(), req)
		got <- answer{resp, err}
	}()
	var hit *QueryResponse
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatal(a.err)
		}
		hit = a.resp
	case <-time.After(10 * time.Second):
		t.Fatal("cached query waited on the held graph lock")
	}
	if !hit.Cached || hit.Epoch != warm.Epoch || !reflect.DeepEqual(hit.Result, warm.Result) {
		t.Fatalf("hit = cached %v epoch %d, want the warm answer at epoch %d", hit.Cached, hit.Epoch, warm.Epoch)
	}
}

// TestCoalesceIdenticalMisses: 8 concurrent identical misses at a fresh
// epoch cost one engine run; the 7 followers answer with the leader's result
// at the leader's epoch, byte for byte.
func TestCoalesceIdenticalMisses(t *testing.T) {
	cfg := Config{Workers: 4, Strategy: "hash", MaxInFlight: 8}
	s := roadServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mut, err := s.Mutate(context.Background(), "road", "", "", []EdgeJSON{{From: 0, To: 143, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=0"}

	release := holdGraph(t, s, "road")
	defer release()
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postQuery(t, ts.URL, req)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
			}
			bodies[i] = body
		}()
	}
	waitFor(t, "7 followers", func() bool { _, f := s.inflight.counts(); return f == n-1 })
	release()
	wg.Wait()

	var leader, follower []byte
	var answers []QueryResponse
	for _, b := range bodies {
		var r QueryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("undecodable body %q: %v", b, err)
		}
		answers = append(answers, r)
		switch {
		case !r.Cached:
			if leader != nil {
				t.Fatal("two uncached answers: a follower ran the engine")
			}
			leader = b
			if r.TraceID == "" {
				t.Fatal("leader's answer lacks its trace_id")
			}
		case follower == nil:
			follower = b
		case !bytes.Equal(b, follower):
			t.Fatalf("follower bodies differ:\n%s\n%s", follower, b)
		}
	}
	if leader == nil || follower == nil {
		t.Fatal("want one leader and 7 followers")
	}
	for _, r := range answers {
		if r.Epoch != mut.Epoch || !reflect.DeepEqual(r.Result, answers[0].Result) {
			t.Fatalf("answer at epoch %d differs (want every answer at epoch %d, identical)", r.Epoch, mut.Epoch)
		}
	}
	if f := strings.Replace(string(leader), `"cached":false`, `"cached":true`, 1); !strings.HasPrefix(f, strings.TrimSuffix(string(follower), "}\n")) {
		t.Fatalf("follower body is not the leader's answer:\n%s\n%s", leader, follower)
	}
	st := s.Stats()
	if st.RunsByClass["sssp"] != 1 || st.Coalesced != n-1 || st.CacheHits != n-1 {
		t.Fatalf("sssp runs/coalesced/hits = %d/%d/%d, want 1/%d/%d", st.RunsByClass["sssp"], st.Coalesced, st.CacheHits, n-1, n-1)
	}
}

// TestCoalesceLeaderCancelled: followers of a leader whose client went away
// still get correct answers — from the leader's run if it finished, else
// from their own.
func TestCoalesceLeaderCancelled(t *testing.T) {
	cfg := Config{Workers: 4, Strategy: "hash", MaxInFlight: 4}
	s := roadServer(t, cfg)
	g := gen.RoadGrid(12, 12, 1)
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=5"}
	want := solo(t, g, cfg, req)

	release := holdGraph(t, s, "road")
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, req)
		leaderErr <- err
	}()
	waitFor(t, "the leader's flight", func() bool { n, _ := s.inflight.counts(); return n == 1 })
	const n = 3
	errs := make(chan error, n)
	for range n {
		go func() {
			resp, err := s.Query(context.Background(), req)
			switch {
			case err != nil:
				errs <- err
			case !reflect.DeepEqual(resp.Result, want):
				errs <- errors.New("follower answer differs from the solo run")
			default:
				errs <- nil
			}
		}()
	}
	waitFor(t, "3 followers", func() bool { _, f := s.inflight.counts(); return f == n })
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}
	release()
	for range n {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalesceFollowerDeadline: a follower whose own deadline passes gets a
// 504 and leaves the leader's run alone.
func TestCoalesceFollowerDeadline(t *testing.T) {
	cfg := Config{Workers: 4, Strategy: "hash"}
	s := roadServer(t, cfg)
	req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=7"}
	want := solo(t, gen.RoadGrid(12, 12, 1), cfg, req)

	release := holdGraph(t, s, "road")
	defer release()
	type answer struct {
		resp *QueryResponse
		err  error
	}
	lead := make(chan answer, 1)
	go func() {
		resp, err := s.Query(context.Background(), req)
		lead <- answer{resp, err}
	}()
	waitFor(t, "the leader's flight", func() bool { n, _ := s.inflight.counts(); return n == 1 })

	body, _ := json.Marshal(req)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, hr)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("follower past its deadline: status %d, want 504: %s", rr.Code, rr.Body)
	}
	if n, f := s.inflight.counts(); n != 1 || f != 1 {
		t.Fatalf("flights/followers = %d/%d after the follower gave up, want the leader's flight still up", n, f)
	}

	release()
	a := <-lead
	if a.err != nil {
		t.Fatalf("leader failed after its follower timed out: %v", a.err)
	}
	if a.resp.Cached || a.resp.TraceID == "" || !reflect.DeepEqual(a.resp.Result, want) {
		t.Fatalf("leader answer: cached %v trace %q, or result differs from the solo run", a.resp.Cached, a.resp.TraceID)
	}
	if st := s.Stats(); st.Timeouts != 1 || st.Coalesced != 0 {
		t.Fatalf("timeouts/coalesced = %d/%d, want 1/0", st.Timeouts, st.Coalesced)
	}
}

// TestCoalesceOnlyCacheable: NoCache requests, and every request on a
// cache-disabled server, each take their own run slot and run.
func TestCoalesceOnlyCacheable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		noCache bool
	}{
		{"nocache", Config{Workers: 4, MaxInFlight: 4}, true},
		{"cache-disabled", Config{Workers: 4, MaxInFlight: 4, CacheEntries: -1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := roadServer(t, tc.cfg)
			req := QueryRequest{Graph: "road", Program: "sssp", Query: "source=3", NoCache: tc.noCache}
			release := holdGraph(t, s, "road")
			defer release()
			const n = 3
			errs := make(chan error, n)
			for range n {
				go func() {
					resp, err := s.Query(context.Background(), req)
					if err == nil && resp.Cached {
						err = errors.New("answer reported cached")
					}
					errs <- err
				}()
			}
			// Followers take no run slot: 3 slots in use proves 3 runs.
			waitFor(t, "3 admitted runs", func() bool { _, inFlight := s.sched.gauges(); return inFlight == n })
			if flights, _ := s.inflight.counts(); flights != 0 {
				t.Fatalf("%d flights registered, want none", flights)
			}
			release()
			for range n {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.RunsByClass["sssp"] != n || st.Coalesced != 0 {
				t.Fatalf("sssp runs/coalesced = %d/%d, want %d/0", st.RunsByClass["sssp"], st.Coalesced, n)
			}
		})
	}
}

// oldWire is how /query bodies were encoded before answers were assembled
// from pre-encoded parts: MarshalJSON ran json.Marshal over this struct,
// with the result spliced in as a RawMessage, and the handler wrote it
// through a json.Encoder with SetEscapeHTML(false).
type oldWire struct{ r *QueryResponse }

func (o oldWire) MarshalJSON() ([]byte, error) {
	raw, err := json.Marshal(o.r.Result)
	if err != nil {
		return nil, err
	}
	type wire struct {
		Graph     string          `json:"graph"`
		Epoch     uint64          `json:"epoch"`
		Program   string          `json:"program"`
		Canonical string          `json:"canonical"`
		Cached    bool            `json:"cached"`
		Result    json.RawMessage `json:"result"`
		Stats     RunStats        `json:"stats"`
		TraceID   string          `json:"trace_id,omitempty"`
	}
	r := o.r
	return json.Marshal(wire{r.Graph, r.Epoch, r.Program, r.Canonical, r.Cached, raw, r.Stats, r.TraceID})
}

func oldBody(t *testing.T, r *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(oldWire{r}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBody checks that the handler's encoding of r is the old encoding.
func sameBody(t *testing.T, what string, r *QueryResponse) {
	t.Helper()
	got, err := r.MarshalJSON()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got = append(got, '\n')
	if want := oldBody(t, r); !bytes.Equal(got, want) {
		t.Fatalf("%s body changed:\n got %s\nwant %s", what, got, want)
	}
}

// TestQueryBodyBytes pins the /query body to the old reflective encoding,
// byte for byte, for every class as a miss (with trace_id), a hit over HTTP
// and a coalesced answer (without), on graph names and canonical queries
// that need HTML escaping.
func TestQueryBodyBytes(t *testing.T) {
	const odd = " <&>"
	s := New(Config{Workers: 4, MaxInFlight: 4})
	for name, g := range testGraphs(t) {
		if err := s.AddGraph(name+odd, g); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	cases := append([]struct{ program, graph, query string }{{"keyword", "social", "k=db,<&> bound=4"}}, programCases...)
	for _, c := range cases {
		req := QueryRequest{Graph: c.graph + odd, Program: c.program, Query: c.query}

		miss, err := s.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", c.program, err)
		}
		if miss.Cached || miss.TraceID == "" {
			t.Fatalf("%s: first answer cached %v trace %q, want a traced miss", c.program, miss.Cached, miss.TraceID)
		}
		sameBody(t, c.program+" miss", miss)

		status, body := postQuery(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.program, status, body)
		}
		hit, err := s.Query(ctx, req)
		if err != nil || !hit.Cached {
			t.Fatalf("%s: second answer not a hit (err %v)", c.program, err)
		}
		if want := oldBody(t, hit); !bytes.Equal(body, want) {
			t.Fatalf("%s hit body changed:\n got %s\nwant %s", c.program, body, want)
		}

		// A fresh key (another worker count) with its graph held: the
		// leader queues on the lock and the second request follows it.
		req.Workers = 2
		release := holdGraph(t, s, req.Graph)
		defer release()
		leaderDone := make(chan error, 1)
		go func() {
			_, err := s.Query(ctx, req)
			leaderDone <- err
		}()
		waitFor(t, "the leader's flight", func() bool { n, _ := s.inflight.counts(); return n == 1 })
		type answer struct {
			r   *QueryResponse
			how served
			err error
		}
		follow := make(chan answer, 1)
		go func() {
			r, how, err := s.query(ctx, req, time.Now())
			follow <- answer{r, how, err}
		}()
		waitFor(t, "a follower", func() bool { _, f := s.inflight.counts(); return f == 1 })
		release()
		if err := <-leaderDone; err != nil {
			t.Fatalf("%s leader: %v", c.program, err)
		}
		a := <-follow
		if a.err != nil || a.how != servedCoalesced {
			t.Fatalf("%s follower: served %d, err %v; want a coalesced answer", c.program, a.how, a.err)
		}
		sameBody(t, c.program+" coalesced", a.r)
	}

	// Synthetic answers: strings the encoder escapes in the result, the
	// trace id present and absent, the result memo set and unset.
	res := map[string]any{"<&>": "a&b", "sep": "a\u2028b", "floats": []float64{1.5, 2}, "q\"uote": nil}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"", "run-<7>&"} {
		for _, memo := range [][]byte{nil, enc} {
			r := &QueryResponse{Graph: "g<&>", Epoch: 9, Program: "p", Canonical: "k=<b>&", Result: res,
				Stats: RunStats{Supersteps: 3, Messages: 10, Bytes: 1 << 40, WallMs: 0.125}, TraceID: trace, resultJSON: memo}
			sameBody(t, "synthetic", r)
			viaMarshal, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if want := oldBody(t, r); !bytes.Equal(append(viaMarshal, '\n'), want) {
				t.Fatalf("json.Marshal(QueryResponse) changed:\n got %s\nwant %s", viaMarshal, want)
			}
		}
	}
}

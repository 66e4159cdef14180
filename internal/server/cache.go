package server

import (
	"container/list"
	"encoding/json"
	"sync"
)

// cacheKey identifies one answer: the graph *instance* (gen — AddGraph
// replacing a name mints a new generation, so a detached old graph can
// never collide with its successor) *at one epoch*, the program, the
// canonical query, and the layout parameters that shaped the run. Mutating
// a graph bumps its epoch, so every key minted before the mutation simply
// stops being generated — stale entries are never served, they just age out
// of the LRU.
type cacheKey struct {
	graph     string
	gen       uint64
	epoch     uint64
	program   string
	canonical string
	strategy  string
	workers   int
}

// cacheVal is a served answer. result is the program's Go result value,
// shared by reference with every later hit: results are treated as immutable
// once cached. The result's JSON encoding is memoized here too — marshaling
// a large distance map dominates the hit path otherwise (profiled:
// sorted-map encoding is milliseconds, the memcpy of the cached bytes is
// not). A miss fills the memo itself, after releasing its graph lock and
// run slot, so an answer is encoded once no matter how many requests serve
// it.
type cacheVal struct {
	result any
	stats  RunStats

	encOnce sync.Once
	enc     []byte
	encErr  error
}

// encodedResult returns the JSON encoding of result, computed once.
func (v *cacheVal) encodedResult() ([]byte, error) {
	v.encOnce.Do(func() { v.enc, v.encErr = json.Marshal(v.result) })
	return v.enc, v.encErr
}

// resultCache is a mutex-guarded LRU over complete query answers.
type resultCache struct {
	mu      sync.Mutex
	maxSize int
	order   *list.List // front = most recent; values are *cacheEnt
	byKey   map[cacheKey]*list.Element
}

type cacheEnt struct {
	key cacheKey
	val *cacheVal
}

func newResultCache(maxSize int) *resultCache {
	if maxSize <= 0 {
		return nil // disabled: every method tolerates the nil receiver
	}
	return &resultCache{maxSize: maxSize, order: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

func (c *resultCache) get(k cacheKey) (*cacheVal, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEnt).val, true
}

func (c *resultCache) put(k cacheKey, v *cacheVal) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*cacheEnt).val = v
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&cacheEnt{key: k, val: v})
	for c.order.Len() > c.maxSize {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEnt).key)
	}
}

// len reports the live entry count (testing hook).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// inflight coalesces identical cache misses. The first request to miss on a
// key leads a flight: it registers the key before admission and runs the
// query as usual. A request that misses on the same key while the flight is
// up follows it instead: it waits, under its own context, without taking a
// run slot, and answers with the leader's cacheVal. The key carries the
// epoch both requests read, so the leader's run epoch — the epoch current
// when the leader took the graph lock, never older than the key's — was
// current at some instant during the follower's request. A flight that
// lands without an answer (the leader failed, was refused or was
// cancelled) sends each follower down its own normal path.
type inflight struct {
	mu      sync.Mutex
	flights map[cacheKey]*flight
}

// flight is one leader's pending miss. epoch and val are written before
// done closes; val stays nil if the leader produced no answer. followers
// counts the requests that joined it (guarded by inflight.mu).
type flight struct {
	key       cacheKey
	done      chan struct{}
	followers int
	epoch     uint64
	val       *cacheVal
}

// join returns the flight in progress for k, or registers a new one; lead
// reports whether the caller registered it and so must land it.
func (c *inflight) join(k cacheKey) (f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[k]; ok {
		f.followers++
		return f, false
	}
	if c.flights == nil {
		c.flights = make(map[cacheKey]*flight)
	}
	f = &flight{key: k, done: make(chan struct{})}
	c.flights[k] = f
	return f, true
}

// land unregisters f and releases its followers with the leader's answer
// (nil: none). A nil f — a request that did not lead — is a no-op.
func (c *inflight) land(f *flight, epoch uint64, v *cacheVal) {
	if f == nil {
		return
	}
	c.mu.Lock()
	delete(c.flights, f.key)
	c.mu.Unlock()
	f.epoch, f.val = epoch, v
	close(f.done)
}

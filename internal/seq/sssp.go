// Package seq contains the sequential graph algorithms of the reproduction —
// the "conventional graph algorithms covered in undergraduate textbooks" that
// GRAPE parallelizes as a whole. They serve three roles: the bodies of PEval
// in the PIE programs, ground truth in cross-engine tests, and the
// single-worker baselines in benchmarks.
//
// Functions that participate in PEval/IncEval report their work in elementary
// units (heap operations, edge relaxations, refinement steps) so the engines
// can account simulated time.
package seq

import (
	"container/heap"
	"math"
	"sync"

	"grape/internal/graph"
)

// Inf is the "unreached" distance.
var Inf = math.Inf(1)

// distHeap is a min-heap of (vertex, distance) entries for Dijkstra.
type distHeap struct {
	ids  []graph.ID
	dist []float64
}

func (h *distHeap) Len() int           { return len(h.ids) }
func (h *distHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *distHeap) Swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *distHeap) Push(x any) {
	e := x.(distEntry)
	h.ids = append(h.ids, e.id)
	h.dist = append(h.dist, e.d)
}
func (h *distHeap) Pop() any {
	n := len(h.ids) - 1
	e := distEntry{h.ids[n], h.dist[n]}
	h.ids = h.ids[:n]
	h.dist = h.dist[:n]
	return e
}

type distEntry struct {
	id graph.ID
	d  float64
}

// Relax runs Dijkstra-style label-correcting relaxation on g starting from
// seeds, reading and writing distances through get/set. It assumes the seed
// distances were already lowered by the caller and only ever decreases
// distances, which makes it serve simultaneously as:
//
//   - PEval for SSSP (seeds = {source}, all distances ∞), where it is exactly
//     Dijkstra's algorithm, and
//   - a bounded IncEval in the sense of Ramalingam–Reps: after a batch of
//     border-distance decreases (seeds = changed nodes), the work done is
//     proportional to the nodes whose distance actually changes (|CHANGED|
//     and their incident edges), not to |F_i|.
//
// It returns the number of work units spent (heap pushes + edge relaxations).
func Relax(g *graph.Graph, seeds []graph.ID, get func(graph.ID) float64, set func(graph.ID, float64)) int64 {
	return RelaxEdges(g, g.Out, seeds, get, set)
}

// RelaxEdges is Relax over an arbitrary adjacency accessor; keyword search
// relaxes along in-edges (g.In) to propagate keyword distances to
// predecessors.
func RelaxEdges(g *graph.Graph, edges func(graph.ID) []graph.Edge, seeds []graph.ID, get func(graph.ID) float64, set func(graph.ID, float64)) int64 {
	var work int64
	h := &distHeap{}
	for _, s := range seeds {
		if !g.Has(s) {
			continue
		}
		heap.Push(h, distEntry{s, get(s)})
		work++
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(distEntry)
		work++
		if e.d > get(e.id) { // stale entry
			continue
		}
		for _, edge := range edges(e.id) {
			work++
			nd := e.d + edge.W
			if nd < get(edge.To) {
				set(edge.To, nd)
				heap.Push(h, distEntry{edge.To, nd})
				work++
			}
		}
	}
	return work
}

// idxHeap is distHeap over dense vertex indices, used by the frozen-graph
// fast path. Its typed push/pop run the same sift-up and sift-down as
// container/heap, and ordering depends only on the distances, so it pops in
// exactly the same sequence as the ID-keyed heap and the two paths spend
// identical work — without boxing every entry into an interface.
type idxHeap struct {
	idx  []int32
	dist []float64
}

func (h *idxHeap) swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}

// push adds (i, d) and sifts it up, as heap.Push does.
func (h *idxHeap) push(i int32, d float64) {
	h.idx = append(h.idx, i)
	h.dist = append(h.dist, d)
	for j := len(h.idx) - 1; j > 0; {
		p := (j - 1) / 2
		if !(h.dist[j] < h.dist[p]) {
			break
		}
		h.swap(p, j)
		j = p
	}
}

// pop removes and returns the minimum, as heap.Pop does: swap the root to
// the end, sift the new root down over the rest, then truncate.
func (h *idxHeap) pop() (int32, float64) {
	n := len(h.idx) - 1
	h.swap(0, n)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.dist[j2] < h.dist[j] {
			j = j2
		}
		if !(h.dist[j] < h.dist[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	i, d := h.idx[n], h.dist[n]
	h.idx, h.dist = h.idx[:n], h.dist[:n]
	return i, d
}

// idxHeapPool recycles relaxation heaps across RelaxIdx calls: the engine
// invokes one relaxation per worker per superstep. Entries are stored
// unboxed, so once a pooled heap's backing arrays have grown, relaxing
// allocates nothing for its heap.
var idxHeapPool = sync.Pool{New: func() any { return &idxHeap{} }}

// RelaxIdx is Relax over a frozen graph's CSR form: seeds, reads and writes
// are addressed by dense vertex index and every edge hop lands on the packed
// dense target — no hash lookups anywhere on the path. With rev=true it
// relaxes along in-edges (keyword search). Work accounting matches Relax
// exactly.
func RelaxIdx(g *graph.Graph, rev bool, seeds []int32, get func(int32) float64, set func(int32, float64)) int64 {
	var work int64
	h := idxHeapPool.Get().(*idxHeap)
	defer func() {
		h.idx = h.idx[:0]
		h.dist = h.dist[:0]
		idxHeapPool.Put(h)
	}()
	for _, s := range seeds {
		h.push(s, get(s))
		work++
	}
	for len(h.idx) > 0 {
		i, d := h.pop()
		work++
		if d > get(i) { // stale entry
			continue
		}
		var edges []graph.DenseEdge
		if rev {
			edges = g.InAt(i)
		} else {
			edges = g.OutAt(i)
		}
		for _, edge := range edges {
			work++
			nd := d + edge.W
			if nd < get(edge.To) {
				set(edge.To, nd)
				h.push(edge.To, nd)
				work++
			}
		}
	}
	return work
}

// Dijkstra computes single-source shortest distances over g from src.
// Unreachable vertices are absent from the result.
func Dijkstra(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	if g.Frozen() {
		return dijkstraIdx(g, src)
	}
	dist := map[graph.ID]float64{}
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	get := func(id graph.ID) float64 {
		if d, ok := dist[id]; ok {
			return d
		}
		return Inf
	}
	set := func(id graph.ID, d float64) { dist[id] = d }
	Relax(g, []graph.ID{src}, get, set)
	return dist
}

// dijkstraIdx is Dijkstra over the CSR form: distances live in a flat array
// indexed by dense vertex index and only the final result builds a map.
func dijkstraIdx(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	out := map[graph.ID]float64{}
	si, ok := g.Index(src)
	if !ok {
		return out
	}
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[si] = 0
	RelaxIdx(g, false, []int32{si},
		func(i int32) float64 { return dist[i] },
		func(i int32, d float64) { dist[i] = d })
	for i, d := range dist {
		if d < Inf {
			out[g.IDAt(int32(i))] = d
		}
	}
	return out
}

// BellmanFord computes the same distances as Dijkstra by |V|-1 rounds of
// full-edge relaxation. It exists purely as an independent cross-check for
// property-based tests.
func BellmanFord(g *graph.Graph, src graph.ID) map[graph.ID]float64 {
	dist := map[graph.ID]float64{}
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	n := g.NumVertices()
	for round := 0; round < n; round++ {
		changed := false
		for _, u := range g.Vertices() {
			du, ok := dist[u]
			if !ok {
				continue
			}
			for _, e := range g.Out(u) {
				nd := du + e.W
				if dv, ok := dist[e.To]; !ok || nd < dv {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

package seq

import (
	"container/heap"
	"testing"
	"testing/quick"

	"grape/internal/gen"
	"grape/internal/graph"
)

// TestDenseUnionFindMatchesSparse replays a random Union sequence against
// both forests and checks they induce the same partition (same-set queries
// agree for every pair).
func TestDenseUnionFindMatchesSparse(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 24
		sparse := NewUnionFind()
		dense := NewDenseUnionFind(n)
		for v := 0; v < n; v++ {
			sparse.Add(graph.ID(v))
		}
		for _, p := range pairs {
			a, b := int32(p>>8)%n, int32(p&0xff)%n
			sa := sparse.Union(graph.ID(a), graph.ID(b))
			da := dense.Union(a, b)
			if sa != da {
				return false
			}
		}
		for a := int32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				sSame := sparse.Find(graph.ID(a)) == sparse.Find(graph.ID(b))
				dSame := dense.Find(a) == dense.Find(b)
				if sSame != dSame {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseUnionFindGrow(t *testing.T) {
	u := NewDenseUnionFind(2)
	u.Union(0, 1)
	u.Grow(5)
	if u.Find(4) != 4 {
		t.Fatal("grown element not a singleton")
	}
	u.Union(4, 0)
	if u.Find(4) != u.Find(1) {
		t.Fatal("union across grown boundary broken")
	}
}

// refHeap is idxHeap's entries behind container/heap: the reference order
// the typed push/pop must reproduce.
type refHeap struct{ h idxHeap }

func (r *refHeap) Len() int           { return len(r.h.idx) }
func (r *refHeap) Less(i, j int) bool { return r.h.dist[i] < r.h.dist[j] }
func (r *refHeap) Swap(i, j int)      { r.h.swap(i, j) }
func (r *refHeap) Push(x any) {
	e := x.([2]float64)
	r.h.idx = append(r.h.idx, int32(e[0]))
	r.h.dist = append(r.h.dist, e[1])
}
func (r *refHeap) Pop() any {
	n := len(r.h.idx) - 1
	e := [2]float64{float64(r.h.idx[n]), r.h.dist[n]}
	r.h.idx, r.h.dist = r.h.idx[:n], r.h.dist[:n]
	return e
}

// TestIdxHeapMatchesContainerHeap replays random push/pop interleavings,
// with many tied distances, through the typed heap and container/heap: the
// pop sequences must be identical, ties included, because pop order decides
// RelaxIdx's work count.
func TestIdxHeapMatchesContainerHeap(t *testing.T) {
	f := func(ops []uint8) bool {
		var typed idxHeap
		ref := &refHeap{}
		for k, op := range ops {
			if op%3 == 0 && len(typed.idx) > 0 {
				i, d := typed.pop()
				e := heap.Pop(ref).([2]float64)
				if i != int32(e[0]) || d != e[1] {
					return false
				}
				continue
			}
			d := float64(op % 7) // few distinct distances: ties everywhere
			typed.push(int32(k), d)
			heap.Push(ref, [2]float64{float64(k), d})
		}
		for len(typed.idx) > 0 {
			i, d := typed.pop()
			e := heap.Pop(ref).([2]float64)
			if i != int32(e[0]) || d != e[1] {
				return false
			}
		}
		return ref.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRelaxIdxMatchesRelax: the dense and sparse relaxations produce
// identical distances and identical work on the same graph.
func TestRelaxIdxMatchesRelax(t *testing.T) {
	g := gen.ConnectedRandom(300, 900, 7) // frozen
	th := g.Clone()
	th.AddVertex(0, "") // no-op mutation: thaws the clone for the sparse path
	if th.Frozen() || !g.Frozen() {
		t.Fatal("test setup: expected one frozen and one thawed graph")
	}

	sparse := map[graph.ID]float64{0: 0}
	getS := func(id graph.ID) float64 {
		if d, ok := sparse[id]; ok {
			return d
		}
		return Inf
	}
	workS := Relax(th, []graph.ID{0}, getS, func(id graph.ID, d float64) { sparse[id] = d })

	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	si, _ := g.Index(0)
	dist[si] = 0
	workD := RelaxIdx(g, false, []int32{si},
		func(i int32) float64 { return dist[i] },
		func(i int32, d float64) { dist[i] = d })

	if workS != workD {
		t.Fatalf("work differs: sparse %d dense %d", workS, workD)
	}
	for i, d := range dist {
		id := g.IDAt(int32(i))
		sd, ok := sparse[id]
		if d >= Inf {
			if ok {
				t.Fatalf("vertex %d: dense unreached, sparse %g", id, sd)
			}
			continue
		}
		if !ok || sd != d {
			t.Fatalf("vertex %d: dense %g sparse %g (ok=%v)", id, d, sd, ok)
		}
	}

	// Dijkstra's frozen fast path agrees with the thawed map path.
	df := Dijkstra(g, 0)
	dm := Dijkstra(th, 0)
	if len(df) != len(dm) {
		t.Fatalf("dijkstra result sizes differ: %d vs %d", len(df), len(dm))
	}
	for id, d := range dm {
		if df[id] != d {
			t.Fatalf("dijkstra disagrees at %d: %g vs %g", id, df[id], d)
		}
	}
}

// TestComponentsFrozenMatchesThawed: same labels either way.
func TestComponentsFrozenMatchesThawed(t *testing.T) {
	g := gen.Random(200, 260, 11) // frozen, likely several components
	th := g.Clone()
	th.AddVertex(0, "")
	cf := Components(g)
	cm := Components(th)
	if len(cf) != len(cm) {
		t.Fatalf("sizes differ: %d vs %d", len(cf), len(cm))
	}
	for v, l := range cm {
		if cf[v] != l {
			t.Fatalf("label of %d differs: %d vs %d", v, cf[v], l)
		}
	}
}

// TestPageRankFrozenMatchesThawed: bit-identical ranks either way.
func TestPageRankFrozenMatchesThawed(t *testing.T) {
	g := gen.PreferentialAttachment(400, 3, 5) // frozen
	th := g.Clone()
	th.AddVertex(0, "")
	rf := PageRank(g, 0.85, 30, 1e-12)
	rm := PageRank(th, 0.85, 30, 1e-12)
	for v, r := range rm {
		if rf[v] != r {
			t.Fatalf("rank of %d differs: %v vs %v", v, rf[v], r)
		}
	}
}

// BenchmarkRelax isolates the CSR win in the single hottest kernel from all
// engine machinery: full-graph Dijkstra relaxation, frozen vs unfrozen.
func BenchmarkRelax(b *testing.B) {
	g := gen.RoadGrid(96, 96, 1) // frozen
	th := g.Clone()
	th.AddVertex(0, "") // thawed twin with identical contents
	b.Run("unfrozen", func(b *testing.B) {
		b.ReportAllocs()
		nv := th.NumVertices()
		dist := make([]float64, nv)
		get := func(id graph.ID) float64 { i, _ := th.Index(id); return dist[i] }
		set := func(id graph.ID, d float64) { i, _ := th.Index(id); dist[i] = d }
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			for i := range dist {
				dist[i] = Inf
			}
			i0, _ := th.Index(0)
			dist[i0] = 0
			Relax(th, []graph.ID{0}, get, set)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		nv := g.NumVertices()
		dist := make([]float64, nv)
		get := func(i int32) float64 { return dist[i] }
		set := func(i int32, d float64) { dist[i] = d }
		i0, _ := g.Index(0)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			for i := range dist {
				dist[i] = Inf
			}
			dist[i0] = 0
			RelaxIdx(g, false, []int32{i0}, get, set)
		}
	})
}

package partition

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

// TestBuildFrozenEquivalence: Build (d = 0) and BuildExpanded (d = 1, 2),
// over a frozen input and over a thawed copy of the same graph, must
// reproduce a reference layout assembled with the map-based graph API —
// same fragment graphs in the same dense order (checked via the wire
// encoding, which captures exact adjacency order), same Inner/Outer/
// InnerBorder down to nil versus empty, same placement and replication
// bytes. Layouts of one shared frozen graph built concurrently must match
// it too.
func TestBuildFrozenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(12, 17, 3)},
		{"social", gen.PreferentialAttachment(300, 4, 5)},
		{"commerce", gen.SocialCommerce(gen.SocialCommerceConfig{People: 200, Products: 5, Follows: 4, AdoptP: 0.7, Seed: 2})},
		{"ratings-undirected", gen.Ratings(gen.RatingsConfig{Users: 80, Items: 20, RatingsPerUser: 6, Factors: 3, Noise: 0.1, Seed: 4})},
		{"tiny", gen.Random(5, 6, 1)}, // n = 8 leaves fragments empty
	} {
		t.Run(tc.name, func(t *testing.T) {
			frozen := tc.g // generators freeze
			if !frozen.Frozen() {
				t.Fatal("generator did not freeze")
			}
			thawed := thawedClone(frozen)
			if thawed.Frozen() {
				t.Fatal("clone did not thaw")
			}

			for _, n := range []int{1, 3, 8} {
				for d := 0; d <= 2; d++ {
					asgT, err := Hash{}.Partition(thawed, n)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceLayout(thawed, asgT, d)
					for _, g := range []*graph.Graph{frozen, thawed} {
						asg, err := Hash{}.Partition(g, n)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameLayout(buildLayout(g, asg, d), want); err != nil {
							t.Fatalf("n=%d d=%d frozen=%v: %v", n, d, g.Frozen(), err)
						}
					}
				}
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		g := gen.PreferentialAttachment(400, 4, 7)
		asg, err := Hash{}.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d <= 1; d++ {
			want := referenceLayout(thawedClone(g), asg, d)
			for k := 0; k < 4; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := sameLayout(buildLayout(g, asg, d), want); err != nil {
						t.Errorf("d=%d builder %d: %v", d, k, err)
					}
				}()
			}
		}
		wg.Wait()
	})
}

func thawedClone(g *graph.Graph) *graph.Graph {
	c := g.Clone()
	c.AddVertex(g.IDAt(0), "") // no-op mutation thaws
	return c
}

func buildLayout(g *graph.Graph, asg *Assignment, d int) *Layout {
	if d == 0 {
		return Build(g, asg)
	}
	return BuildExpanded(g, asg, d)
}

// referenceLayout cuts g through the map-based graph API: per fragment, the
// inner vertices plus outer copies with the inner vertices' out-edges for
// d = 0, or g.InducedSubgraph over g.UndirectedNeighborhood of the inner
// vertices for d > 0. g must be thawed for the map-based paths to run.
func referenceLayout(g *graph.Graph, asg *Assignment, d int) *Layout {
	n := asg.N
	frags := make([]*Fragment, n)
	copies := make(map[graph.ID][]int) // outer copy -> fragments holding it
	var replication int64
	for w := 0; w < n; w++ {
		var inner []graph.ID
		for _, id := range g.SortedVertices() {
			if asg.Owner(id) == w {
				inner = append(inner, id)
			}
		}
		var local *graph.Graph
		if d == 0 {
			local = referenceCut(g, asg, w, inner)
		} else {
			local = g.InducedSubgraph(g.UndirectedNeighborhood(inner, d))
		}
		f := &Fragment{Index: w, G: local, Inner: inner, asg: asg}
		for _, id := range local.SortedVertices() {
			if asg.Owner(id) != w {
				f.Outer = append(f.Outer, id)
				copies[id] = append(copies[id], w)
				if d > 0 {
					replication += 16 + 24*int64(len(local.Out(id)))
				}
			}
		}
		local.Freeze()
		frags[w] = f
	}
	placement := make(map[graph.ID][]int)
	for v, hosts := range copies {
		owner := asg.Owner(v)
		frags[owner].InnerBorder = append(frags[owner].InnerBorder, v)
		hosts = append(hosts, owner)
		sort.Ints(hosts)
		placement[v] = hosts
	}
	for _, f := range frags {
		sort.Slice(f.InnerBorder, func(i, j int) bool { return f.InnerBorder[i] < f.InnerBorder[j] })
	}
	return &Layout{Asg: asg, Fragments: frags, Placement: placement, ReplicationBytes: replication}
}

// referenceCut builds fragment w of a plain Build with the mutable API:
// inner vertices ascending, then each inner vertex's out-edges in ID order,
// adding remote endpoints as outer copies when first seen.
func referenceCut(g *graph.Graph, asg *Assignment, w int, inner []graph.ID) *graph.Graph {
	local := graph.New()
	if !g.Directed() {
		local = graph.NewUndirected()
	}
	copyVertex := func(id graph.ID) {
		local.AddVertex(id, g.Label(id))
		if ps := g.Props(id); len(ps) > 0 {
			local.SetProps(id, append([]string(nil), ps...))
		}
	}
	for _, id := range inner {
		copyVertex(id)
	}
	for _, u := range inner {
		for _, e := range g.Out(u) {
			remote := asg.Owner(e.To) != w
			if !g.Directed() && !remote && u > e.To {
				continue // undirected intra-fragment edge already added via the lower endpoint
			}
			if remote && !local.Has(e.To) {
				copyVertex(e.To)
			}
			local.AddLabeledEdge(u, e.To, e.W, e.Label)
		}
	}
	return local
}

// sameLayout reports the first difference between got and the reference
// want, including got's dense host index against want's placement.
func sameLayout(got, want *Layout) error {
	if len(got.Fragments) != len(want.Fragments) {
		return fmt.Errorf("%d fragments, want %d", len(got.Fragments), len(want.Fragments))
	}
	for i, f := range got.Fragments {
		wf := want.Fragments[i]
		if !reflect.DeepEqual(f.Inner, wf.Inner) || !reflect.DeepEqual(f.Outer, wf.Outer) ||
			!reflect.DeepEqual(f.InnerBorder, wf.InnerBorder) {
			return fmt.Errorf("fragment %d: vertex lists differ", i)
		}
		if !f.G.Frozen() {
			return fmt.Errorf("fragment %d: fragments must come out frozen", i)
		}
		if err := f.G.Validate(); err != nil {
			return fmt.Errorf("fragment %d: %v", i, err)
		}
		if !reflect.DeepEqual(AppendFragment(nil, f), AppendFragment(nil, wf)) {
			return fmt.Errorf("fragment %d: wire encodings differ (dense order or adjacency changed)", i)
		}
		for _, id := range f.G.Vertices() {
			if f.IsInner(id) != (got.Asg.Owner(id) == i) {
				return fmt.Errorf("fragment %d: inner flag of %d wrong", i, id)
			}
		}
	}
	if !reflect.DeepEqual(got.Placement, want.Placement) {
		return fmt.Errorf("placement differs")
	}
	if got.ReplicationBytes != want.ReplicationBytes {
		return fmt.Errorf("replication %d bytes, want %d", got.ReplicationBytes, want.ReplicationBytes)
	}
	for _, id := range got.Asg.G.Vertices() {
		hosts, ok := want.Placement[id]
		if !ok {
			hosts = []int{want.Asg.Owner(id)}
		}
		if !reflect.DeepEqual(got.Hosts(id), hosts) {
			return fmt.Errorf("hosts of %d: %v, want %v", id, got.Hosts(id), hosts)
		}
	}
	return nil
}

// TestBuildExpandedFrozen: the data-shipping variant also yields frozen,
// valid fragments with intact caches.
func TestBuildExpandedFrozen(t *testing.T) {
	g := gen.SocialCommerce(gen.SocialCommerceConfig{People: 150, Products: 4, Follows: 4, AdoptP: 0.7, Seed: 9})
	asg, err := Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := BuildExpanded(g, asg, 2)
	for _, f := range l.Fragments {
		if !f.G.Frozen() {
			t.Fatal("expanded fragment not frozen")
		}
		if err := f.G.Validate(); err != nil {
			t.Fatal(err)
		}
		iidx := f.InnerIndices()
		for k, id := range f.Inner {
			if f.G.IDAt(iidx[k]) != id || !f.IsInnerAt(iidx[k]) {
				t.Fatalf("inner cache broken at %d", id)
			}
		}
		bidx := f.BorderIndices()
		for k, id := range f.Border() {
			if bidx[k] < 0 || f.G.IDAt(bidx[k]) != id {
				t.Fatalf("border cache broken at %d", id)
			}
		}
	}
}

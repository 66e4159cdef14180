package graph

import "sync"

// Frozen CSR form. A Graph lives in one of two phases:
//
//	build phase (mutable)  — AddVertex/AddEdge grow per-vertex adjacency
//	                         slices; not safe for concurrent use; In() builds
//	                         the reverse adjacency lazily on first call.
//	query phase (frozen)   — Freeze() flattens adjacency into packed CSR
//	                         offset+edge arrays whose edges carry the dense
//	                         target index and an interned label, interns
//	                         vertex and edge labels into an int table, and
//	                         eagerly builds the packed reverse CSR. These
//	                         arrays are the only edge storage (16 B per edge
//	                         and direction). All read methods are then safe
//	                         for concurrent use, and the dense accessors
//	                         (OutAt, InAt, LabelIDAt, …) traverse without a
//	                         single hash lookup.
//
// On a frozen graph the sparse-ID boundary API (Out, In) reads a []Edge view
// that is derived from the packed arrays the first time it is needed — once
// per direction, under a sync.Once, and shared by Clone. The view costs 32 B
// per edge plus a label string the GC must scan, so query and write paths
// stay on the dense accessors and never build it.
//
// Mutating adjacency or the vertex set after Freeze (AddVertex, AddEdge)
// transparently thaws the graph back to the build phase: dense vertex
// indices are stable across freeze/thaw, but the CSR arrays and the label
// table are dropped and OutAt/InAt become invalid until the next Freeze.
// Property mutation (SetProps, AddProp) does not thaw — properties are not
// part of the CSR form.

// DenseEdge is the packed CSR edge of a frozen graph: the dense index of the
// target vertex, the interned edge label, and the weight. The sparse target
// ID is recovered with IDAt(e.To) — a slice read, not a hash lookup.
type DenseEdge struct {
	To    int32 // dense index of the target vertex
	Label int32 // interned edge label; resolve with LabelName
	W     float64
}

// sparseView is the sparse-ID form of a frozen graph's adjacency, one
// edgeView per direction, parallel to outDense and inDense.
type sparseView struct{ out, in edgeView }

// edgeView is one direction of a sparseView. Frozen graphs are read
// concurrently, so it is built at most once, under its sync.Once.
type edgeView struct {
	once  sync.Once
	edges []Edge
}

// at returns the sparse edges of the vertex at dense index i in the packed
// direction (off, dense) of g, building the whole view on first use.
func (v *edgeView) at(g *Graph, off []int32, dense []DenseEdge, i int32) []Edge {
	a, b := off[i], off[i+1]
	if a == b {
		return nil
	}
	v.once.Do(func() { v.edges = g.sparseEdges(dense) })
	return v.edges[a:b:b]
}

// Frozen reports whether the graph is in its immutable CSR form.
func (g *Graph) Frozen() bool { return g.frozen }

// Freeze converts the graph to its frozen CSR form and returns it (for
// chaining). It is idempotent. The per-vertex adjacency slices are released;
// Out/In keep working (they slice a sparse view built on first use) and the
// dense accessors become available.
func (g *Graph) Freeze() *Graph {
	if g.frozen {
		return g
	}
	nv := len(g.ids)
	ne := 0
	for _, es := range g.out {
		ne += len(es)
	}
	g.internVertexLabels()
	g.outOff = make([]int32, nv+1)
	g.outDense = make([]DenseEdge, 0, ne)
	for i, es := range g.out {
		for _, e := range es {
			g.outDense = append(g.outDense, DenseEdge{To: g.index[e.To], Label: g.intern(e.Label), W: e.W})
		}
		g.outOff[i+1] = int32(len(g.outDense))
	}
	g.out = nil
	g.in = nil
	g.inBuilt = false
	g.finishFreeze()
	return g
}

// internVertexLabels starts a fresh label table and interns the vertex
// labels in dense order. Edge labels follow in packed edge order; Freeze and
// the wire decoder share this interning order.
func (g *Graph) internVertexLabels() {
	g.labelIDs = make(map[string]int32)
	g.labelNames = nil
	g.vlab = make([]int32, len(g.ids))
	for i, l := range g.labels {
		g.vlab[i] = g.intern(l)
	}
}

func (g *Graph) intern(s string) int32 {
	if id, ok := g.labelIDs[s]; ok {
		return id
	}
	id := int32(len(g.labelNames))
	g.labelNames = append(g.labelNames, s)
	g.labelIDs[s] = id
	return id
}

// finishFreeze completes a graph whose packed out CSR and label table are
// in place: it builds the reverse CSR and arms the on-demand sparse view.
// Freeze, the wire decoder and SubgraphBuilder share it.
func (g *Graph) finishFreeze() {
	g.buildReverseCSR()
	g.view = new(sparseView)
	g.frozen = true
}

// buildReverseCSR derives inOff/inDense from the out CSR by counting sort
// over targets, scanning sources in dense order — the exact per-target edge
// order the lazy buildIn produces, so frozen and unfrozen In() agree element
// for element. Undirected graphs alias In to Out and skip it.
func (g *Graph) buildReverseCSR() {
	if !g.directed {
		return
	}
	nv := len(g.ids)
	g.inOff = make([]int32, nv+1)
	for _, e := range g.outDense {
		g.inOff[e.To+1]++
	}
	for i := 0; i < nv; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inDense = make([]DenseEdge, len(g.outDense))
	next := make([]int32, nv)
	copy(next, g.inOff[:nv])
	for ui := 0; ui < nv; ui++ {
		for _, de := range g.outDense[g.outOff[ui]:g.outOff[ui+1]] {
			g.inDense[next[de.To]] = DenseEdge{To: int32(ui), Label: de.Label, W: de.W}
			next[de.To]++
		}
	}
}

// sparseEdges resolves packed edges to the boundary form.
func (g *Graph) sparseEdges(dense []DenseEdge) []Edge {
	out := make([]Edge, len(dense))
	for k, e := range dense {
		out[k] = Edge{To: g.ids[e.To], W: e.W, Label: g.labelNames[e.Label]}
	}
	return out
}

// thaw returns the graph to the mutable build phase, deriving per-vertex
// adjacency from the packed arrays into fresh memory (the packed arrays may
// be shared with frozen Clones or live in a read-only mapping). Each
// vertex's slice is capacity-limited, so the first append to it
// reallocates. The reverse adjacency is rebuilt lazily by In, in the same
// order as the reverse CSR.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	nv := len(g.ids)
	flat := g.sparseEdges(g.outDense)
	g.out = make([][]Edge, nv)
	for i := 0; i < nv; i++ {
		a, b := g.outOff[i], g.outOff[i+1]
		if a != b {
			g.out[i] = flat[a:b:b]
		}
	}
	g.in, g.inBuilt = nil, false
	g.outOff, g.outDense, g.inOff, g.inDense, g.view = nil, nil, nil, nil, nil
	g.vlab, g.labelNames, g.labelIDs = nil, nil, nil
	g.frozen = false
}

// OutAt returns the packed out-edges of the vertex at dense index i. Frozen
// graphs only; the caller must not mutate the returned slice.
func (g *Graph) OutAt(i int32) []DenseEdge {
	return g.outDense[g.outOff[i]:g.outOff[i+1]]
}

// InAt returns the packed in-edges of the vertex at dense index i (for
// undirected graphs, its out-edges). Frozen graphs only; the caller must not
// mutate the returned slice.
func (g *Graph) InAt(i int32) []DenseEdge {
	if !g.directed {
		return g.OutAt(i)
	}
	return g.inDense[g.inOff[i]:g.inOff[i+1]]
}

// OutDegreeAt returns the out-degree of the vertex at dense index i. Frozen
// graphs only.
func (g *Graph) OutDegreeAt(i int32) int {
	return int(g.outOff[i+1] - g.outOff[i])
}

// InDegreeAt returns the in-degree of the vertex at dense index i. Frozen
// graphs only.
func (g *Graph) InDegreeAt(i int32) int {
	if !g.directed {
		return g.OutDegreeAt(i)
	}
	return int(g.inOff[i+1] - g.inOff[i])
}

// LabelIDAt returns the interned label of the vertex at dense index i.
// Frozen graphs only.
func (g *Graph) LabelIDAt(i int32) int32 { return g.vlab[i] }

// LabelAt returns the label string of the vertex at dense index i.
func (g *Graph) LabelAt(i int32) string { return g.labels[i] }

// PropsAt returns the property list of the vertex at dense index i. The
// caller must not mutate the returned slice.
func (g *Graph) PropsAt(i int32) []string { return g.props[i] }

// LabelID returns the interned ID of a vertex or edge label and whether the
// label occurs in the graph at all. Frozen graphs only. Pattern-matching
// kernels resolve pattern label strings once and compare int32s per edge.
func (g *Graph) LabelID(s string) (int32, bool) {
	id, ok := g.labelIDs[s]
	return id, ok
}

// LabelName returns the label string interned as lid. Frozen graphs only.
func (g *Graph) LabelName(lid int32) string { return g.labelNames[lid] }

// NumLabels returns the number of distinct interned labels (vertex and edge
// labels share one table). Frozen graphs only.
func (g *Graph) NumLabels() int { return len(g.labelNames) }

package graph

import "fmt"

// CSRData is the flat frozen form of a Graph: exactly the arrays Freeze()
// builds, exposed so a storage layer can lay them out in a file and hand them
// back without re-deriving anything. The fixed-width slices (IDs, VLabels,
// OutOff, OutDense, InOff, InDense) are the mmap-able half — FromMapped
// aliases them as given, so they may point into a read-only file mapping.
// The string-bearing half (Labels, Props) is always heap-resident; FromMapped
// rebuilds the ID index and the label intern map from it.
type CSRData struct {
	Directed bool
	// NumEdges is the logical edge count (undirected edges count once; the
	// adjacency arrays store both directions, so it is not derivable).
	NumEdges int
	IDs      []ID        // dense index -> sparse vertex ID
	VLabels  []int32     // dense index -> interned vertex label
	OutOff   []int32     // len NumVertices+1; OutOff[0] == 0
	OutDense []DenseEdge // packed out-edges in dense source order
	InOff    []int32     // reverse CSR offsets; empty for undirected graphs
	InDense  []DenseEdge // packed in-edges; empty for undirected graphs
	Labels   []string    // intern table (vertex and edge labels share it)
	Props    [][]string  // dense index -> vertex properties; nil if none anywhere
}

// CSRView returns the graph's flat frozen form. The returned slices alias the
// graph's internal arrays — read-only, valid until the graph thaws. The graph
// must be frozen.
func (g *Graph) CSRView() (CSRData, error) {
	if !g.frozen {
		return CSRData{}, fmt.Errorf("graph: CSRView needs a frozen graph")
	}
	d := CSRData{
		Directed: g.directed,
		NumEdges: g.numEdges,
		IDs:      g.ids,
		VLabels:  g.vlab,
		OutOff:   g.outOff,
		OutDense: g.outDense,
		InOff:    g.inOff,
		InDense:  g.inDense,
		Labels:   g.labelNames,
	}
	for _, ps := range g.props {
		if len(ps) > 0 {
			d.Props = g.props
			break
		}
	}
	return d, nil
}

// FromMapped constructs a frozen Graph from its flat form without calling
// Freeze: the fixed-width slices of d are aliased as-is (they may live in a
// read-only mmap — the graph never writes through them; mutation thaws into
// freshly allocated memory first, and the sparse Out/In view is built on the
// heap only if someone asks for it), and the derived structures Freeze would
// have produced — the ID index and the label intern map — are rebuilt on the
// heap. Every array is bounds-checked first, so corrupt input errors instead
// of panicking later.
func FromMapped(d CSRData) (*Graph, error) {
	nv := len(d.IDs)
	if d.Props != nil && len(d.Props) != nv {
		return nil, fmt.Errorf("graph: mapped props cover %d of %d vertices", len(d.Props), nv)
	}
	if !d.Directed && (len(d.InOff) != 0 || len(d.InDense) != 0) {
		return nil, fmt.Errorf("graph: mapped undirected graph carries a reverse CSR")
	}
	g := &Graph{
		directed:   d.Directed,
		ids:        d.IDs,
		index:      make(map[ID]int32, nv),
		numEdges:   d.NumEdges,
		outOff:     d.OutOff,
		outDense:   d.OutDense,
		inOff:      d.InOff,
		inDense:    d.InDense,
		vlab:       d.VLabels,
		labelNames: d.Labels,
		labelIDs:   make(map[string]int32, len(d.Labels)),
		props:      d.Props,
	}
	if err := g.validateCSR(); err != nil {
		return nil, fmt.Errorf("graph: mapped: %w", err)
	}
	for i, id := range d.IDs {
		if _, dup := g.index[id]; dup {
			return nil, fmt.Errorf("graph: mapped vertex %d appears twice", id)
		}
		g.index[id] = int32(i)
	}
	for i, s := range d.Labels {
		if _, dup := g.labelIDs[s]; dup {
			return nil, fmt.Errorf("graph: mapped label %q interned twice", s)
		}
		g.labelIDs[s] = int32(i)
	}
	g.labels = make([]string, nv)
	for i, l := range d.VLabels {
		g.labels[i] = d.Labels[l]
	}
	if g.props == nil {
		g.props = make([][]string, nv)
	}
	g.view = new(sparseView)
	g.frozen = true
	return g, nil
}

// validateCSR checks the structural invariants of a frozen graph's flat
// arrays: their lengths, offsets that start at 0, are monotone and cover
// their edge array, and every packed target and label id in range. It runs
// on untrusted input in FromMapped and on any frozen graph in Validate.
func (g *Graph) validateCSR() error {
	nv, nl := int32(len(g.ids)), int32(len(g.labelNames))
	if len(g.vlab) != int(nv) {
		return fmt.Errorf("vlab covers %d of %d vertices", len(g.vlab), nv)
	}
	for i, l := range g.vlab {
		if l < 0 || l >= nl {
			return fmt.Errorf("vertex %d has label id %d of %d", i, l, nl)
		}
	}
	if err := checkCSR(g.outOff, g.outDense, nv, nl); err != nil {
		return fmt.Errorf("out CSR: %w", err)
	}
	if !g.directed {
		return nil
	}
	if len(g.inDense) != len(g.outDense) {
		return fmt.Errorf("reverse CSR has %d of %d edges", len(g.inDense), len(g.outDense))
	}
	if err := checkCSR(g.inOff, g.inDense, nv, nl); err != nil {
		return fmt.Errorf("in CSR: %w", err)
	}
	return nil
}

// checkCSR validates one direction of a packed CSR over nv vertices and nl
// interned labels.
func checkCSR(off []int32, dense []DenseEdge, nv, nl int32) error {
	if len(off) != int(nv)+1 {
		return fmt.Errorf("%d offsets, want %d", len(off), nv+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("offsets start at %d", off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	if int(off[nv]) != len(dense) {
		return fmt.Errorf("offsets cover %d of %d edges", off[nv], len(dense))
	}
	for k, e := range dense {
		if e.To < 0 || e.To >= nv {
			return fmt.Errorf("packed edge %d targets dense index %d of %d", k, e.To, nv)
		}
		if e.Label < 0 || e.Label >= nl {
			return fmt.Errorf("packed edge %d has label id %d of %d", k, e.Label, nl)
		}
	}
	return nil
}

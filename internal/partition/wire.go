package partition

import (
	"encoding/binary"
	"fmt"

	"grape/internal/graph"
)

// Wire encoding of a Fragment, used by the socket transport to ship each
// worker its fragment during the setup handshake. Everything a worker-side
// PIE program touches is included: the local subgraph (in its exact dense
// order, via graph.AppendGraph), the Inner/Outer/InnerBorder lists, and a
// local ownership table so Fragment.Owner keeps answering for every local
// vertex.

// AppendFragment appends the wire encoding of f to buf and returns the
// extended buffer.
func AppendFragment(buf []byte, f *Fragment) []byte {
	buf = binary.AppendUvarint(buf, uint64(f.Index))
	buf = binary.AppendUvarint(buf, uint64(f.asg.N))
	buf = graph.AppendGraph(buf, f.G)
	for _, id := range f.G.Vertices() {
		buf = binary.AppendUvarint(buf, uint64(f.asg.Owner(id)))
	}
	buf = appendIDList(buf, f.Inner)
	buf = appendIDList(buf, f.Outer)
	return appendIDList(buf, f.InnerBorder)
}

// DecodeFragment decodes a fragment encoded by AppendFragment from the front
// of data, returning the fragment and the number of bytes consumed. The
// decoded fragment's ownership table covers its local vertices only (that is
// all a worker can see).
func DecodeFragment(data []byte) (*Fragment, int, error) {
	pos := 0
	idx, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("partition: fragment encodes zero workers")
	}
	if idx >= n {
		return nil, 0, fmt.Errorf("partition: fragment %d of %d workers", idx, n)
	}
	g, used, err := graph.DecodeGraph(data[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += used
	asg := NewAssignment(g, int(n))
	for _, id := range g.Vertices() {
		w, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		if w >= n {
			return nil, 0, fmt.Errorf("partition: vertex %d owned by out-of-range worker %d", id, w)
		}
		asg.SetOwner(id, int(w))
	}
	f := &Fragment{Index: int(idx), G: g, asg: asg}
	if f.Inner, err = decodeIDList(data, &pos); err != nil {
		return nil, 0, err
	}
	if f.Outer, err = decodeIDList(data, &pos); err != nil {
		return nil, 0, err
	}
	if f.InnerBorder, err = decodeIDList(data, &pos); err != nil {
		return nil, 0, err
	}
	for _, id := range f.Inner {
		if !g.Has(id) {
			return nil, 0, fmt.Errorf("partition: inner vertex %d missing from fragment graph", id)
		}
		if w := asg.Owner(id); w != f.Index {
			return nil, 0, fmt.Errorf("partition: inner vertex %d of fragment %d owned by worker %d", id, f.Index, w)
		}
	}
	for _, id := range f.Outer {
		if !g.Has(id) {
			return nil, 0, fmt.Errorf("partition: border vertex %d missing from fragment graph", id)
		}
		if asg.Owner(id) == f.Index {
			return nil, 0, fmt.Errorf("partition: outer vertex %d owned by its own fragment %d", id, f.Index)
		}
	}
	for _, id := range f.InnerBorder {
		if !g.Has(id) {
			return nil, 0, fmt.Errorf("partition: border vertex %d missing from fragment graph", id)
		}
	}
	f.finalize()
	return f, pos, nil
}

func appendIDList(buf []byte, ids []graph.ID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

func decodeIDList(data []byte, pos *int) ([]graph.ID, error) {
	n, err := graph.ReadUvarint(data, pos)
	if err != nil {
		return nil, err
	}
	var ids []graph.ID
	for i := uint64(0); i < n; i++ {
		id, err := graph.ReadUvarint(data, pos)
		if err != nil {
			return nil, err
		}
		ids = append(ids, graph.ID(id))
	}
	return ids, nil
}

// Wire encoding of an Assignment's cut — the layout-persistence half of the
// durable store: a snapshot preserves a graph's dense vertex order exactly,
// so the cut is just the owner array in dense order and a restart can rebuild
// a Layout with partition.Build instead of re-running the strategy.

// AppendAssignment appends the wire encoding of a's cut to buf and returns
// the extended buffer: uvarint worker count, uvarint vertex count, then one
// uvarint owner per dense vertex index.
func AppendAssignment(buf []byte, a *Assignment) []byte {
	// a.G itself is never on the wire — the decode side supplies the graph
	// (a snapshot preserves dense order exactly) — but the cut must cover it.
	if len(a.owner) != a.G.NumVertices() {
		panic("partition: assignment out of sync with its graph")
	}
	buf = binary.AppendUvarint(buf, uint64(a.N))
	buf = binary.AppendUvarint(buf, uint64(len(a.owner)))
	for _, w := range a.owner {
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf
}

// DecodeAssignment decodes a cut encoded by AppendAssignment against g, which
// must have the same vertex set in the same dense order as the graph the cut
// was computed for. It returns the assignment and the number of bytes
// consumed.
func DecodeAssignment(data []byte, g *graph.Graph) (*Assignment, int, error) {
	pos := 0
	n, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("partition: assignment encodes zero workers")
	}
	nv, err := graph.ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	if int(nv) != g.NumVertices() {
		return nil, 0, fmt.Errorf("partition: assignment covers %d vertices, graph has %d", nv, g.NumVertices())
	}
	a := &Assignment{G: g, N: int(n), owner: make([]int32, nv)}
	for i := range a.owner {
		w, err := graph.ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		if int(w) >= a.N {
			return nil, 0, fmt.Errorf("partition: vertex %d owned by out-of-range worker %d", g.IDAt(int32(i)), w)
		}
		a.owner[i] = int32(w)
	}
	return a, pos, nil
}

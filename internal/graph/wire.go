package graph

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire encoding of a Graph, used by the socket transport to ship fragments
// and pattern graphs between the coordinator and worker processes. The
// encoding is struct-level — vertices in dense-index order with their exact
// adjacency lists — so a decoded graph reproduces the original's dense
// indices and iteration order bit for bit; sequential algorithms therefore
// behave identically on both sides of the wire.
//
// Layout (all integers unsigned varints unless noted):
//
//	byte     directed
//	uvarint  numVertices
//	per vertex, dense order: uvarint id · string label · uvarint nprops · props
//	per vertex, dense order: uvarint degree · per edge (uvarint targetID ·
//	                         8-byte float weight · string label)
//	uvarint  numEdges (undirected edges count once; not derivable from the
//	                   adjacency because both directions are stored)
//
// Strings are uvarint length + raw bytes.

// AppendGraph appends the wire encoding of g to buf and returns the extended
// buffer.
func AppendGraph(buf []byte, g *Graph) []byte {
	if g.directed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(g.ids)))
	for i, id := range g.ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = appendString(buf, g.labels[i])
		buf = binary.AppendUvarint(buf, uint64(len(g.props[i])))
		for _, p := range g.props[i] {
			buf = appendString(buf, p)
		}
	}
	for i := range g.ids {
		if g.frozen {
			es := g.OutAt(int32(i))
			buf = binary.AppendUvarint(buf, uint64(len(es)))
			for _, e := range es {
				buf = appendEdge(buf, g.ids[e.To], e.W, g.labelNames[e.Label])
			}
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.out[i])))
		for _, e := range g.out[i] {
			buf = appendEdge(buf, e.To, e.W, e.Label)
		}
	}
	return binary.AppendUvarint(buf, uint64(g.numEdges))
}

func appendEdge(buf []byte, to ID, w float64, label string) []byte {
	buf = binary.AppendUvarint(buf, uint64(to))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	return appendString(buf, label)
}

// DecodeGraph decodes a graph encoded by AppendGraph from the front of data,
// returning the graph and the number of bytes consumed. The decoder fills the
// packed CSR arrays directly and returns the graph already frozen — workers
// query shipped fragments, they do not mutate them — so decoding pays no
// per-vertex adjacency churn and the dense accessors are immediately
// available.
func DecodeGraph(data []byte) (*Graph, int, error) {
	pos := 0
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("graph: truncated encoding")
	}
	directed := data[pos] != 0
	pos++
	nv, err := ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	g := &Graph{directed: directed, index: make(map[ID]int32, nv)}
	for i := uint64(0); i < nv; i++ {
		id, err := ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		label, err := ReadString(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		if _, dup := g.index[ID(id)]; dup {
			return nil, 0, fmt.Errorf("graph: duplicate vertex %d in encoding", id)
		}
		g.index[ID(id)] = int32(i)
		g.ids = append(g.ids, ID(id))
		g.labels = append(g.labels, label)
		np, err := ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		var props []string
		for j := uint64(0); j < np; j++ {
			p, err := ReadString(data, &pos)
			if err != nil {
				return nil, 0, err
			}
			props = append(props, p)
		}
		g.props = append(g.props, props)
	}
	g.internVertexLabels()
	g.outOff = make([]int32, nv+1)
	for i := uint64(0); i < nv; i++ {
		deg, err := ReadUvarint(data, &pos)
		if err != nil {
			return nil, 0, err
		}
		for j := uint64(0); j < deg; j++ {
			to, err := ReadUvarint(data, &pos)
			if err != nil {
				return nil, 0, err
			}
			if pos+8 > len(data) {
				return nil, 0, fmt.Errorf("graph: truncated edge weight")
			}
			w := math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
			label, err := ReadString(data, &pos)
			if err != nil {
				return nil, 0, err
			}
			ti, ok := g.index[ID(to)]
			if !ok {
				return nil, 0, fmt.Errorf("graph: edge to unknown vertex %d", to)
			}
			g.outDense = append(g.outDense, DenseEdge{To: ti, Label: g.intern(label), W: w})
		}
		g.outOff[i+1] = int32(len(g.outDense))
	}
	ne, err := ReadUvarint(data, &pos)
	if err != nil {
		return nil, 0, err
	}
	g.numEdges = int(ne)
	g.finishFreeze()
	return g, pos, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadUvarint decodes one unsigned varint from data at *pos, advancing it.
// It is the bounds-checked primitive shared by every wire decoder in the
// repository (graph, partition, engine, queries) — network input must error,
// never panic.
func ReadUvarint(data []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(data[*pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint at offset %d", *pos)
	}
	*pos += n
	return v, nil
}

// ReadString decodes one length-prefixed string from data at *pos,
// advancing it.
func ReadString(data []byte, pos *int) (string, error) {
	n, err := ReadUvarint(data, pos)
	if err != nil {
		return "", err
	}
	if uint64(len(data)-*pos) < n {
		return "", fmt.Errorf("wire: truncated string at offset %d", *pos)
	}
	s := string(data[*pos : *pos+int(n)])
	*pos += int(n)
	return s, nil
}

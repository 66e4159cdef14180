// Package graph is a miniature of the repository's graph.Graph for the
// densepath fixtures: sparse by-ID adjacency accessors next to their dense
// ...At twins.
package graph

type ID int64

type Edge struct{ To ID }

type DenseEdge struct{ To int32 }

type Graph struct {
	frozen bool
	out    map[ID][]Edge
	dense  [][]DenseEdge
}

func (g *Graph) Frozen() bool              { return g.frozen }
func (g *Graph) Out(id ID) []Edge          { return g.out[id] }
func (g *Graph) OutAt(i int32) []DenseEdge { return g.dense[i] }
func (g *Graph) In(id ID) []Edge           { return g.out[id] }
func (g *Graph) InAt(i int32) []DenseEdge  { return g.dense[i] }
func (g *Graph) OutDegree(id ID) int       { return len(g.out[id]) }
func (g *Graph) OutDegreeAt(i int32) int   { return len(g.dense[i]) }
func (g *Graph) Vertices() []ID            { return nil }

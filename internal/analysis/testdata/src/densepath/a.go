// Package densepath exercises the densepath analyzer with a miniature of the
// engine's accessor shape: a Context offering sparse by-ID methods next to
// dense ...At twins, and PIE-named method bodies using them.
package densepath

import "graph"

type Graph struct{ frozen bool }

func (g *Graph) Frozen() bool { return g.frozen }

type Context struct {
	G     *Graph
	vals  map[int64]float64
	dense []float64
}

func (c *Context) Get(id int64) float64     { return c.vals[id] }
func (c *Context) GetAt(i int32) float64    { return c.dense[i] }
func (c *Context) Set(id int64, v float64)  { c.vals[id] = v }
func (c *Context) SetAt(i int32, v float64) { c.dense[i] = v }

type Prog struct{}

// PEval's sparse tail is a recognized fallback: it sits lexically behind a
// Frozen()-guarded block that returns.
func (Prog) PEval(c *Context) error {
	if c.G.Frozen() {
		c.SetAt(0, 1)
		return nil
	}
	c.Set(1, 1)
	return nil
}

// IncEval reaches for the sparse accessor with no guard — the violation.
func (Prog) IncEval(c *Context) error {
	c.Set(2, 2) // want "Context.Set in IncEval hashes per call"
	return nil
}

// Assemble shows both escape hatches: an annotated keep and the else branch
// of a Frozen() test.
func (Prog) Assemble(c *Context) error {
	//grapevet:keep fixture: documented thawed fallback
	c.Set(3, 3)
	if g := c.G; g.Frozen() {
		_ = c.GetAt(0)
	} else {
		_ = c.Get(4)
	}
	return nil
}

// AdjProg's kernels walk the graph itself: the graph's sparse adjacency
// accessors are flagged like the context's, with the same Frozen() escape.
type AdjProg struct{}

func (AdjProg) PEval(g *graph.Graph) int {
	return len(g.In(1)) // want "Graph.In in PEval hashes per call and builds a frozen graph's sparse edge view"
}

func (AdjProg) IncEval(g *graph.Graph) int {
	if g.Frozen() {
		return g.OutDegreeAt(0)
	}
	return g.OutDegree(1)
}

// Package partition exercises densepath's partition-strategy scope: the
// Partition methods of package partition stream the graph and must stay on
// its packed adjacency.
package partition

import "graph"

type Streaming struct{}

// Partition walks the sparse adjacency with no guard — the violation.
func (Streaming) Partition(g *graph.Graph, n int) []int {
	owner := make([]int, n)
	for _, v := range g.Vertices() {
		owner[0] += len(g.Out(v)) // want "Graph.Out in Partition hashes per call and builds a frozen graph's sparse edge view"
	}
	return owner
}

type Guarded struct{}

// Partition takes the dense path on frozen graphs; the sparse tail is the
// recognized thawed fallback.
func (Guarded) Partition(g *graph.Graph, n int) []int {
	owner := make([]int, n)
	if g.Frozen() {
		owner[0] = len(g.OutAt(0)) + g.OutDegreeAt(0)
		return owner
	}
	for _, v := range g.Vertices() {
		owner[0] += len(g.In(v)) + g.OutDegree(v)
	}
	return owner
}

// degreeSum is not a Partition method: outside the analyzer's scope.
func degreeSum(g *graph.Graph) int {
	sum := 0
	for _, v := range g.Vertices() {
		sum += len(g.Out(v))
	}
	return sum
}

var _ = degreeSum

package partition

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"grape/internal/graph"
)

// Fragment is the unit of data a GRAPE worker computes on: the subgraph
// F_i = (V_i ∪ O_i, E_i) where V_i are the inner vertices owned by worker i
// together with all of their out-edges, and O_i are outer copies — remote
// endpoints of cut edges, carried with their labels and properties but
// without out-edges of their own.
//
// Border nodes, in the paper's sense, are the vertices that carry update
// parameters: the outer copies O_i plus the inner vertices that appear as
// outer copies in some other fragment. Border() returns exactly that set.
type Fragment struct {
	// Index is the fragment number i ∈ [0, N).
	Index int
	// G is the local subgraph: inner vertices with their out-edges plus
	// outer copies.
	G *graph.Graph
	// Inner lists the vertices owned by this fragment, ascending.
	Inner []graph.ID
	// Outer lists the outer copies (owned elsewhere), ascending.
	Outer []graph.ID
	// InnerBorder lists inner vertices that some other fragment holds a copy
	// of (i.e. targets of cut edges from elsewhere), ascending.
	InnerBorder []graph.ID

	asg *Assignment

	// Dense caches over G's vertex index, built lazily after the fragment is
	// assembled (Build/BuildExpanded/DecodeFragment finalize them eagerly).
	// innerAt/innerIdx never change after construction — graph updates only
	// ever add outer copies; the border caches are invalidated by
	// AddOuter/AddInnerBorder.
	innerAt   []bool     // dense index -> owned here
	innerIdx  []int32    // dense indices of Inner, parallel to Inner
	border    []graph.ID // cached Border(), ascending
	borderIdx []int32    // dense indices of border, parallel to border
	innerOK   bool
	borderOK  bool
}

// IsInner reports whether id is owned by this fragment.
func (f *Fragment) IsInner(id graph.ID) bool {
	i, ok := f.G.Index(id)
	return ok && f.IsInnerAt(i)
}

// IsInnerAt reports whether the vertex at dense index i of the fragment graph
// is owned by this fragment. Vertices appended after construction (new outer
// copies from graph updates) fall past the cache and are never inner.
func (f *Fragment) IsInnerAt(i int32) bool {
	if !f.innerOK {
		f.buildInnerCache()
	}
	return int(i) < len(f.innerAt) && f.innerAt[i]
}

// InnerIndices returns the dense indices of the fragment's inner vertices,
// parallel to Inner. The caller must not mutate the returned slice.
func (f *Fragment) InnerIndices() []int32 {
	if !f.innerOK {
		f.buildInnerCache()
	}
	return f.innerIdx
}

func (f *Fragment) buildInnerCache() {
	f.innerAt = make([]bool, f.G.NumVertices())
	f.innerIdx = make([]int32, len(f.Inner))
	for k, id := range f.Inner {
		i, ok := f.G.Index(id)
		if !ok {
			i = -1
		} else {
			f.innerAt[i] = true
		}
		f.innerIdx[k] = i
	}
	f.innerOK = true
}

// Owner returns the fragment index owning id in the global assignment.
func (f *Fragment) Owner(id graph.ID) int { return f.asg.Owner(id) }

// Border returns the nodes of this fragment that carry update parameters:
// Outer ∪ InnerBorder, ascending. The slice is cached across calls (programs
// walk it every superstep); the caller must not mutate it.
func (f *Fragment) Border() []graph.ID {
	if !f.borderOK {
		f.buildBorderCache()
	}
	return f.border
}

// BorderIndices returns the dense indices of Border(), parallel to it. The
// caller must not mutate the returned slice.
func (f *Fragment) BorderIndices() []int32 {
	if !f.borderOK {
		f.buildBorderCache()
	}
	return f.borderIdx
}

func (f *Fragment) buildBorderCache() {
	out := make([]graph.ID, 0, len(f.Outer)+len(f.InnerBorder))
	out = append(out, f.Outer...)
	out = append(out, f.InnerBorder...)
	slices.Sort(out)
	f.border = out
	f.borderIdx = make([]int32, len(out))
	for k, id := range out {
		i, ok := f.G.Index(id)
		if !ok {
			i = -1
		}
		f.borderIdx[k] = i
	}
	f.borderOK = true
}

// finalize freezes the local subgraph and builds the dense caches. Build,
// BuildExpanded and DecodeFragment call it once the fragment is complete.
func (f *Fragment) finalize() {
	f.G.Freeze()
	if !f.innerOK {
		f.buildInnerCache()
	}
	f.buildBorderCache()
}

// AddOuter records a new outer copy (a vertex owned elsewhere that graph
// updates just replicated here), keeping the border caches consistent. It is
// a no-op if id is already an outer copy.
func (f *Fragment) AddOuter(id graph.ID) {
	n := len(f.Outer)
	f.Outer = insertSortedID(f.Outer, id)
	if len(f.Outer) != n {
		f.borderOK = false
	}
}

// AddInnerBorder records that the inner vertex id now has copies elsewhere,
// keeping the border caches consistent. It reports whether id was newly
// added.
func (f *Fragment) AddInnerBorder(id graph.ID) bool {
	n := len(f.InnerBorder)
	f.InnerBorder = insertSortedID(f.InnerBorder, id)
	if len(f.InnerBorder) == n {
		return false
	}
	f.borderOK = false
	return true
}

func insertSortedID(ids []graph.ID, id graph.ID) []graph.ID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Layout is the result of cutting a graph into fragments: the fragments plus
// the placement map the coordinator uses to route update-parameter messages.
type Layout struct {
	Asg       *Assignment
	Fragments []*Fragment
	// Placement maps each border vertex to the sorted list of fragment
	// indices hosting it (its owner plus every fragment with an outer copy).
	// Non-border vertices are absent: their values never travel. The lists
	// are shared; callers must not mutate them.
	Placement map[graph.ID][]int
	// ReplicationBytes estimates the data shipped to build the fragments
	// beyond the plain edge-cut: BuildExpanded replicates d-hop
	// neighborhoods (GRAPE's data-shipping PEval for locality-bounded
	// queries), and that replication is communication the engine charges to
	// the run. Plain Build leaves it zero — outer copies there are part of
	// the initial partitioning, as in the paper's accounting.
	ReplicationBytes int64

	// Dense host index: hostList[hostOff[i]:hostOff[i+1]] is the packed,
	// sorted host list of the vertex at dense index i of Asg.G — the owner
	// alone for non-border vertices. The coordinator routes every changed
	// value every superstep, so Hosts must not hash into Placement on that
	// path. Placement's entries are capacity-limited views of hostList.
	hostOff  []int32
	hostList []int
	// overflow holds host lists that changed after the build: the session
	// layer extends placement when graph updates create new outer copies.
	// It stays nil until the first AddHost so static runs never consult it.
	overflow map[graph.ID][]int
}

// Hosts returns the fragments hosting id: its placement entry if id is a
// border node, else just its owner. The returned slice is shared; callers
// must not mutate it.
func (l *Layout) Hosts(id graph.ID) []int {
	if l.overflow != nil {
		if hs, ok := l.overflow[id]; ok {
			return hs
		}
	}
	if i, ok := l.Asg.G.Index(id); ok {
		a, b := l.hostOff[i], l.hostOff[i+1]
		return l.hostList[a:b:b]
	}
	return []int{l.Asg.Owner(id)} // panics: id is not in the graph
}

// AddHost records that fragment w now holds a copy of id, keeping Placement
// and the dense host index consistent. The session layer calls it when a
// graph update creates a new outer copy; it is a no-op if w already hosts id.
func (l *Layout) AddHost(id graph.ID, w int) {
	hosts := l.Hosts(id)
	for _, h := range hosts {
		if h == w {
			return
		}
	}
	merged := make([]int, 0, len(hosts)+1)
	merged = append(merged, hosts...)
	merged = append(merged, w)
	sort.Ints(merged)
	if l.overflow == nil {
		l.overflow = make(map[graph.ID][]int)
	}
	l.overflow[id] = merged
	l.Placement[id] = merged
}

// Build cuts g into fragments according to asg. Every inner vertex keeps all
// of its out-edges; remote endpoints become outer copies with labels and
// properties replicated (matching algorithms inspect them). Each fragment is
// cut on its own goroutine straight into CSR form via graph.SubgraphBuilder,
// reading g by dense index only — the whole cut costs one hash per fragment
// vertex and zero per edge. An unfrozen g is cut from a frozen clone.
func Build(g *graph.Graph, asg *Assignment) *Layout {
	src := frozenSource(g)
	inner := innerLists(asg, src.SortedIndices())
	frags := make([]*Fragment, asg.N)
	outer := make([][]int32, asg.N)
	perFragment(asg.N, func(w int) {
		// The outer copies, in the order the edge scan below meets them,
		// are collected first so the builder is sized exactly.
		copied := make([]bool, src.NumVertices())
		edges := 0
		for _, ui := range inner[w] {
			for _, e := range src.OutAt(ui) {
				if asg.OwnerAt(e.To) != w && !copied[e.To] {
					copied[e.To] = true
					outer[w] = append(outer[w], e.To)
				}
			}
			edges += src.OutDegreeAt(ui)
		}
		b := graph.NewSubgraphBuilder(src, len(inner[w])+len(outer[w]), edges)
		for _, i := range inner[w] {
			b.AddVertex(i)
		}
		for _, i := range outer[w] {
			b.AddVertex(i)
		}
		directed := src.Directed()
		for _, ui := range inner[w] {
			u := src.IDAt(ui)
			for _, e := range src.OutAt(ui) {
				if !directed && asg.OwnerAt(e.To) == w && u > src.IDAt(e.To) {
					continue // undirected intra-fragment edge already added via the lower endpoint
				}
				b.AddEdge(ui, e)
			}
		}
		slices.SortFunc(outer[w], func(a, b int32) int { return cmp.Compare(src.IDAt(a), src.IDAt(b)) })
		frags[w] = newFragment(src, asg, w, b.Finish(), inner[w], outer[w])
	})
	return assemble(src, asg, frags, inner, outer, 0)
}

// BuildExpanded cuts g into fragments and then expands each with the full
// d-hop neighborhood (both edge directions) of its inner vertices, including
// every edge of g between contained vertices. This is the data-shipping
// variant GRAPE uses for locality-bounded queries such as subgraph
// isomorphism: matches anchored at inner vertices become entirely local, so
// PEval is exact and IncEval terminates in one round. Each fragment is
// expanded on its own goroutine by a dense BFS over a frozen g (an unfrozen g
// is cut from a frozen clone).
func BuildExpanded(g *graph.Graph, asg *Assignment, d int) *Layout {
	src := frozenSource(g)
	order := src.SortedIndices()
	inner := innerLists(asg, order)
	frags := make([]*Fragment, asg.N)
	outer := make([][]int32, asg.N)
	replication := make([]int64, asg.N)
	perFragment(asg.N, func(w int) {
		keep, _ := src.NeighborhoodMask(inner[w], d, true)
		for _, i := range order {
			if keep[i] && asg.OwnerAt(i) != w {
				outer[w] = append(outer[w], i)
			}
		}
		f := newFragment(src, asg, w, src.InducedSubgraphMask(keep), inner[w], outer[w])
		f.buildInnerCache()
		for li, in := range f.innerAt {
			if !in {
				// a replicated vertex ships its ID + label + properties, and
				// its locally stored out-edges (ID + target + weight)
				replication[w] += 16 + 24*int64(f.G.OutDegreeAt(int32(li)))
			}
		}
		frags[w] = f
	})
	var total int64
	for _, r := range replication {
		total += r
	}
	return assemble(src, asg, frags, inner, outer, total)
}

// frozenSource returns g if it is frozen, else a frozen clone. Dense indices
// survive Clone and Freeze, so an Assignment over g stays valid for it.
func frozenSource(g *graph.Graph) *graph.Graph {
	if g.Frozen() {
		return g
	}
	return g.Clone().Freeze()
}

// innerLists buckets the dense indices in order (all of them, ascending by
// vertex ID) by owner; each bucket keeps that order and is capacity-limited,
// so appends never spill into the next.
func innerLists(asg *Assignment, order []int32) [][]int32 {
	off := make([]int, asg.N+1)
	for w, s := range asg.Sizes() {
		off[w+1] = off[w] + s
	}
	packed := make([]int32, len(order))
	next := append([]int(nil), off[:asg.N]...)
	for _, i := range order {
		w := asg.OwnerAt(i)
		packed[next[w]] = i
		next[w]++
	}
	lists := make([][]int32, asg.N)
	for w := range lists {
		lists[w] = packed[off[w]:off[w+1]:off[w+1]]
	}
	return lists
}

// perFragment runs build(w) for every fragment w, each on its own goroutine,
// and returns once all have finished. At most GOMAXPROCS run at a time: each
// holds scratch sized to the whole source graph.
func perFragment(n int, build func(w int)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			build(w)
		}()
	}
	wg.Wait()
}

// newFragment wraps the frozen fragment graph local of fragment w, whose
// inner and outer vertices are given as source dense indices ascending by ID.
func newFragment(src *graph.Graph, asg *Assignment, w int, local *graph.Graph, inner, outer []int32) *Fragment {
	return &Fragment{Index: w, G: local, Inner: idsAt(src, inner), Outer: idsAt(src, outer), asg: asg}
}

// idsAt maps dense indices of g to vertex IDs; none maps to nil.
func idsAt(g *graph.Graph, idx []int32) []graph.ID {
	if len(idx) == 0 {
		return nil
	}
	ids := make([]graph.ID, len(idx))
	for k, i := range idx {
		ids[k] = g.IDAt(i)
	}
	return ids
}

// assemble finishes a layout from its cut fragments: outer[w] lists the
// source dense indices of fragment w's outer copies. A vertex copied
// anywhere is a border vertex; its hosts are its owner plus every fragment
// holding a copy, packed per dense index into the host list that Hosts reads
// and that Placement's entries are capacity-limited views of.
func assemble(g *graph.Graph, asg *Assignment, frags []*Fragment, inner, outer [][]int32, replication int64) *Layout {
	nv := g.NumVertices()
	hostOff := make([]int32, nv+1)
	for _, out := range outer {
		for _, i := range out {
			hostOff[i+1]++
		}
	}
	borders := 0
	for i := 0; i < nv; i++ {
		if hostOff[i+1] > 0 {
			borders++
		}
		hostOff[i+1] += hostOff[i] + 1
	}
	hostList := make([]int, hostOff[nv])
	next := append([]int32(nil), hostOff[:nv]...)
	for w, out := range outer {
		for _, i := range out {
			hostList[next[i]] = w
			next[i]++
		}
	}
	placement := make(map[graph.ID][]int, borders)
	for i := 0; i < nv; i++ {
		// the copies are ascending; slot the owner in
		a, k, o := hostOff[i], next[i], asg.OwnerAt(int32(i))
		for ; k > a && hostList[k-1] > o; k-- {
			hostList[k] = hostList[k-1]
		}
		hostList[k] = o
		if b := hostOff[i+1]; b-a > 1 {
			placement[g.IDAt(int32(i))] = hostList[a:b:b]
		}
	}
	perFragment(len(frags), func(w int) {
		f := frags[w]
		for _, i := range inner[w] {
			if hostOff[i+1]-hostOff[i] > 1 {
				f.InnerBorder = append(f.InnerBorder, g.IDAt(i))
			}
		}
		f.finalize()
	})
	return &Layout{Asg: asg, Fragments: frags, Placement: placement, ReplicationBytes: replication, hostOff: hostOff, hostList: hostList}
}

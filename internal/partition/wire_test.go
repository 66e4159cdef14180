package partition

import (
	"reflect"
	"testing"

	"grape/internal/gen"
	"grape/internal/graph"
)

func TestFragmentWireRoundTrip(t *testing.T) {
	g := graph.New()
	for i := 0; i < 20; i++ {
		g.AddVertex(graph.ID(i), "v")
	}
	for i := 0; i < 20; i++ {
		g.AddEdge(graph.ID(i), graph.ID((i+1)%20), float64(i)+0.5)
		g.AddEdge(graph.ID(i), graph.ID((i*7)%20), 1)
	}
	asg, err := Hash{}.Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	layout := Build(g, asg)
	for _, f := range layout.Fragments {
		buf := AppendFragment(nil, f)
		// the frozen fragment encodes from its packed arrays, byte for byte
		// what its thawed clone encodes from per-vertex adjacency
		thawed := *f
		thawed.G = f.G.Clone()
		thawed.G.AddVertex(thawed.G.IDAt(0), "") // no-op mutation: thaws only
		if thawed.G.Frozen() || !reflect.DeepEqual(AppendFragment(nil, &thawed), buf) {
			t.Fatalf("fragment %d: frozen and thawed encodings differ", f.Index)
		}
		got, used, err := DecodeFragment(buf)
		if err != nil {
			t.Fatalf("fragment %d: %v", f.Index, err)
		}
		if used != len(buf) {
			t.Fatalf("fragment %d: consumed %d of %d bytes", f.Index, used, len(buf))
		}
		if got.Index != f.Index {
			t.Fatalf("fragment index changed: %d vs %d", got.Index, f.Index)
		}
		if !reflect.DeepEqual(got.Inner, f.Inner) || !reflect.DeepEqual(got.Outer, f.Outer) || !reflect.DeepEqual(got.InnerBorder, f.InnerBorder) {
			t.Fatalf("fragment %d: vertex role lists changed", f.Index)
		}
		if !reflect.DeepEqual(got.Border(), f.Border()) {
			t.Fatalf("fragment %d: border set changed", f.Index)
		}
		// dense order, labels and adjacency preserved exactly
		if !reflect.DeepEqual(got.G.Vertices(), f.G.Vertices()) {
			t.Fatalf("fragment %d: dense vertex order changed", f.Index)
		}
		for _, v := range f.G.Vertices() {
			if !reflect.DeepEqual(got.G.Out(v), f.G.Out(v)) {
				t.Fatalf("fragment %d: adjacency of %d changed", f.Index, v)
			}
			if got.IsInner(v) != f.IsInner(v) {
				t.Fatalf("fragment %d: inner flag of %d changed", f.Index, v)
			}
			if got.Owner(v) != f.Owner(v) {
				t.Fatalf("fragment %d: owner of %d changed", f.Index, v)
			}
		}
	}
}

func TestDecodeFragmentRejectsTruncation(t *testing.T) {
	g := graph.New()
	g.AddVertex(1, "a")
	g.AddVertex(2, "b")
	g.AddEdge(1, 2, 1)
	asg, err := Hash{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	layout := Build(g, asg)
	buf := AppendFragment(nil, layout.Fragments[0])
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeFragment(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(buf))
		}
	}
}

// TestDecodeFragmentRejectsInconsistentFrames: a frame that is well formed
// byte for byte but contradicts its own ownership table is refused.
func TestDecodeFragmentRejectsInconsistentFrames(t *testing.T) {
	g := gen.RoadGrid(4, 5, 1)
	asg, err := Hash{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := Build(g, asg).Fragments[0]
	if len(f.Inner) == 0 || len(f.Outer) == 0 {
		t.Fatal("fixture needs inner and outer vertices")
	}
	for _, tc := range []struct {
		name string
		bad  func(c *Fragment)
	}{
		{"index past the worker count", func(c *Fragment) {
			c.Index, c.Inner, c.InnerBorder = asg.N, nil, nil
		}},
		{"inner vertex owned elsewhere", func(c *Fragment) {
			c.Inner = append(append([]graph.ID(nil), c.Inner...), c.Outer[0])
		}},
		{"outer vertex owned here", func(c *Fragment) {
			c.Outer = append(append([]graph.ID(nil), c.Outer...), c.Inner[0])
		}},
	} {
		c := *f
		tc.bad(&c)
		if _, _, err := DecodeFragment(AppendFragment(nil, &c)); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

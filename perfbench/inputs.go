package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"grape/internal/engine"
	"grape/internal/experiments"
	"grape/internal/gen"
	"grape/internal/graph"
	"grape/internal/partition"
	_ "grape/internal/queries" // registers the seven query classes
	"grape/internal/seq"
)

// workers is the fragment count of every layout the benchmark builds.
const workers = 8

// scaleFor is the dataset scale BENCH_PR10.json records, seeded by the
// workload seed: road 96x96, social 10000 x deg 5, commerce 2000/20,
// ratings 400x80.
func scaleFor(seed int64) experiments.Scale {
	return experiments.Scale{
		RoadRows: 96, RoadCols: 96,
		SocialN: 10000, SocialDeg: 5,
		People: 2000, Products: 20,
		Users: 400, Items: 80,
		Seed: seed,
	}
}

// dataset generates one named input graph. The generators hand out frozen
// graphs; generation is input preparation, not set-up.
func dataset(sc experiments.Scale, name string) *graph.Graph {
	switch name {
	case "road":
		return sc.Road()
	case "social":
		g := sc.Social()
		gen.AttachKeywords(g, []string{"db", "graph", "ml"}, 2, 0.05, sc.Seed)
		return g
	case "commerce":
		return sc.Commerce()
	case "ratings":
		return gen.Ratings(gen.RatingsConfig{Users: sc.Users, Items: sc.Items, RatingsPerUser: 12, Factors: 4, Noise: 0.1, Seed: sc.Seed})
	}
	panic("perfbench: unknown dataset " + name)
}

// allGraphs generates the four datasets, frozen.
func allGraphs(sc experiments.Scale) map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, name := range []string{"road", "social", "commerce", "ratings"} {
		out[name] = dataset(sc, name)
	}
	return out
}

// thawed returns g in its mutable form without changing it: removing an
// edge that does not exist thaws a frozen graph and leaves every edge in
// place, so set-up can time the Freeze that gen already performed.
func thawed(g *graph.Graph) *graph.Graph {
	v := g.SortedVertices()[0]
	g.RemoveEdge(v, v, "\x00perfbench-thaw")
	return g
}

// querySpec is one query class as the analytics workloads run it.
type querySpec struct {
	class string // registry name
	graph string // dataset name
	query string // query string, parsed by the class's Entry.Parse
	strat partition.Strategy
}

// classSpecs lists the seven classes in report order. Road classes use the
// spatial 2d cut; the rest the default hash cut.
func classSpecs(sc experiments.Scale) []querySpec {
	twoD := partition.TwoD{Cols: sc.RoadCols}
	return []querySpec{
		{"sssp", "road", "source=0", twoD},
		{"cc", "road", "", twoD},
		{"sim", "commerce", "pattern=follows-recommend", partition.Hash{}},
		{"subiso", "commerce", "pattern=follows-recommend", partition.Hash{}},
		{"keyword", "social", "k=db,graph bound=4", partition.Hash{}},
		{"cf", "ratings", "epochs=10", partition.Hash{}},
		{"tricount", "social", "", partition.Hash{}},
	}
}

// classNames is the report order of the per-class metrics.
var classNames = []string{"sssp", "cc", "sim", "subiso", "keyword", "cf", "tricount"}

// pr10Guard is the e2e/<class> comm_kb and supersteps BENCH_PR10.json
// records at seed 1. The analytics workload must reproduce them exactly.
var pr10Guard = map[string]struct {
	commKB float64
	steps  int
}{
	"sssp":     {35.696, 9},
	"cc":       {78.128, 5},
	"sim":      {31.44, 3},
	"subiso":   {1069.68, 1},
	"keyword":  {1440.264, 4},
	"cf":       {2928.384, 12},
	"tricount": {7024.392, 1},
}

// answer is one class's reference answer and its deterministic counters.
type answer struct {
	result any
	bytes  int64
	steps  int
}

// groundTruth checks the sequential ground truth internal/seq offers for
// the road classes: sssp distances from source 0 and cc labels.
func groundTruth(road *graph.Graph, refs map[string]answer) error {
	if !reflect.DeepEqual(refs["sssp"].result, seq.Dijkstra(road, 0)) {
		return fmt.Errorf("sssp answer differs from seq.Dijkstra")
	}
	if !reflect.DeepEqual(refs["cc"].result, seq.Components(road)) {
		return fmt.Errorf("cc answer differs from seq.Components")
	}
	return nil
}

// referenceRun answers one query from scratch on the in-process bus.
func referenceRun(ctx context.Context, g *graph.Graph, class, query string, strat partition.Strategy) (any, error) {
	e, err := engine.Lookup(class)
	if err != nil {
		return nil, err
	}
	res, _, err := e.Run(ctx, g, engine.Options{Workers: workers, Strategy: strat}, query)
	return res, err
}

// sameJSON reports whether a served result (raw JSON) encodes the same value
// as a reference result. Both sides are decoded with exact numbers, so float
// distances compare bit for bit through their shortest encodings.
func sameJSON(served json.RawMessage, ref any) (bool, error) {
	want, err := json.Marshal(ref)
	if err != nil {
		return false, err
	}
	a, err := decodeExact(served)
	if err != nil {
		return false, err
	}
	b, err := decodeExact(want)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(a, b), nil
}

func decodeExact(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

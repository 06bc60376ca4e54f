// Command layercheck verifies the paper's layer-connectivity properties
// for a chosen model: for every initial state (and optionally for every
// state down to a depth), it analyzes the layer S(x) and reports similarity
// connectivity, valence connectivity, the number of similarity components,
// and the layer's s-diameter.
//
// Usage:
//
//	layercheck -model mobile -n 3 -bound 2
//	layercheck -model sync-st -n 4 -t 2 -bound 3 -depth 1
//	layercheck -model shmem -n 3 -bound 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/valence"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "layercheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("layercheck", flag.ContinueOnError)
	var (
		model   = fs.String("model", "mobile", "model: "+strings.Join(cli.Models(), "|"))
		n       = fs.Int("n", 3, "number of processes")
		t       = fs.Int("t", 1, "failure budget (sync-st)")
		bound   = fs.Int("bound", 2, "protocol decision bound (layers)")
		depth   = fs.Int("depth", 0, "also analyze layers of states down to this depth")
		verbose = fs.Bool("v", false, "print one line per analyzed state")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := cli.Build(cli.Spec{Model: *model, N: *n, T: *t, Bound: *bound})
	if err != nil {
		return err
	}
	g, err := core.ExploreIDCtx(nil, m, *depth, 2_000_000, 1)
	if err != nil {
		if !errors.Is(err, core.ErrNodeBudget) {
			return err
		}
		fmt.Fprintf(os.Stderr, "layercheck: %v; analyzing the partial graph\n", err)
	}
	o := valence.NewOracle(m)

	if *jsonOut {
		return runJSON(m, g, o, *depth, *bound)
	}
	fmt.Printf("model %s: analyzing layers of %d state(s) to depth %d\n", m.Name(), g.Len(), *depth)
	var analyzed, simConn, valConn int
	maxDiam := 0
	for d := 0; d <= *depth; d++ {
		for _, x := range g.StatesAtDepth(d) {
			h := *bound - d
			if h < 1 {
				h = 1
			}
			r := valence.AnalyzeLayer(m, o, x, h)
			analyzed++
			if r.SimilarityConnected {
				simConn++
			}
			if r.ValenceConnected {
				valConn++
			}
			if r.SDiameter > maxDiam {
				maxDiam = r.SDiameter
			}
			if *verbose {
				fmt.Printf("  depth=%d |S(x)|=%d sim-conn=%v (components=%d, s-diam=%d) val-conn=%v bivalent=%d null=%d\n",
					d, len(r.States), r.SimilarityConnected, r.SimilarityComponents,
					r.SDiameter, r.ValenceConnected, len(r.BivalentIdx), len(r.NullValentIdx))
			}
		}
	}
	fmt.Printf("layers analyzed:        %d\n", analyzed)
	fmt.Printf("similarity connected:   %d/%d\n", simConn, analyzed)
	fmt.Printf("valence connected:      %d/%d\n", valConn, analyzed)
	fmt.Printf("max layer s-diameter:   %d\n", maxDiam)
	if valConn != analyzed {
		return fmt.Errorf("%d layer(s) not valence connected (horizon too small, or theory violated)", analyzed-valConn)
	}
	return nil
}

// runJSON emits one LayerJSON per analyzed state, grouped by depth.
func runJSON(m core.Model, g *core.IDGraph, o *valence.Oracle, depth, bound int) error {
	type entry struct {
		Depth int               `json:"depth"`
		Layer *report.LayerJSON `json:"layer"`
	}
	doc := struct {
		Model  string  `json:"model"`
		Layers []entry `json:"layers"`
	}{Model: m.Name()}
	for d := 0; d <= depth; d++ {
		for _, x := range g.StatesAtDepth(d) {
			h := bound - d
			if h < 1 {
				h = 1
			}
			doc.Layers = append(doc.Layers, entry{
				Depth: d,
				Layer: report.NewLayer(valence.AnalyzeLayer(m, o, x, h)),
			})
		}
	}
	return report.Write(os.Stdout, doc)
}

// Compressor: run the LZW `compress` workload and compare the
// path-based next trace predictor against the paper's idealized
// sequential multiple-branch baseline, across history depths — a
// single-benchmark slice of Figures 6/7.
package main

import (
	"fmt"
	"log"

	"pathtrace"
)

func main() {
	const limit = 2_000_000
	w, ok := pathtrace.WorkloadByName("compress")
	if !ok {
		log.Fatal("compress workload not registered")
	}
	fmt.Printf("workload: %s — %s\n\n", w.Name, w.Description)

	// One pass per depth keeps the example simple; the experiment
	// harness batches all depths into a single pass instead.
	fmt.Printf("%-28s %10s\n", "predictor", "misp %")
	seq, err := pathtrace.NewSequentialBaseline(pathtrace.SequentialConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := pathtrace.RunWorkload(w, limit, func(tr *pathtrace.Trace) {
		seq.ObserveTrace(tr)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %9.2f%%  (gshare branch misp %.2f%%)\n",
		"sequential (idealized)", seq.Stats().TraceMissRate(), seq.Stats().BranchMissRate())

	for _, depth := range []int{0, 1, 3, 5, 7} {
		p := pathtrace.MustNewPredictor(pathtrace.PredictorConfig{
			Depth: depth, IndexBits: 16, Hybrid: true, UseRHS: true,
		})
		if _, _, err := pathtrace.RunWorkload(w, limit, func(tr *pathtrace.Trace) {
			p.Predict()
			p.Update(tr)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %9.2f%%\n",
			fmt.Sprintf("path-based, depth %d (2^16)", depth), p.Stats().MissRate())
	}

	unb, err := pathtrace.NewPredictor(pathtrace.PredictorConfig{
		Backend: "unbounded", Depth: 7, Hybrid: true, UseRHS: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := pathtrace.RunWorkload(w, limit, func(tr *pathtrace.Trace) {
		unb.Predict()
		unb.Update(tr)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %9.2f%%\n", "path-based, depth 7 (unbounded)", unb.Stats().MissRate())
}

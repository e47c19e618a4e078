package experiments

import (
	"fmt"

	"pathtrace/internal/branchpred"
	"pathtrace/internal/predictor"
	"pathtrace/internal/stats"
	"pathtrace/internal/trace"
)

// maxDepth is the deepest path history studied (paper: depths 0..7).
const maxDepth = 7

func depthAxis() []float64 {
	x := make([]float64, maxDepth+1)
	for i := range x {
		x[i] = float64(i)
	}
	return x
}

// fig6 regenerates "Next trace prediction with unbounded tables"
// (paper Figure 6): misprediction rate versus history depth for the
// correlated predictor, the hybrid predictor, and the hybrid with the
// Return History Stack — all with unbounded tables — against the
// idealized sequential baseline.
func fig6(opt Options) (*Result, error) {
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	res := newResult("fig6")
	variants := []struct {
		key string
		mk  func(depth int) (predictor.NextTracePredictor, error)
	}{
		{"correlated", func(d int) (predictor.NextTracePredictor, error) {
			return predictor.New(predictor.Config{Backend: "unbounded", Depth: d})
		}},
		{"hybrid", func(d int) (predictor.NextTracePredictor, error) {
			return predictor.New(predictor.Config{Backend: "unbounded", Depth: d, Hybrid: true})
		}},
		{"hybrid+rhs", func(d int) (predictor.NextTracePredictor, error) {
			return predictor.New(predictor.Config{Backend: "unbounded", Depth: d, Hybrid: true, UseRHS: true})
		}},
	}

	var sections []string
	meanPerVariant := make([][]float64, len(variants)) // [variant][depth] accumulating
	for i := range meanPerVariant {
		meanPerVariant[i] = make([]float64, maxDepth+1)
	}
	var meanSeq float64

	for _, w := range ws {
		preds := make([][]predictor.NextTracePredictor, len(variants))
		var consumers []func(*trace.Trace)
		for vi, v := range variants {
			preds[vi] = make([]predictor.NextTracePredictor, maxDepth+1)
			for d := 0; d <= maxDepth; d++ {
				p, err := v.mk(d)
				if err != nil {
					return nil, err
				}
				preds[vi][d] = p
				consumers = append(consumers, func(tr *trace.Trace) {
					p.Predict()
					p.Update(tr)
				})
			}
		}
		seq, err := branchpred.NewSequential(branchpred.SequentialConfig{})
		if err != nil {
			return nil, err
		}
		consumers = append(consumers, func(tr *trace.Trace) { seq.ObserveTrace(tr) })

		if _, _, err := opt.Stream(w, consumers...); err != nil {
			return nil, err
		}

		fig := &stats.Figure{
			Title:  fmt.Sprintf("Figure 6 (%s): unbounded tables, misprediction %% vs history depth", w.Name),
			XLabel: "depth",
			X:      depthAxis(),
		}
		for vi, v := range variants {
			y := make([]float64, maxDepth+1)
			for d := 0; d <= maxDepth; d++ {
				y[d] = preds[vi][d].Stats().MissRate()
				meanPerVariant[vi][d] += y[d]
				res.Values[fmt.Sprintf("%s.%s.d%d", w.Name, v.key, d)] = y[d]
			}
			fig.Add(v.key, y)
		}
		seqRate := seq.Stats().TraceMissRate()
		meanSeq += seqRate
		res.Values[w.Name+".sequential"] = seqRate
		flat := make([]float64, maxDepth+1)
		for i := range flat {
			flat[i] = seqRate
		}
		fig.Add("sequential", flat)
		sections = append(sections, fig.String())
	}

	// Mean across benchmarks.
	n := float64(len(ws))
	fig := &stats.Figure{
		Title:  "Figure 6 (MEAN): unbounded tables, misprediction % vs history depth",
		XLabel: "depth",
		X:      depthAxis(),
	}
	for vi, v := range variants {
		y := make([]float64, maxDepth+1)
		for d := range y {
			y[d] = meanPerVariant[vi][d] / n
			res.Values[fmt.Sprintf("mean.%s.d%d", v.key, d)] = y[d]
		}
		fig.Add(v.key, y)
	}
	flat := make([]float64, maxDepth+1)
	for i := range flat {
		flat[i] = meanSeq / n
	}
	fig.Add("sequential", flat)
	res.Values["mean.sequential"] = meanSeq / n
	sections = append(sections, fig.String())

	best := res.Values[fmt.Sprintf("mean.%s.d%d", "hybrid+rhs", maxDepth)]
	if seqMean := meanSeq / n; seqMean > 0 {
		res.Values["mean.reduction_vs_sequential_pct"] = 100 * (seqMean - best) / seqMean
		sections = append(sections, fmt.Sprintf(
			"mean misprediction at depth %d (hybrid+RHS, unbounded): %.2f%%; sequential: %.2f%%; reduction: %.1f%%",
			maxDepth, best, seqMean, res.Values["mean.reduction_vs_sequential_pct"]))
	}
	res.Text = joinSections(sections...)
	return res, nil
}

func init() {
	register(Experiment{
		Name:  "fig6",
		Title: "Figure 6: Next trace prediction with unbounded tables",
		Desc:  "Misprediction vs history depth 0-7 for correlated / hybrid / hybrid+RHS with unbounded tables.",
		Run:   fig6,
	})
}

package experiments

import (
	"fmt"

	"pathtrace/internal/branchpred"
	"pathtrace/internal/predictor"
	"pathtrace/internal/stats"
	"pathtrace/internal/trace"
)

// headline regenerates the paper's summary claim: the proposed
// predictor's mean misprediction rate, compared with the most
// aggressive previously proposed multiple-branch prediction method
// (the idealized sequential baseline). The paper reports roughly a
// quarter reduction for the 2^16-entry configuration (8.9% vs 11.1%)
// and 34% with unbounded tables.
func headline(opt Options) (*Result, error) {
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	res := newResult("headline")
	t := stats.NewTable("Headline: path-based next trace predictor vs idealized sequential baseline",
		"benchmark", "sequential misp %", "2^16 hybrid+RHS misp %", "unbounded misp %")
	var seqs, bounded, unbounded []float64
	cfgB := opt.applyBackend(predictor.Config{Depth: maxDepth, IndexBits: 16, Hybrid: true, UseRHS: true})
	for _, w := range ws {
		seq, err := branchpred.NewSequential(branchpred.SequentialConfig{})
		if err != nil {
			return nil, err
		}
		pb, err := predictor.New(cfgB)
		if err != nil {
			return nil, err
		}
		pu, err := predictor.New(predictor.Config{Backend: "unbounded", Depth: maxDepth, Hybrid: true, UseRHS: true})
		if err != nil {
			return nil, err
		}
		if _, _, err := opt.Stream(w,
			func(tr *trace.Trace) { seq.ObserveTrace(tr) },
			func(tr *trace.Trace) {
				pb.Predict()
				pb.Update(tr)
			},
			func(tr *trace.Trace) {
				pu.Predict()
				pu.Update(tr)
			},
		); err != nil {
			return nil, err
		}
		s, b, u := seq.Stats().TraceMissRate(), pb.Stats().MissRate(), pu.Stats().MissRate()
		t.AddRowf(w.Name, s, b, u)
		res.Values[w.Name+".sequential"] = s
		res.Values[w.Name+".bounded"] = b
		res.Values[w.Name+".unbounded"] = u
		seqs = append(seqs, s)
		bounded = append(bounded, b)
		unbounded = append(unbounded, u)
	}
	ms, mb, mu := stats.Mean(seqs), stats.Mean(bounded), stats.Mean(unbounded)
	t.AddRowf("MEAN", ms, mb, mu)
	res.Values["mean.sequential"] = ms
	res.Values["mean.bounded"] = mb
	res.Values["mean.unbounded"] = mu
	var lines []string
	if ms > 0 {
		rb := 100 * (ms - mb) / ms
		ru := 100 * (ms - mu) / ms
		res.Values["reduction.bounded_pct"] = rb
		res.Values["reduction.unbounded_pct"] = ru
		lines = append(lines,
			fmt.Sprintf("bounded 2^16 predictor: %.1f%% lower mean misprediction than the sequential baseline (paper: ~26%%)", rb),
			fmt.Sprintf("unbounded predictor:    %.1f%% lower mean misprediction than the sequential baseline (paper: 34%%)", ru))
	}
	res.Text = joinSections(append([]string{t.String()}, lines...)...)
	return res, nil
}

func init() {
	register(Experiment{
		Name:  "headline",
		Title: "Headline comparison",
		Desc:  "Mean misprediction: proposed predictor vs the idealized sequential baseline.",
		Run:   headline,
	})
}

package predictor

import "pathtrace/internal/trace"

// This file defines the batched round protocol. A "round" is the
// paper's strict Predict/Update alternation (§4.1): predict the next
// trace, reveal the actual one, train. The batch entry points run N
// consecutive rounds in one call, which is what the serving hot path
// rides on — one wire frame, one shard-queue hop and one cache-resident
// table sweep amortized over the whole batch. Batched execution is
// bit-identical to N scalar rounds by construction: the native
// implementation (Hybrid, which the basic, hybrid and costreduced
// backends all build) drives exactly the same lookup and training
// primitives the scalar methods wrap, and the generic fallback below
// literally calls Predict/Update in a loop.

// BatchPredictor is implemented by predictors with a native batched
// round loop. PredictBatch runs one full round per trace — preds[i]
// (when preds is non-nil) receives the prediction made before
// actuals[i] was revealed — and returns how many of those predictions
// were correct by the predictor's own accounting.
//
// Backends without a native loop (tage, the unbounded study variants)
// are driven through the package-level PredictBatch/UpdateBatch
// helpers, which fall back to a scalar loop.
type BatchPredictor interface {
	NextTracePredictor
	PredictBatch(actuals []trace.Trace, preds []Prediction) (correct uint64)
}

// PredictBatch runs one full Predict/Update round per trace of actuals
// against p, using the native batch loop when p implements
// BatchPredictor and a generic scalar loop otherwise. When preds is
// non-nil it must be at least len(actuals) long; preds[i] receives the
// prediction that preceded actuals[i]. Returns the number of correct
// predictions in the batch (by the predictor's own counters, so it is
// authoritative for every variant including cost-reduced).
func PredictBatch(p NextTracePredictor, actuals []trace.Trace, preds []Prediction) uint64 {
	if bp, ok := p.(BatchPredictor); ok {
		return bp.PredictBatch(actuals, preds)
	}
	before := p.Stats().Correct
	for i := range actuals {
		pr := p.Predict()
		if preds != nil {
			preds[i] = pr
		}
		p.Update(&actuals[i])
	}
	return p.Stats().Correct - before
}

// UpdateBatch is PredictBatch with the predictions discarded.
func UpdateBatch(p NextTracePredictor, actuals []trace.Trace) uint64 {
	return PredictBatch(p, actuals, nil)
}

package predictor

import (
	"fmt"

	"pathtrace/internal/trace"
)

// Confident wraps a hybrid predictor with a JRS-style resetting
// confidence estimator (Jacobson, Rotenberg, Smith: "Assigning
// Confidence to Conditional Branch Predictions", MICRO-29 1996 — the
// same authors' companion mechanism, applied here at trace granularity).
//
// A table of resetting counters sits in parallel with the predictor,
// indexed like the correlated table: a counter increments (saturating)
// when the prediction it covers is correct and resets to zero on a
// misprediction. A prediction is flagged high-confidence when its
// counter has reached the threshold — i.e. the same path context has
// predicted correctly at least `threshold` consecutive times.
//
// Downstream uses: gating aggressive speculation on low-confidence
// traces, or choosing when to fetch the alternate trace eagerly.
type Confident struct {
	hybrid    *Hybrid
	ctrs      []uint8
	max       uint8
	threshold uint8
	tok       Token
	cstats    ConfStats
}

// ConfStats accumulates confidence-quality counters.
type ConfStats struct {
	High        uint64 // predictions flagged high-confidence
	HighCorrect uint64
	Low         uint64
	LowCorrect  uint64
}

// Coverage is the fraction of predictions flagged high-confidence, in
// percent.
func (s ConfStats) Coverage() float64 {
	total := s.High + s.Low
	if total == 0 {
		return 0
	}
	return 100 * float64(s.High) / float64(total)
}

// HighAccuracy is the accuracy of high-confidence predictions, percent.
func (s ConfStats) HighAccuracy() float64 {
	if s.High == 0 {
		return 0
	}
	return 100 * float64(s.HighCorrect) / float64(s.High)
}

// LowAccuracy is the accuracy of low-confidence predictions, percent.
func (s ConfStats) LowAccuracy() float64 {
	if s.Low == 0 {
		return 0
	}
	return 100 * float64(s.LowCorrect) / float64(s.Low)
}

// ConfidentConfig sizes the estimator.
type ConfidentConfig struct {
	Predictor Config
	// CounterBits is the resetting counter width (default 4).
	CounterBits int
	// Threshold is the consecutive-correct count required for high
	// confidence (default 8).
	Threshold int
}

// NewConfident builds the wrapped predictor.
func NewConfident(cfg ConfidentConfig) (*Confident, error) {
	cfg.Predictor.Hybrid = true
	h, err := NewHybrid(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	if cfg.CounterBits == 0 {
		cfg.CounterBits = 4
	}
	if cfg.CounterBits < 1 || cfg.CounterBits > 8 {
		return nil, fmt.Errorf("predictor: confidence counter bits %d outside [1, 8]", cfg.CounterBits)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 8
	}
	max := ctrMax(cfg.CounterBits)
	if cfg.Threshold < 1 || cfg.Threshold > max {
		return nil, fmt.Errorf("predictor: confidence threshold %d outside [1, %d]", cfg.Threshold, max)
	}
	return &Confident{
		hybrid:    h,
		ctrs:      make([]uint8, 1<<h.cfg.IndexBits),
		max:       uint8(max),
		threshold: uint8(cfg.Threshold),
	}, nil
}

// Predict returns the underlying prediction and whether it is flagged
// high-confidence.
func (c *Confident) Predict() (Prediction, bool) {
	pred, tok := c.hybrid.Lookup()
	c.tok = tok
	confident := pred.Valid && c.ctrs[tok.CorrIdx] >= c.threshold
	return pred, confident
}

// Update reveals the actual trace, trains the predictor, and maintains
// the resetting counter.
func (c *Confident) Update(actual *trace.Trace) {
	tok := &c.tok
	correct := tok.Pred.Valid && tok.predVal == c.hybrid.cfg.storedVal(actual)
	confident := tok.Pred.Valid && c.ctrs[tok.CorrIdx] >= c.threshold
	if confident {
		c.cstats.High++
		if correct {
			c.cstats.HighCorrect++
		}
	} else {
		c.cstats.Low++
		if correct {
			c.cstats.LowCorrect++
		}
	}
	ctr := &c.ctrs[tok.CorrIdx]
	if correct {
		if *ctr < c.max {
			*ctr++
		}
	} else {
		*ctr = 0 // resetting counter: one miss clears confidence
	}
	c.hybrid.CommitUpdate(tok, actual)
	c.hybrid.Advance(actual)
}

// Stats returns the wrapped predictor's accuracy counters.
func (c *Confident) Stats() Stats { return c.hybrid.Stats() }

// ConfStats returns the confidence-quality counters.
func (c *Confident) ConfStats() ConfStats { return c.cstats }

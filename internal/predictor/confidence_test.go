package predictor

import (
	"math/rand"
	"testing"
)

func TestConfidentValidation(t *testing.T) {
	base := Config{Depth: 2, IndexBits: 12}
	if _, err := NewConfident(ConfidentConfig{Predictor: base, CounterBits: 9}); err == nil {
		t.Error("counter bits 9 accepted")
	}
	if _, err := NewConfident(ConfidentConfig{Predictor: base, CounterBits: 2, Threshold: 5}); err == nil {
		t.Error("threshold above counter max accepted")
	}
	if _, err := NewConfident(ConfidentConfig{Predictor: Config{Depth: -1}}); err == nil {
		t.Error("bad predictor config accepted")
	}
}

func newConfident(t *testing.T, cfg ConfidentConfig) *Confident {
	t.Helper()
	c, err := NewConfident(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfidenceSeparatesStableFromChurn(t *testing.T) {
	c := newConfident(t, ConfidentConfig{
		Predictor: Config{Depth: 1, IndexBits: 12},
		Threshold: 8,
	})
	rng := rand.New(rand.NewSource(21))
	// Stable pair A->B plus an unpredictable successor of C.
	a, b, x := tr(0x1004, 0), tr(0x1008, 0), tr(0x100c, 0)
	y, z := tr(0x1010, 0), tr(0x1014, 0)
	for i := 0; i < 4000; i++ {
		c.Predict()
		c.Update(a)
		c.Predict()
		c.Update(b)
		c.Predict()
		c.Update(x)
		c.Predict()
		if rng.Intn(2) == 0 {
			c.Update(y)
		} else {
			c.Update(z)
		}
	}
	st := c.ConfStats()
	if st.High == 0 || st.Low == 0 {
		t.Fatalf("confidence never split: %+v", st)
	}
	if st.HighAccuracy() <= st.LowAccuracy() {
		t.Errorf("high-confidence accuracy (%v) not above low (%v)",
			st.HighAccuracy(), st.LowAccuracy())
	}
	if st.HighAccuracy() < 98.5 {
		t.Errorf("high-confidence accuracy %v below 98.5%% on this stream", st.HighAccuracy())
	}
	if cov := st.Coverage(); cov <= 0 || cov >= 100 {
		t.Errorf("coverage %v degenerate", cov)
	}
}

func TestConfidenceResetsOnMiss(t *testing.T) {
	c := newConfident(t, ConfidentConfig{
		Predictor: Config{Depth: 0, IndexBits: 10},
		Threshold: 3,
	})
	a, b := tr(0x1004, 0), tr(0x1008, 0)
	// Train A->A until confident.
	for i := 0; i < 10; i++ {
		c.Predict()
		c.Update(a)
	}
	_, confident := c.Predict()
	if !confident {
		t.Fatal("not confident after 10 consecutive correct predictions")
	}
	// One surprise resets the counter for that context.
	c.Update(b)
	c.Predict()
	c.Update(a) // back on the trained path; context [a] counter was reset
	_, confident = c.Predict()
	if confident {
		t.Error("still confident immediately after a misprediction reset")
	}
}

func TestConfidenceStatsZero(t *testing.T) {
	var s ConfStats
	if s.Coverage() != 0 || s.HighAccuracy() != 0 || s.LowAccuracy() != 0 {
		t.Error("zero stats produced nonzero rates")
	}
}

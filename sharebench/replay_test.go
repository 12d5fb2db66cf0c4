package main

import (
	"path/filepath"
	"testing"
)

// TestTracedQuoteReplaySplitsLayers replays a short quote script with spans
// on and checks that both halves of the solve split record: the pool calls
// (single quotes and batches) and the direct clone and solves.
func TestTracedQuoteReplaySplitsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 300-seller pool")
	}
	s, err := makeScript("quote", 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Warmup = nil
	s.Closed = s.Closed[:40*quoteBatchK]
	tr, err := replayOnce(s, filepath.Join(t.TempDir(), "traced"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	got := map[string]float64{}
	for _, m := range layerMetrics(s, &served{}, tr, tr, probes{}) {
		got[m.Name] = m.Value
	}
	for _, name := range []string{"pool.quote_us", "pool.batch_us", "solve.clone_us", "solve.analytic_us", "solve.meanfield_us"} {
		if !(got[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, got[name])
		}
	}
}

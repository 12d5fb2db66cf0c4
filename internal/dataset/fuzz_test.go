package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary byte streams to the CSV reader: it must never
// panic, and anything it accepts must round-trip through WriteCSV/ReadCSV
// to an identical dataset.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,y\n1,2,3\n4,5,6\n")
	f.Add("x,y\n1.5,-2e10\n")
	f.Add("")
	f.Add("a,y\nnan,1\n")
	f.Add("a,y\n1\n")
	f.Add("a,y\n1,2,3\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("writing accepted dataset: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Len() != d.Len() || back.NumFeatures() != d.NumFeatures() {
			t.Fatalf("round trip changed shape: %dx%d → %dx%d",
				d.Len(), d.NumFeatures(), back.Len(), back.NumFeatures())
		}
		for i := range d.Y {
			if back.Y[i] != d.Y[i] {
				// NaN never round-trips equal; only flag real drift.
				if back.Y[i] == back.Y[i] || d.Y[i] == d.Y[i] {
					t.Fatalf("row %d target drifted: %v → %v", i, d.Y[i], back.Y[i])
				}
			}
			for j, v := range d.Row(i) {
				if w := back.Row(i)[j]; w != v && (w == w || v == v) {
					t.Fatalf("row %d feature %d drifted: %v → %v", i, j, v, w)
				}
			}
		}
	})
}

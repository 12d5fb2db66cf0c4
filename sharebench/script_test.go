package main

import (
	"reflect"
	"testing"

	"share/internal/httpapi"
)

var workloads = []string{"quote", "trade"}

func TestScriptSameSeedSameScript(t *testing.T) {
	for _, w := range workloads {
		a, err := makeScript(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeScript(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different scripts", w)
		}
	}
}

// kindCounts counts each request kind in a list of ops.
func kindCounts(ops []op) [numKinds]int {
	var n [numKinds]int
	for _, o := range ops {
		n[o.Kind]++
	}
	return n
}

func TestScriptSeedChangesDemandsNotCounts(t *testing.T) {
	for _, w := range workloads {
		a, err := makeScript(w, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeScript(w, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Demands, b.Demands) {
			t.Errorf("%s: seeds 7 and 8 generated the same demands", w)
		}
		for _, part := range []struct {
			name string
			a, b []op
		}{
			{"register", a.Register, b.Register},
			{"warmup", a.Warmup, b.Warmup},
			{"closed", a.Closed, b.Closed},
		} {
			if ca, cb := kindCounts(part.a), kindCounts(part.b); ca != cb {
				t.Errorf("%s %s: seed 7 counts %v, seed 8 counts %v", w, part.name, ca, cb)
			}
		}
		if len(a.Markets) != len(b.Markets) || len(a.Demands) != len(b.Demands) {
			t.Errorf("%s: market or demand count depends on the seed", w)
		}
	}
}

func TestScriptLengthFollowsSeconds(t *testing.T) {
	for _, w := range workloads {
		a, _ := makeScript(w, 1, 2)
		b, _ := makeScript(w, 1, 4)
		if 2*len(a.Closed) != len(b.Closed) {
			t.Errorf("%s: %d→%d ops when seconds doubles", w, len(a.Closed), len(b.Closed))
		}
	}
	if _, err := makeScript("quote", 1, 0); err == nil {
		t.Error("seconds 0 accepted")
	}
	if _, err := makeScript("nosuch", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRenderedBodiesDecode pins that every scripted request decodes into
// its wire type the way the server decodes it, so the replay and the
// server read the same values.
func TestRenderedBodiesDecode(t *testing.T) {
	for _, w := range workloads {
		s, err := makeScript(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append(append([]op(nil), s.Register...), s.Warmup...), s.Closed...)
		for i, o := range all {
			r := s.render(o)
			var dst any
			switch o.Kind {
			case kQuote, kTrade:
				dst = new(httpapi.Demand)
			case kBatch:
				dst = new(httpapi.QuoteBatchRequest)
			case kRegister:
				dst = new(httpapi.SellerRegistration)
			}
			if err := decodeBody(r.Body, dst); err != nil {
				t.Errorf("%s op %d (%s): %v", w, i, o.Kind, err)
			}
		}
	}
}

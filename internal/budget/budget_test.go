package budget

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestParseComposition(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Composition
		ok   bool
	}{
		{"", Basic, true},
		{"basic", Basic, true},
		{"advanced", Advanced, true},
		{"Basic", "", false},
		{"strong", "", false},
	} {
		got, err := ParseComposition(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseComposition(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseComposition(%q) accepted", tc.in)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Epsilon: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Epsilon: 0},
		{Epsilon: -1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: 1, Composition: "strong"},
		{Epsilon: 1, Delta: 1},
		{Epsilon: 1, Delta: -0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestBasicComposition: under basic composition spent is the plain sum,
// and the charge that would cross the budget is refused while spent ==
// budget exactly is a legal terminal state.
func TestBasicComposition(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids, eps := []string{"a"}, []float64{1}
	for i := 0; i < 3; i++ {
		if err := l.Check(ids, eps); err != nil {
			t.Fatalf("charge %d refused: %v", i+1, err)
		}
		l.Charge(ids, eps)
	}
	if got := l.Spent("a"); got != 3 {
		t.Fatalf("spent = %v, want 3", got)
	}
	if got := l.Budget("a") - l.Spent("a"); got != 0 {
		t.Fatalf("headroom = %v, want 0", got)
	}
	var ee *ExhaustedError
	err = l.Check(ids, []float64{0.001})
	if !errors.As(err, &ee) {
		t.Fatalf("over-budget check = %v, want *ExhaustedError", err)
	}
	if ee.SellerID != "a" || ee.Budget != 3 || ee.Spent != 3 || ee.Requested != 0.001 {
		t.Fatalf("ExhaustedError = %+v", ee)
	}
	if ee.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestAdvancedComposition pins the strong-composition formula: for n
// rounds of equal ε, spent = sqrt(2·ln(1/δ′)·n·ε²) + n·ε·(e^ε−1), and for
// many small rounds it is far below the basic sum.
func TestAdvancedComposition(t *testing.T) {
	const (
		n   = 100
		e   = 0.1
		del = 1e-6
	)
	l, err := NewLedger(Config{Epsilon: 1e9, Composition: Advanced, Delta: del})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		l.Charge([]string{"a"}, []float64{e})
	}
	want := math.Sqrt(2*math.Log(1/del)*n*e*e) + n*e*math.Expm1(e)
	if got := l.Spent("a"); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("advanced spent = %v, want %v", got, want)
	}
	if basic := n * e; l.Spent("a") >= basic {
		t.Fatalf("advanced composition %v not below basic sum %v", l.Spent("a"), basic)
	}
}

// TestAdvancedDefaultDelta: zero Delta selects DefaultDelta.
func TestAdvancedDefaultDelta(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 100, Composition: Advanced})
	if err != nil {
		t.Fatal(err)
	}
	l.Charge([]string{"a"}, []float64{0.5})
	want := math.Sqrt(2*math.Log(1/DefaultDelta)*0.25) + 0.5*math.Expm1(0.5)
	if got := l.Spent("a"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spent = %v, want %v", got, want)
	}
}

// TestHugeEpsilonStaysFinite: a full-fidelity round (ε ~ 1e9) must exhaust
// the budget but keep every composed total finite and JSON-encodable.
func TestHugeEpsilonStaysFinite(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 10, Composition: Advanced})
	if err != nil {
		t.Fatal(err)
	}
	var ee *ExhaustedError
	if err := l.Check([]string{"a"}, []float64{1e9}); !errors.As(err, &ee) {
		t.Fatalf("huge ε admitted: %v", err)
	}
	l.Charge([]string{"a"}, []float64{1e9}) // replay path applies verbatim
	if s := l.Spent("a"); math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("composed spent not finite: %v", s)
	}
	if _, err := json.Marshal(l.Accounts()); err != nil {
		t.Fatalf("accounts not JSON-encodable: %v", err)
	}
}

// TestCheckSkipsZeroEpsilon: ε=0 pieces (pure-noise mechanism output)
// carry no privacy loss and never charge or refuse.
func TestCheckSkipsZeroEpsilon(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Charge([]string{"a"}, []float64{1}) // budget fully spent
	if err := l.Check([]string{"a", "b"}, []float64{0, 0.5}); err != nil {
		t.Fatalf("zero-ε entry refused: %v", err)
	}
	l.Charge([]string{"a", "b"}, []float64{0, 0.5})
	if got := l.Spent("a"); got != 1 {
		t.Fatalf("zero-ε charge moved spent: %v", got)
	}
	if a := l.acct["a"]; a.Charges != 1 {
		t.Fatalf("zero-ε charge counted: %d", a.Charges)
	}
}

// TestCheckRefusesFirstInOrder: with two sellers over budget, the refusal
// names the first in ids order — deterministic surfacing.
func TestCheckRefusesFirstInOrder(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ee *ExhaustedError
	if err := l.Check([]string{"x", "y"}, []float64{5, 5}); !errors.As(err, &ee) || ee.SellerID != "x" {
		t.Fatalf("refusal = %v, want ExhaustedError on x", err)
	}
}

// TestTopUp: a top-up raises the budget so a refused charge fits, and
// invalid amounts are rejected.
func TestTopUp(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Charge([]string{"a"}, []float64{1})
	if err := l.Check([]string{"a"}, []float64{0.5}); err == nil {
		t.Fatal("over-budget charge admitted before top-up")
	}
	nb, err := l.TopUp("a", 2)
	if err != nil || nb != 3 {
		t.Fatalf("TopUp = %v, %v; want 3", nb, err)
	}
	if err := l.Check([]string{"a"}, []float64{0.5}); err != nil {
		t.Fatalf("charge refused after top-up: %v", err)
	}
	if got := l.Budget("a"); got != 3 {
		t.Fatalf("budget = %v, want 3", got)
	}
	if got := l.Budget("never-seen"); got != 1 {
		t.Fatalf("fresh seller budget = %v, want market ε", got)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := l.TopUp("a", bad); err == nil {
			t.Errorf("TopUp(%v) accepted", bad)
		}
	}
}

// TestAccountsRoundTrip: Accounts → Restore reproduces spent and budget
// exactly, and empty accounts are dropped from the snapshot.
func TestAccountsRoundTrip(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 4, Composition: Advanced})
	if err != nil {
		t.Fatal(err)
	}
	l.Charge([]string{"a", "b"}, []float64{0.3, 0.7})
	l.Charge([]string{"a"}, []float64{0.2})
	if _, err := l.TopUp("b", 1); err != nil {
		t.Fatal(err)
	}
	l.account("ghost") // touched but empty: must not serialize

	snap := l.Accounts()
	if _, ok := snap["ghost"]; ok {
		t.Fatal("empty account serialized")
	}
	_, a := snap["a"]
	_, b := snap["b"]
	if !a || !b || len(snap) != 2 {
		t.Fatalf("serialized sellers %v, want a and b", snap)
	}

	l2, err := NewLedger(Config{Epsilon: 4, Composition: Advanced})
	if err != nil {
		t.Fatal(err)
	}
	l2.Restore(snap)
	for _, id := range []string{"a", "b"} {
		if l2.Spent(id) != l.Spent(id) || l2.Budget(id) != l.Budget(id) {
			t.Fatalf("seller %s: restored spent/budget %v/%v, want %v/%v",
				id, l2.Spent(id), l2.Budget(id), l.Spent(id), l.Budget(id))
		}
	}
	if l.Accounts() == nil {
		t.Fatal("non-empty ledger serialized to nil")
	}
	empty, _ := NewLedger(Config{Epsilon: 1})
	if empty.Accounts() != nil {
		t.Fatal("empty ledger serialized accounts")
	}
}

// TestSpentOfUnknownSeller: a never-charged seller reads as zero spent
// with full headroom.
func TestSpentOfUnknownSeller(t *testing.T) {
	l, err := NewLedger(Config{Epsilon: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if l.Spent("nobody") != 0 || l.Budget("nobody") != 2.5 {
		t.Fatalf("unknown seller spent/budget = %v/%v", l.Spent("nobody"), l.Budget("nobody"))
	}
}

// TestCompositionProperty drives generated charge sequences through both
// rules, under the default and an explicit δ′, and holds the ledger to a
// model that recomputes each seller's composed total from the ε it was
// charged. Each sequence either charges only the rounds Check admits, as
// a trade does, or charges every round verbatim, as replay does. Draws
// cover ε = 0, negatives (skipped), micro-ε (what a served trade spends),
// the paper's scale and values whose ε·(e^ε − 1) term passes ampCap.
func TestCompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return -5 * rng.Float64()
		case 2:
			return 1e-6 * rng.Float64()
		case 3:
			return 5 * rng.Float64()
		case 4:
			return 40 + 1e3*rng.Float64()
		default:
			return 1e9
		}
	}
	ids := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 400; trial++ {
		cfg := Config{
			Epsilon:     []float64{1e-6, 1e-3, 0.5, 5, 100}[rng.Intn(5)],
			Composition: []Composition{"", Basic, Advanced}[rng.Intn(3)],
			Delta:       []float64{0, 1e-9, 1e-3, 0.5}[rng.Intn(4)],
		}
		admitted := rng.Intn(2) == 0
		l, err := NewLedger(cfg)
		if err != nil {
			t.Fatal(err)
		}
		delta := cfg.Delta
		if delta == 0 {
			delta = DefaultDelta
		}
		// The model: running sums in charge order, and whether any drift
		// term has reached ampCap.
		type sums struct {
			eps, sq, amp float64
			capped       bool
		}
		model := map[string]sums{}
		add := func(s sums, eps float64) sums {
			if eps > 0 {
				s.eps += eps
				s.sq += eps * eps
				s.amp += min(eps*math.Expm1(eps), ampCap)
				s.capped = s.capped || eps*math.Expm1(eps) >= ampCap
			}
			return s
		}
		composed := func(s sums) float64 {
			if cfg.Composition == Advanced {
				return math.Sqrt(2*math.Log(1/delta)*s.sq) + s.amp
			}
			return s.eps
		}
		for round := 0; round < 40; round++ {
			batch := rng.Perm(len(ids))[:1+rng.Intn(len(ids))]
			rIDs := make([]string, len(batch))
			rEps := make([]float64, len(batch))
			for i, j := range batch {
				rIDs[i], rEps[i] = ids[j], draw()
				if rng.Intn(8) == 0 {
					// The basic rule's exact headroom: spending the budget
					// to the last bit is admitted.
					rEps[i] = cfg.Epsilon - model[ids[j]].eps
				}
			}
			before := map[string]float64{}
			for _, id := range ids {
				before[id] = l.Spent(id)
			}

			refused := ""
			for i, id := range rIDs {
				if rEps[i] > 0 && composed(add(model[id], rEps[i])) > cfg.Epsilon {
					refused = id
					break
				}
			}
			err := l.Check(rIDs, rEps)
			var ee *ExhaustedError
			switch {
			case refused == "" && err != nil:
				t.Fatalf("trial %d round %d: Check(%v, %v) = %v, model admits", trial, round, rIDs, rEps, err)
			case refused != "" && (!errors.As(err, &ee) || ee.SellerID != refused):
				t.Fatalf("trial %d round %d: Check(%v, %v) = %v, model refuses %s", trial, round, rIDs, rEps, err, refused)
			}
			if admitted && err != nil {
				continue
			}
			l.Charge(rIDs, rEps)
			for i, id := range rIDs {
				model[id] = add(model[id], rEps[i])
			}

			for _, id := range ids {
				got, s := l.Spent(id), model[id]
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got < before[id] {
					t.Fatalf("trial %d round %d: seller %s spent %v after %v", trial, round, id, got, before[id])
				}
				if admitted && got > l.Budget(id) {
					t.Fatalf("trial %d round %d: seller %s spent %v past its budget %v", trial, round, id, got, l.Budget(id))
				}
				switch {
				case cfg.Composition != Advanced:
					if got != s.eps {
						t.Fatalf("trial %d round %d: seller %s spent %v, running sum %v", trial, round, id, got, s.eps)
					}
				case !s.capped:
					// Uncapped, composed(s) is the closed form itself.
					want := composed(s)
					if math.Abs(got-want) > 1e-12*want {
						t.Fatalf("trial %d round %d: seller %s spent %v, closed form %v", trial, round, id, got, want)
					}
				}
			}
		}
	}
}

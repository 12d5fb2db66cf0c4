package pool

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"share/internal/core"
)

// A warm QuoteInto solves against the view's shared prototype into the
// caller's profile, so the closed-form backends allocate nothing: no copy
// of the prototype, no fresh τ/χ/Ψ vectors, no fresh Theorem 5.1 bound.
func TestQuoteIntoAllocsNothing(t *testing.T) {
	p := New(quietOptions())
	m, err := p.Create(Spec{ID: "alloc"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 100)
	ctx := context.Background()
	b := demoBuyer(150, 0.85)
	for _, solver := range []string{"analytic", "meanfield"} {
		var dst core.Profile
		if _, err := m.QuoteInto(ctx, b, solver, &dst); err != nil {
			t.Fatalf("%s: QuoteInto: %v", solver, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := m.QuoteInto(ctx, b, solver, &dst); err != nil {
				t.Fatalf("%s: QuoteInto: %v", solver, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm QuoteInto allocates %.1f objects per call, want 0", solver, allocs)
		}
		if len(dst.Tau) != 100 {
			t.Errorf("%s: quoted %d fidelities for 100 sellers", solver, len(dst.Tau))
		}
	}
}

// TestConcurrentQuotesDuringChurn runs single and batch quotes into reused
// profiles while joins and leaves republish the view. Every answer must
// come from one published roster: its vectors as long as a roster the
// churner published, a batch's answers all from the same roster, and a
// reused profile showing nothing of an earlier, longer or approximate
// answer.
func TestConcurrentQuotesDuringChurn(t *testing.T) {
	p := New(quietOptions())
	defer p.Close()
	m, err := p.Create(Spec{ID: "churn-quotes"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 4)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}

	var publishedMu sync.Mutex
	published := map[int]bool{len(m.View().Sellers): true}
	stop := make(chan struct{})
	errs := make(chan error, 8)
	// The churner starts once every quoter has answered once, so all three
	// run while the view is republished.
	var ready sync.WaitGroup
	ready.Add(3)
	var churner sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		defer close(stop)
		ready.Wait()
		step := func(err error) bool {
			if err != nil {
				errs <- err
				return false
			}
			publishedMu.Lock()
			published[len(m.View().Sellers)] = true
			publishedMu.Unlock()
			return true
		}
		for i := 0; i < 30; i++ {
			a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
			join := func(id string, lambda float64) error {
				_, err := m.RegisterSeller(Registration{ID: id, Lambda: lambda, SyntheticRows: 30})
				return err
			}
			if !step(join(a, 0.35)) || !step(join(b, 0.7)) || !step(m.RemoveSeller(a)) || !step(m.RemoveSeller(b)) {
				return
			}
		}
	}()

	// Each quoter records the τ lengths it saw; they are checked against
	// the published rosters once the churner is done.
	seen := make([]map[int]bool, 3)
	var quoters sync.WaitGroup
	check := func(prof *core.Profile, approx bool) error {
		n := len(prof.Tau)
		if len(prof.Chi) != n || len(prof.SellerProfits) != n {
			return fmt.Errorf("profile vectors of lengths %d/%d/%d", n, len(prof.Chi), len(prof.SellerProfits))
		}
		if (prof.Approx != nil) != approx {
			return fmt.Errorf("Approx = %v, want a bound: %v", prof.Approx, approx)
		}
		var sum float64
		for _, c := range prof.Chi {
			sum += c
		}
		if math.Abs(sum-90) > 1e-9*90 {
			return fmt.Errorf("allocations sum to %g, want the demanded 90", sum)
		}
		return nil
	}
	for q := 0; q < 2; q++ {
		seen[q] = make(map[int]bool)
		quoters.Add(1)
		go func(q int) {
			defer quoters.Done()
			var once sync.Once
			defer once.Do(ready.Done)
			var dst core.Profile // reused across solvers and rosters
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				solver := []string{"analytic", "meanfield"}[i%2]
				if _, err := m.QuoteInto(context.Background(), demoBuyer(90, 0.8), solver, &dst); err != nil {
					errs <- fmt.Errorf("QuoteInto during churn: %w", err)
					return
				}
				if err := check(&dst, solver == "meanfield"); err != nil {
					errs <- fmt.Errorf("%s quote: %w", solver, err)
					return
				}
				seen[q][len(dst.Tau)] = true
				once.Do(ready.Done)
			}
		}(q)
	}
	seen[2] = make(map[int]bool)
	quoters.Add(1)
	go func() {
		defer quoters.Done()
		var once sync.Once
		defer once.Do(ready.Done)
		demands := []BatchDemand{
			{Buyer: demoBuyer(90, 0.8), Solver: "meanfield"},
			{Buyer: demoBuyer(90, 0.7)},
			{Buyer: demoBuyer(90, 0.9), Solver: "meanfield"},
		}
		dst := make([]core.Profile, len(demands))
		names := make([]string, len(demands))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.QuoteBatchInto(context.Background(), demands, dst, names); err != nil {
				errs <- fmt.Errorf("QuoteBatchInto during churn: %w", err)
				return
			}
			for i := range dst {
				if err := check(&dst[i], demands[i].Solver == "meanfield"); err != nil {
					errs <- fmt.Errorf("batch answer %d: %w", i, err)
					return
				}
				if len(dst[i].Tau) != len(dst[0].Tau) {
					errs <- fmt.Errorf("one batch answered from rosters of %d and %d sellers", len(dst[0].Tau), len(dst[i].Tau))
					return
				}
			}
			seen[2][len(dst[0].Tau)] = true
			once.Do(ready.Done)
		}
	}()
	churner.Wait()
	quoters.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for q, lengths := range seen {
		if len(lengths) == 0 {
			t.Errorf("quoter %d never answered", q)
		}
		for n := range lengths {
			if !published[n] {
				t.Errorf("quoter %d answered for %d sellers; published rosters: %v", q, n, published)
			}
		}
	}
}

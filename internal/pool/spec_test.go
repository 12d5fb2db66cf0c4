package pool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/solve"
)

// randomDefaults draws pool defaults for the spec round trip: every
// Options field a Spec can override, each unset, zero or a valid value.
func randomDefaults(rng *rand.Rand, dir string) Options {
	opts := fastWalOptions(dir)
	opts.Solver = pickString(rng, append([]string{""}, solve.Names()...))
	opts.Durability = pickString(rng, []string{"", string(DurSync), string(DurGroup), string(DurAsync)})
	opts.Composition = pickString(rng, []string{"", string(budget.Basic), string(budget.Advanced)})
	opts.TradeConcurrency = rng.Intn(4) // 0 selects the default
	opts.TradeQueue = rng.Intn(10) - 1  // -1 means no waiting room, 0 the default
	opts.EpsilonBudget = []float64{0, 2, 6}[rng.Intn(3)]
	return opts
}

func pickString(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// drawInt returns nil (unset), a pointer to 0 or a pointer to a value in
// [1, hi].
func drawInt(rng *rand.Rand, hi int) *int {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		v := 0
		return &v
	}
	v := 1 + rng.Intn(hi)
	return &v
}

// randomSpec draws every Spec field as unset, zero or a valid value.
func randomSpec(rng *rand.Rand, id string) Spec {
	spec := Spec{
		ID:               id,
		Solver:           pickString(rng, append([]string{""}, solve.Names()...)),
		Durability:       pickString(rng, []string{"", string(DurSync), string(DurGroup), string(DurAsync)}),
		Composition:      pickString(rng, []string{"", string(budget.Basic), string(budget.Advanced)}),
		TradeConcurrency: drawInt(rng, 4),
		TradeQueue:       drawInt(rng, 8),
	}
	switch rng.Intn(3) {
	case 1:
		seed := int64(0)
		spec.Seed = &seed
	case 2:
		seed := rng.Int63()
		spec.Seed = &seed
	}
	switch rng.Intn(3) {
	case 1:
		eps := 0.0
		spec.EpsilonBudget = &eps
	case 2:
		eps := 1 + 9*rng.Float64()
		spec.EpsilonBudget = &eps
	}
	return spec
}

// TestSpecSurvivesReboot: a market comes back from Close + RestoreAll with
// the spec it was created with, whatever the defaults of the pool that
// wrote it and of the pool that restores it, and serves the same quotes.
// Each generated spec runs on both restore paths: a WAL-only market, whose
// only snapshot is the spec snapshot written with its log, and one
// compacted by SaveAll; each is then restored once more into a market the
// pool already holds. Snapshots once
// left out the admission fields and an explicit zero budget, so such a
// market came back with the restoring pool's defaults.
func TestSpecSurvivesReboot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	for trial := 0; trial < 16; trial++ {
		spec := randomSpec(rng, fmt.Sprintf("m%02d", trial))
		for _, compact := range []bool{false, true} {
			dir := t.TempDir()
			p := New(randomDefaults(rng, dir))
			m, err := p.Create(spec)
			if err != nil {
				var fe *FieldError
				if !errors.As(err, &fe) || fe.Field != "trade_concurrency" || *spec.TradeConcurrency != 0 {
					t.Fatalf("trial %d: Create(%+v) = %v", trial, spec, err)
				}
				p.Close()
				continue // a zero concurrency is refused, not stored
			}
			register(t, m, 2)
			if _, err := m.Trade(ctx, demoBuyer(60, 0.8), nil, nil); err != nil {
				t.Fatalf("trial %d: trade: %v", trial, err)
			}
			want, wantQuotes := m.Info(), canonicalQuotes(m.View())
			if compact {
				if err := p.SaveAll(); err != nil {
					t.Fatal(err)
				}
			}
			p.Close()

			p2 := New(randomDefaults(rng, dir))
			if restored, err := p2.RestoreAll(); err != nil || len(restored) != 1 {
				t.Fatalf("trial %d: RestoreAll = %v, %v", trial, restored, err)
			}
			m2, err := p2.Get(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := m2.Info(); got != want {
				t.Errorf("trial %d (compacted %v): Info after reboot\n got: %+v\nwant: %+v", trial, compact, got, want)
			}
			if got := canonicalQuotes(m2.View()); got != wantQuotes {
				t.Errorf("trial %d (compacted %v): quotes after reboot\n got:%s\nwant:%s", trial, compact, got, wantQuotes)
			}
			p2.Close()

			// A market the restoring pool already holds is replaced by the
			// restored one, which keeps the held market's admission
			// settings and takes the rest of the stored spec, a zero budget
			// included.
			p3 := New(randomDefaults(rng, dir))
			if _, err := p3.Create(Spec{ID: spec.ID}); err != nil {
				t.Fatal(err)
			}
			if restored, err := p3.RestoreAll(); err != nil || len(restored) != 1 {
				t.Fatalf("trial %d: RestoreAll into a held market = %v, %v", trial, restored, err)
			}
			m3, err := p3.Get(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			held := want
			held.TradeConcurrency, held.TradeQueue = m3.Info().TradeConcurrency, m3.Info().TradeQueue
			if got := m3.Info(); got != held {
				t.Errorf("trial %d (compacted %v): Info after a reboot into a held market\n got: %+v\nwant: %+v", trial, compact, got, held)
			}
			if got := canonicalQuotes(m3.View()); got != wantQuotes {
				t.Errorf("trial %d (compacted %v): quotes after a reboot into a held market\n got:%s\nwant:%s", trial, compact, got, wantQuotes)
			}
			p3.Close()
		}
	}
}

// quoteWords solves each demand on the market's published view under each
// named backend and returns every price, profit and fidelity word of the
// answers, in order.
func quoteWords(t *testing.T, m *Market, solvers []string, demands []core.Buyer) []float64 {
	t.Helper()
	var words []float64
	for _, name := range solvers {
		for _, b := range demands {
			prof, _, err := m.Quote(context.Background(), b, name)
			if err != nil {
				t.Fatalf("%s quote: %v", name, err)
			}
			words = append(words, prof.PM, prof.PD, prof.BuyerProfit)
			words = append(words, prof.Tau...)
		}
	}
	return words
}

// TestLeaveQuotesSurviveReboot: after mid-life leaves, a reboot serves the
// same quotes bit for bit, whether the market restores from its log alone,
// from a SaveAll snapshot or from a compaction snapshot. A 7-seller market
// trades 3 times and loses 2 sellers, for every pair of leavers. A leave
// once subtracted the leaver's terms from the cached sums, while a restore
// from a snapshot precomputed the post-leave game from scratch: after a
// SaveAll or a compaction, 8 of the 21 pairs served different last bits.
// Every roster change now precomputes the next roster's game from scratch,
// as a restore does.
func TestLeaveQuotesSurviveReboot(t *testing.T) {
	solvers := []string{"analytic", "meanfield"}
	demands := []core.Buyer{demoBuyer(60, 0.7), demoBuyer(90, 0.8), demoBuyer(150, 0.9)}
	ctx := context.Background()
	cuts := []struct {
		name string
		cut  func(*testing.T, *Pool, *Market)
	}{
		{"WAL-only", func(*testing.T, *Pool, *Market) {}},
		{"SaveAll", func(t *testing.T, p *Pool, _ *Market) {
			if err := p.SaveAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"compaction", func(t *testing.T, _ *Pool, m *Market) { compactNow(t, m) }},
	}
	for _, c := range cuts {
		for a := 1; a <= 7; a++ {
			for b := a + 1; b <= 7; b++ {
				dir := t.TempDir()
				p := New(fastWalOptions(dir))
				m, err := p.Create(Spec{ID: "leave"})
				if err != nil {
					t.Fatal(err)
				}
				register(t, m, 7)
				for i := 0; i < 3; i++ {
					if _, err := m.Trade(ctx, demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []string{fmt.Sprintf("s%02d", a), fmt.Sprintf("s%02d", b)} {
					if err := m.RemoveSeller(id); err != nil {
						t.Fatal(err)
					}
				}
				live := quoteWords(t, m, solvers, demands)
				c.cut(t, p, m)
				p.Close()

				p2 := New(fastWalOptions(dir))
				if _, err := p2.RestoreAll(); err != nil {
					t.Fatal(err)
				}
				m2, err := p2.Get("leave")
				if err != nil {
					t.Fatal(err)
				}
				got := quoteWords(t, m2, solvers, demands)
				p2.Close()
				if len(got) != len(live) {
					t.Fatalf("%s, leavers s%02d, s%02d: restored quotes hold %d words, live %d", c.name, a, b, len(got), len(live))
				}
				differ := 0
				for i := range live {
					if math.Float64bits(got[i]) != math.Float64bits(live[i]) {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%s, leavers s%02d, s%02d: %d of %d quote words differ after a reboot", c.name, a, b, differ, len(live))
				}
			}
		}
	}
}

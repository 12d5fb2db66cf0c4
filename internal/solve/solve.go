// Package solve is the unified solver-backend layer: one seam through which
// every consumer — the market engine, the HTTP service, the figure harness
// and the CLIs — obtains Stackelberg-Nash equilibria, regardless of how they
// are computed.
//
// The paper derives three routes to the equilibrium. The closed-form
// backward induction (Eqs. 20, 25, 27) applies to the quadratic loss; the
// mean-field approximation (Eq. 23) trades exactness for O(m) solves with
// the Theorem 5.1 error guarantee; and "complicated function forms" (§5.1.1)
// with no closed form at all need the fully numerical cascade of
// core.SolveGeneralInto. Before this layer existed only the first route was
// reachable from the market and the service. A Backend now packages each
// route behind the same two-phase contract the PR 1 cache machinery
// established:
//
//	Precompute(game)          →  Prepared  (once per seller population: O(m))
//	Bind(precomputed game)    →  Prepared  (no copy; SolveFor and Clone only)
//	SolveFor(ctx, buyer, dst) →  dst       (per demand: the backend's own cost)
//
// SolveFor never writes to the Prepared, so one prototype serves every
// concurrent quote and every trade round, and it refills the caller's
// profile in place, so a caller that keeps its profile solves the closed
// forms without allocating. Bind lets every backend of one market state
// share one precomputed game. A roster change builds and precomputes the
// game for the new roster, so every game is prepared the one way. Clone is
// for callers that mutate the game between solves — sweeps over λ/ω or the
// buyer:
//
//	Prepared.Clone()  →  Prepared     (O(m) copy, cache carried)
//	SetBuyer + Solve  →  *Profile     (Solve = SolveFor on the own buyer)
//
// Backends register themselves by name in a process-global registry;
// consumers select one with Lookup and treat the empty string as the
// analytic default. All backends honor the repo determinism convention:
// results are bit-identical for every worker count.
package solve

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"share/internal/core"
	"share/internal/nash"
	"share/internal/parallel"
)

// Backend is one equilibrium-solving strategy. Implementations must be
// stateless values safe for concurrent use; all per-game state lives in the
// Prepared they return.
type Backend interface {
	// Name is the registry key, the wire value of the HTTP `solver` field
	// and the CLI `-solver` flag.
	Name() string
	// Precompute deep-clones g, validates and precomputes the clone
	// (core.Game.Precompute) and binds it: Bind on a private copy. The
	// caller's game is never retained or mutated.
	Precompute(g *core.Game) (Prepared, error)
	// Bind wraps g without copying it. g should already be validated and
	// precomputed; the Prepared shares it with the caller and with every
	// other Prepared bound to it, so it may be used only through SolveFor
	// and Clone (and read through Game) — SetBuyer and Solve write to g.
	// The caller must not mutate g while such a Prepared is in use. This is
	// how one precomputed game serves every backend of a market state.
	Bind(g *core.Game) Prepared
}

// Prepared is a game bound to a backend, ready to solve. Any number of
// SolveFor calls may share one Prepared while nothing mutates it. SetBuyer,
// Solve and writes through Game mutate it, so a Prepared that is mutated is
// NOT safe for concurrent use — Clone one per goroutine (sweeps). A
// Prepared from Bind shares its game and must never be mutated at all.
type Prepared interface {
	// Backend returns the backend that built this Prepared.
	Backend() Backend
	// Game exposes the owned game for parameter mutation between solves
	// (sweeps over λ/ω go through Game().SetLambda etc.; buyer-only sweeps
	// should prefer SetBuyer). The returned pointer stays owned by the
	// Prepared — do not retain it past the Prepared's lifetime.
	Game() *core.Game
	// SetBuyer swaps the demand side. Buyer parameters never enter the
	// precomputed seller aggregates, so this is O(1) and cache-preserving.
	SetBuyer(b core.Buyer)
	// Solve computes the equilibrium profile for the Prepared's own buyer:
	// SolveFor into a fresh profile.
	Solve(ctx context.Context) (*core.Profile, error)
	// SolveFor computes the equilibrium profile for buyer b into dst,
	// reusing dst's vectors when their capacity suffices and writing every
	// field, so a reused dst never shows an earlier answer. Approximate
	// backends attach Profile.Approx (reusing dst's); exact ones clear it.
	// The general backend reports its effort on Profile.Effort. SolveFor
	// never writes to the Prepared; dst is written only on success. A
	// canceled context returns promptly with the context's error.
	SolveFor(ctx context.Context, b core.Buyer, dst *core.Profile) error
	// Clone returns an independent copy sharing no mutable state, carrying
	// any precomputed caches.
	Clone() Prepared
}

// precompute is every backend's Precompute: one clone of g, precomputed in
// place and bound.
func precompute(b Backend, g *core.Game) (Prepared, error) {
	c := g.Clone()
	if err := c.Precompute(); err != nil {
		return nil, err
	}
	return b.Bind(c), nil
}

// solveFresh is the Solve shared by every backend: SolveFor on the
// Prepared's own buyer into a fresh profile.
func solveFresh(ctx context.Context, p Prepared) (*core.Profile, error) {
	prof := new(core.Profile)
	if err := p.SolveFor(ctx, p.Game().Buyer, prof); err != nil {
		return nil, err
	}
	return prof, nil
}

// DefaultName is the backend consumers fall back to when none is named —
// the analytic closed-form path, exact and the fastest by orders of
// magnitude for the paper's quadratic loss.
const DefaultName = "analytic"

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register adds a backend to the process-global registry. It panics on an
// empty or duplicate name — registration is an init-time programming action,
// not a runtime input.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("solve: Register with empty backend name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solve: Register called twice for backend %q", name))
	}
	registry[name] = b
}

// Lookup resolves a backend name; the empty string selects DefaultName. The
// error lists the registered names, making it directly usable as an HTTP
// 400 or flag-validation message.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown backend %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

func init() {
	Register(Analytic{})
	Register(MeanField{})
	Register(General{})
}

// Map fans fn over [0, n) with a per-index Clone of proto, following the
// repo determinism convention (index-owned slots, in-order error selection).
// It is the sweep-grid workhorse: precompute once, clone per point, mutate
// the clone freely inside fn.
func Map[T any](workers, n int, proto Prepared, fn func(index int, p Prepared) (T, error)) ([]T, error) {
	return parallel.Map(workers, n, func(i int) (T, error) {
		return fn(i, proto.Clone())
	})
}

// Stage3Game builds the sellers' inner simultaneous game at data price pD as
// a nash.Game, for harnesses that cross-validate closed forms against the
// iterated-best-response equilibrium (the analytic-vs-numeric figure). A nil
// loss selects the paper's quadratic seller profit via g.SellerProfit —
// bit-identical to the historical harness payoff — while a non-nil loss
// routes through GeneralSellerProfit.
func Stage3Game(g *core.Game, pD float64, loss core.LossFunc) *nash.Game {
	payoff := func(i int, x float64, s []float64) float64 {
		tau := append([]float64(nil), s...)
		tau[i] = x
		return g.SellerProfit(i, pD, tau)
	}
	if loss != nil {
		payoff = func(i int, x float64, s []float64) float64 {
			tau := append([]float64(nil), s...)
			tau[i] = x
			return g.GeneralSellerProfit(i, pD, tau, loss)
		}
	}
	return &nash.Game{Players: g.M(), Payoff: payoff}
}

package market

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"testing"

	"share/internal/budget"
	"share/internal/core"
	"share/internal/dataset"
	"share/internal/ldp"
	"share/internal/product"
	"share/internal/solve"
	"share/internal/stat"
	"share/internal/translog"
)

// outputCase is one market shape of TestRoundOutputsMatchParent. Together
// the cases reach every branch of a round that touches reused scratch: the
// moment kernel with and without its redundancy pass, the builder-generic
// estimator, and both sellData record layouts. The overrides shape cycles
// its rounds through per-round solver overrides (nil = the market's own
// backend), so the override path's strategy decisions are pinned too.
type outputCase struct {
	name      string
	product   product.Builder
	budget    bool
	discount  *DiscountConfig
	update    WeightUpdate
	overrides []solve.Backend
}

var outputCases = []outputCase{
	{
		name:     "ols-budget-discount",
		budget:   true,
		discount: &DiscountConfig{Factor: 0.5, Threshold: 0.2},
		update:   WeightUpdate{Retain: 0.2, Permutations: 20, TruncateTol: 0.005},
	},
	{name: "ols", update: WeightUpdate{Retain: 0.2, Permutations: 20}},
	{name: "ridge", product: product.Ridge{Alpha: 1}, update: WeightUpdate{Retain: 0.2, Permutations: 20, Workers: 2}},
	{name: "mean", product: product.MeanVector{}, update: WeightUpdate{Retain: 0.2, Permutations: 20, Workers: 2}},
	{
		name:      "ols-overrides",
		update:    WeightUpdate{Retain: 0.2, Permutations: 20},
		overrides: []solve.Backend{nil, solve.MeanField{}, solve.General{}},
	},
}

// outputsMarket builds a 12-seller × 300-row CCPP market for c. With
// featuresOnly the market perturbs through a Laplace mechanism calibrated
// on the features alone, so sellData keeps each target clean.
func outputsMarket(t testing.TB, c outputCase, featuresOnly bool) (*Market, core.Buyer) {
	t.Helper()
	const m, rows = 12, 300
	rng := stat.NewRand(77)
	full := dataset.SyntheticCCPP(m*rows+500, rng)
	train, test := full.Split(m * rows)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		t.Fatal(err)
	}
	sellers := make([]*Seller, m)
	for i := range sellers {
		sellers[i] = &Seller{ID: fmt.Sprintf("S%d", i), Lambda: stat.UniformOpen(rng, 0, 1), Data: chunks[i]}
	}
	upd := c.update
	cfg := Config{
		Cost:     translog.PaperDefaults(),
		Product:  c.product,
		TestSet:  test,
		Update:   &upd,
		Seed:     91,
		Discount: c.discount,
	}
	if c.budget {
		cfg.Budget, err = budget.NewLedger(budget.Config{Epsilon: 1e15})
		if err != nil {
			t.Fatal(err)
		}
	}
	if featuresOnly {
		k := train.NumFeatures()
		lo, hi := make([]float64, k), make([]float64, k)
		for j := range lo {
			lo[j], hi[j] = train.X[j], train.X[j]
		}
		for i := range train.Y {
			for j, v := range train.Row(i) {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			}
		}
		b, err := ldp.NewBounds(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mechanism = ldp.NewLaplace(b)
	}
	mkt, err := New(sellers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buyer := core.PaperBuyer()
	buyer.N = 150
	return mkt, buyer
}

// roundDigest folds transactions into a SHA-256 over their JSON encoding
// with the wall-clock Timings and general-solve Stage3Time zeroed.
type roundDigest struct {
	t testing.TB
	h hash.Hash
}

func newRoundDigest(t testing.TB) *roundDigest { return &roundDigest{t: t, h: sha256.New()} }

func (d *roundDigest) add(tx *Transaction) {
	cp := *tx
	cp.Timings = Timings{}
	if st := cp.SolveEffort; st != nil {
		eff := *st
		eff.Stage3Time = 0
		cp.SolveEffort = &eff
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		d.t.Errorf("encoding round %d: %v", tx.Round, err)
		return
	}
	d.h.Write(b)
}

func (d *roundDigest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

const outputRounds = 40

// wantOutputDigest holds each run's digest, recorded by running this test's
// body against the implementation before round scratch was reused; the
// ols-overrides digests were recorded while an override backend still
// precomputed its own copy of the committed game.
var wantOutputDigest = map[string]string{
	"ols-budget-discount/full-record":   "11a3384ceca5705110017ab9e44644a386c98c3c6a5a66fc1b98ecc4f0505d22",
	"ols-budget-discount/features-only": "82626d6ac094cd1d05cb8d33206a599e92ae0a85ccc63e868c51f9c85a2b15eb",
	"ols/full-record":                   "ccd90cc9c4265bb0f3b495ad2cebec432465afd945f9f210ff9dd1a81d44a60c",
	"ols/features-only":                 "76a0c007a337c52ec2636c30e35710ff94a4425f7e40d86d525e6fb1b0c06bcf",
	"ridge/full-record":                 "bc0e3fc67cf669cd73f79be0c9c004a8d844cc0bf64f2a192a581fbab52bcc78",
	"ridge/features-only":               "c180a4d702912be6ae5562d0a73f833a3aef5b2585c6d4b5b9a1ef875afeb85f",
	"mean/full-record":                  "dad6969f6cc1b2c85d8f98f54456637be3f6348a780c143b8eed33d040e8af29",
	"mean/features-only":                "d915806a7fa07caf74d25151ed22697b2d1188085d9d11b154d17a4384ad958c",
	"ols-overrides/full-record":         "d794345e97f6ce19043a77d845319a2e870a8aa8a5e207e94711d71a59b4bbae",
	"ols-overrides/features-only":       "08ab13527bf8d645e93e419fa7a21d32f015c6370dfec5aca2a382e325ff1bf2",
}

func outputRunName(c outputCase, featuresOnly bool) string {
	if featuresOnly {
		return c.name + "/features-only"
	}
	return c.name + "/full-record"
}

// TestRoundOutputsMatchParent pins every round's transaction bit for bit
// while rounds reuse pooled scratch: each market shape under both record
// layouts must reproduce the recorded digests, also when two markets trade
// interleaved on one goroutine and concurrently on two, so no state can leak
// from one round's scratch into another's outputs.
func TestRoundOutputsMatchParent(t *testing.T) {
	type run struct {
		name      string
		mkt       *Market
		buyer     core.Buyer
		overrides []solve.Backend
		digest    *roundDigest
	}
	newRun := func(c outputCase, featuresOnly bool) *run {
		mkt, buyer := outputsMarket(t, c, featuresOnly)
		return &run{name: outputRunName(c, featuresOnly), mkt: mkt, buyer: buyer, overrides: c.overrides, digest: newRoundDigest(t)}
	}
	step := func(r *run) error {
		var backend solve.Backend
		if n := len(r.overrides); n > 0 {
			backend = r.overrides[len(r.mkt.ledger)%n]
		}
		tx, err := r.mkt.RunRoundBackend(context.Background(), r.buyer, nil, backend)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", r.name, len(r.mkt.ledger)+1, err)
		}
		r.digest.add(tx)
		return nil
	}
	check := func(r *run) {
		t.Helper()
		got := r.digest.hex()
		if want := wantOutputDigest[r.name]; got != want {
			t.Errorf("%s: digest %s, want %s", r.name, got, want)
		}
	}

	for _, c := range outputCases {
		for _, featuresOnly := range []bool{false, true} {
			r := newRun(c, featuresOnly)
			for i := 0; i < outputRounds; i++ {
				if err := step(r); err != nil {
					t.Fatal(err)
				}
			}
			check(r)
		}
	}

	pair := func() (*run, *run) {
		return newRun(outputCases[0], false), newRun(outputCases[2], true)
	}
	a, b := pair()
	for i := 0; i < outputRounds; i++ {
		for _, r := range []*run{a, b} {
			if err := step(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(a)
	check(b)

	a, b = pair()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, r := range []*run{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < outputRounds && errs[i] == nil; j++ {
				errs[i] = step(r)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(a)
	check(b)
}

// TestRoundAllocsBounded: a round allocates what it commits — the
// transaction and its slices — plus the solver prototype it re-stages and
// the test set's evaluation moments, and reuses its LDP records,
// least-squares workspace and Shapley fan-out state. Rebuilding that
// scratch every round cost about 80 KiB per round on this plain-OLS
// market; reusing it leaves about 4 KiB.
func TestRoundAllocsBounded(t *testing.T) {
	const bound = 24 << 10
	mkt, buyer := outputsMarket(t, outputCases[1], false)
	var before, after runtime.MemStats
	var total uint64
	for r := 1; r <= 60; r++ {
		runtime.ReadMemStats(&before)
		_, err := mkt.RunRound(buyer)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r > 10 {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	if mean := float64(total) / 50; mean > bound {
		t.Fatalf("mean allocation per round over rounds 11-60 is %.0f B, want at most %d B", mean, bound)
	}
}

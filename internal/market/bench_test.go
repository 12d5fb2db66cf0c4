package market

import (
	"fmt"
	"testing"

	"share/internal/core"
	"share/internal/dataset"
	"share/internal/stat"
	"share/internal/translog"
)

// benchMarket builds an m-seller CCPP market for RunRound benchmarking.
func benchMarket(b *testing.B, m int, upd *WeightUpdate, seed int64) (*Market, core.Buyer) {
	b.Helper()
	rng := stat.NewRand(seed)
	full := dataset.SyntheticCCPP(m*60+500, rng)
	train, test := full.Split(m * 60)
	chunks, err := dataset.PartitionEqual(train, m)
	if err != nil {
		b.Fatal(err)
	}
	sellers := make([]*Seller, m)
	for i := range sellers {
		sellers[i] = &Seller{
			ID:     fmt.Sprintf("S%d", i),
			Lambda: stat.UniformOpen(rng, 0, 1),
			Data:   chunks[i],
		}
	}
	mkt, err := New(sellers, Config{
		Cost:    translog.PaperDefaults(),
		TestSet: test,
		Update:  upd,
		Seed:    seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	buyer := core.PaperBuyer()
	buyer.N = float64(m * 30)
	return mkt, buyer
}

// BenchmarkRunRound measures one full trade round (strategy decision, LDP
// data transaction, production, Shapley weight update) at m=100 sellers and
// the paper's 100 permutations — the acceptance benchmark for the
// moment-cached kernel. "kernel" is the kernel single-threaded and
// "kernel-w8" the same kernel fanned across 8 workers.
func BenchmarkRunRound(b *testing.B) {
	cases := []struct {
		name string
		upd  *WeightUpdate
	}{
		{"kernel", &WeightUpdate{Retain: 0.2, Permutations: 100, Workers: 1}},
		{"kernel-w8", &WeightUpdate{Retain: 0.2, Permutations: 100, Workers: 8}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			mkt, buyer := benchMarket(b, 100, c.upd, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mkt.RunRound(buyer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunRoundScale probes the kernel end-to-end at several market
// sizes, all with the paper's 100 permutations.
func BenchmarkRunRoundScale(b *testing.B) {
	for _, m := range []int{20, 100, 400} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			mkt, buyer := benchMarket(b, m, &WeightUpdate{Retain: 0.2, Permutations: 100, Workers: 8}, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mkt.RunRound(buyer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

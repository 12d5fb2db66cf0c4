package pool

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The committed older snapshot layouts, under
// testdata/fuzz/FuzzRestoreSnapshot. Older share-server builds wrote them,
// two trades into a three-seller market each:
//   - legacy-prepool: the single-market server's file, with no id, solver,
//     seed, durability, budget or spec;
//   - legacy-prespec: a pool file from before snapshots stored the spec,
//     with its settings at top level (meanfield, seed 11, sync, an
//     advanced ε budget, and a top-up);
//   - legacy-snapshot-durability: a pool file naming the retired
//     "snapshot" durability (general, seed 5, no budget).
//
// The wanted Info and the digest of canonicalState in each case were
// recorded from the restore path that re-configured a market after
// creating it.
type oldLayoutCase struct {
	name    string
	fixture string
	info    Info
	state   string // hex SHA-256 of canonicalState
}

// TestLegacySnapshotRestores restores each older layout through RestoreAll
// into a fresh pool: the settings a file leaves unset take the pool's
// defaults, and roster, budget and trades come back as they were saved.
func TestLegacySnapshotRestores(t *testing.T) {
	restoreOldLayouts(t, nil, []oldLayoutCase{
		{"pre-pool", "legacy-prepool", Info{
			ID: "default", Solver: "analytic", Seed: 102811135, Durability: "group", TradeConcurrency: 1, TradeQueue: 64,
			Sellers: 3, Trades: 2, Trading: true,
		}, "71fa39c93e0b9e95bcd50f1f9e77980fe3bd4d434059b26f00735c11b0b25b41"},
		{"pre-spec", "legacy-prespec", Info{
			ID: "default", Solver: "meanfield", Seed: 11, Durability: "sync", TradeConcurrency: 1, TradeQueue: 64,
			Sellers: 3, Trades: 2, Trading: true, RosterEpoch: 3, EpsilonBudget: 1e6, Composition: "advanced",
		}, "5af6d171d9641fd31ba77e0148763aa1ec836fdc3c752578db429740063933e8"},
		{"snapshot durability", "legacy-snapshot-durability", Info{
			ID: "default", Solver: "general", Seed: 5, Durability: "group", TradeConcurrency: 1, TradeQueue: 64,
			Sellers: 3, Trades: 2, Trading: true, RosterEpoch: 3,
		}, "6fc2efaaa585da705470a4a7a912f1e3cfee2f96509c2037c44dd36d3c1aee01"},
	})
}

// TestSnapshotSeedOverride restores each older layout through RestoreAll
// into a pool that already holds a fresh default market, as share-server
// does at boot. A seed the file stores (11, 5) overrides the held market's,
// and so does every other stored setting; a file that stores none takes the
// held market's seed (42) and settings. The held market differs from the
// pool's defaults in every setting, so each setting a file leaves unset
// shows whether it came from the held market, as it must, or from the pool.
// The restored market replaces the held one, whose pointer then refuses
// writes.
func TestSnapshotSeedOverride(t *testing.T) {
	heldSeed, heldEps, heldConc, heldQueue := int64(42), 7.0, 2, 3
	held := &Spec{
		ID: "default", Seed: &heldSeed, Solver: "general", Durability: string(DurSync),
		EpsilonBudget: &heldEps, Composition: "advanced", TradeConcurrency: &heldConc, TradeQueue: &heldQueue,
	}
	restoreOldLayouts(t, held, []oldLayoutCase{
		{"pre-pool into a held market", "legacy-prepool", Info{
			ID: "default", Solver: "general", Seed: 42, Durability: "sync", TradeConcurrency: 2, TradeQueue: 3,
			Sellers: 3, Trades: 2, Trading: true, EpsilonBudget: 7, Composition: "advanced",
		}, "3291b9b7a74cd317cbacedf41786fa06a6b5b0f3870e95e429292049aa415a3a"},
		{"pre-spec into a held market", "legacy-prespec", Info{
			ID: "default", Solver: "meanfield", Seed: 11, Durability: "sync", TradeConcurrency: 2, TradeQueue: 3,
			Sellers: 3, Trades: 2, Trading: true, RosterEpoch: 3, EpsilonBudget: 1e6, Composition: "advanced",
		}, "3f085fefcb46d434d6a226d369399c31187c8ebf4dcc1c3e7d764a1fcd3e13b0"},
		{"snapshot durability into a held market", "legacy-snapshot-durability", Info{
			ID: "default", Solver: "general", Seed: 5, Durability: "sync", TradeConcurrency: 2, TradeQueue: 3,
			Sellers: 3, Trades: 2, Trading: true, RosterEpoch: 3, EpsilonBudget: 7, Composition: "advanced",
		}, "f1e81ae254ebfd0f2b097209d01f874df5a7c92d65a6506245d1176f9e85da50"},
	})
}

// restoreOldLayouts runs each case as a subtest: it writes the fixture as
// the default market's snapshot, creates held in the pool when it is not
// nil, restores through RestoreAll, and requires the recorded Info and
// canonicalState digest.
func restoreOldLayouts(t *testing.T, held *Spec, cases []oldLayoutCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			raw := fuzzSeed(t, filepath.Join("testdata/fuzz/FuzzRestoreSnapshot", tc.fixture))
			if err := os.WriteFile(filepath.Join(dir, "default"+snapshotExt), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := quietOptions()
			opts.SnapshotDir = dir
			p := New(opts)
			defer p.Close()
			var stale *Market
			if held != nil {
				var err error
				if stale, err = p.Create(*held); err != nil {
					t.Fatal(err)
				}
			}
			if ids, err := p.RestoreAll(); err != nil || len(ids) != 1 || ids[0] != "default" {
				t.Fatalf("RestoreAll = %v, %v; want [default]", ids, err)
			}
			m, err := p.Get("default")
			if err != nil {
				t.Fatal(err)
			}
			if stale != nil {
				// The held market was replaced, and its pointer refuses writes.
				if m == stale {
					t.Fatal("RestoreAll loaded the held market in place")
				}
				if _, err := stale.RegisterSeller(Registration{ID: "late", Lambda: 0.5, SyntheticRows: 8}); !errors.Is(err, ErrMarketClosed) {
					t.Errorf("registration on the replaced market = %v, want ErrMarketClosed", err)
				}
			}
			if got := m.Info(); got != tc.info {
				t.Errorf("Info\n got: %#v\nwant: %#v", got, tc.info)
			}
			sum := sha256.Sum256([]byte(canonicalState(t, m)))
			if got := hex.EncodeToString(sum[:]); got != tc.state {
				t.Errorf("canonicalState digest %s, want %s", got, tc.state)
			}
		})
	}
}

package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"share/internal/core"
	"share/internal/market"
	"share/internal/wal"
)

// fastWalOptions builds pool options tuned for WAL tests: persistence into
// dir and a cheap weight update so trades take milliseconds. Their logs stay
// far below the compaction floor, so a test compacts with compactNow.
func fastWalOptions(dir string) Options {
	opts := quietOptions()
	opts.SnapshotDir = dir
	opts.Update = &market.WeightUpdate{Retain: 0.2, Permutations: 2, TruncateTol: 0.005}
	return opts
}

// compactNow runs m's compaction step — snapshot, then truncate the log —
// at once, as crossing the trigger does.
func compactNow(t *testing.T, m *Market) {
	t.Helper()
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if err := m.checkpointLocked(); err != nil {
		t.Fatalf("compacting market %q: %v", m.id, err)
	}
}

// canonicalState renders everything a restored market must reproduce —
// its Info (the spec and counters), then the view's roster epoch, roster,
// weights, ledger and trading flag as canonical JSON, then the quotes the
// view serves. Both the reference and the replayed state pass through one
// marshal/unmarshal round trip, so float formatting is identical on both
// sides.
func canonicalState(t *testing.T, m *Market) string {
	t.Helper()
	info, err := json.Marshal(m.Info())
	if err != nil {
		t.Fatalf("marshaling market info: %v", err)
	}
	v := m.View()
	return canonicalJSON(t, info) + canonicalView(t, m, v) + canonicalQuotes(v)
}

// canonicalQuotes renders the bits of the analytic and mean-field SolveFor
// answers on the view's prototypes at two fixed demands — PM, PD, buyer
// profit and τ — or the error a prototype answers with. A view without
// sellers renders nothing.
func canonicalQuotes(v *View) string {
	var sb strings.Builder
	for _, name := range []string{"analytic", "meanfield"} {
		proto, ok := v.Protos[name]
		if !ok {
			continue
		}
		for _, b := range []core.Buyer{demoBuyer(60, 0.7), demoBuyer(150, 0.9)} {
			var prof core.Profile
			if err := proto.SolveFor(context.Background(), b, &prof); err != nil {
				fmt.Fprintf(&sb, " %s N=%g: %v", name, b.N, err)
				continue
			}
			fmt.Fprintf(&sb, " %s N=%g:", name, b.N)
			for _, w := range append([]float64{prof.PM, prof.PD, prof.BuyerProfit}, prof.Tau...) {
				fmt.Fprintf(&sb, " %016x", math.Float64bits(w))
			}
		}
	}
	return sb.String()
}

// canonicalView is canonicalState's rendering of one view m published,
// its transactions read back through m.Trades.
func canonicalView(t *testing.T, m *Market, v *View) string {
	t.Helper()
	trades, err := m.Trades(0, len(v.Trades))
	if err != nil {
		t.Fatalf("reading %d trades: %v", len(v.Trades), err)
	}
	raw, err := json.Marshal(struct {
		Epoch   uint64                `json:"epoch"`
		Sellers []SellerState         `json:"sellers"`
		Weights []float64             `json:"weights"`
		Trades  []*market.Transaction `json:"trades"`
		Trading bool                  `json:"trading"`
	}{v.Epoch, v.Sellers, v.Weights, trades, v.Trading})
	if err != nil {
		t.Fatalf("marshaling market state: %v", err)
	}
	var any1 any
	if err := json.Unmarshal(raw, &any1); err != nil {
		t.Fatal(err)
	}
	norm, err := json.Marshal(any1)
	if err != nil {
		t.Fatal(err)
	}
	return string(norm)
}

// TestWALTortureRecovery is the crash-recovery torture test: build a
// market whose whole history lives in the WAL, record the canonical state
// after every logged record, then truncate the segment at a dense sweep of
// byte offsets — record boundaries, off-by-one and mid-record cuts — and
// assert that replay restores exactly the state of the longest committed
// prefix that survived the cut.
func TestWALTortureRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	p := New(opts)
	m, err := p.Create(Spec{ID: "tort"})
	if err != nil {
		t.Fatal(err)
	}
	// states[k] is the canonical state after k WAL records.
	states := []string{canonicalState(t, m)}
	for i := 0; i < 3; i++ {
		if _, err := m.RegisterSeller(Registration{
			ID:            fmt.Sprintf("s%02d", i+1),
			Lambda:        0.3 + 0.1*float64(i),
			SyntheticRows: 40,
		}); err != nil {
			t.Fatal(err)
		}
		states = append(states, canonicalState(t, m))
	}
	const trades = 5
	for i := 0; i < trades; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
		states = append(states, canonicalState(t, m))
	}
	p.Close()

	walPath := filepath.Join(dir, "tort"+walExt)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	if _, _, err := wal.Scan(walPath, func(_ *wal.Record, end int64) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ends) != len(states)-1 {
		t.Fatalf("wal holds %d records, want %d", len(ends), len(states)-1)
	}
	if ends[len(ends)-1] != int64(len(raw)) {
		t.Fatalf("last record ends at %d, file is %d bytes", ends[len(ends)-1], len(raw))
	}

	// Cut points: every record boundary, boundary±1 and ±3, each record's
	// midpoint, plus a coarse stride over the whole file.
	cuts := map[int64]bool{0: true, int64(len(raw)): true}
	prev := int64(0)
	for _, e := range ends {
		for _, c := range []int64{e, e - 1, e + 1, e - 3, e + 3, (prev + e) / 2} {
			if c >= 0 && c <= int64(len(raw)) {
				cuts[c] = true
			}
		}
		prev = e
	}
	stride := int64(len(raw) / 64)
	if stride < 1 {
		stride = 1
	}
	for c := int64(0); c <= int64(len(raw)); c += stride {
		cuts[c] = true
	}

	for cut := range cuts {
		// Committed prefix: every record fully inside the cut.
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "tort"+walExt), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p2 := New(fastWalOptions(sub))
		restored, err := p2.RestoreAll()
		if err != nil {
			t.Fatalf("cut %d: RestoreAll: %v", cut, err)
		}
		if len(restored) != 1 || restored[0] != "tort" {
			t.Fatalf("cut %d: restored %v, want [tort]", cut, restored)
		}
		m2, err := p2.Get("tort")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := canonicalState(t, m2); got != states[want] {
			t.Fatalf("cut %d: replayed state diverges from the %d-record reference\n got: %.200s\nwant: %.200s",
				cut, want, got, states[want])
		}
		p2.Close()
	}
}

// TestWALRecoveredMarketKeepsTrading: after a mid-record truncation, the
// restored market must accept new registrations-free trades and persist
// them — recovery is a working market, not a read-only archive.
func TestWALRecoveredMarketKeepsTrading(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(100, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Tear the final record.
	walPath := filepath.Join(dir, "alpha"+walExt)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m2.View().Trades); got != 1 {
		t.Fatalf("restored ledger has %d trades, want 1 (second record torn)", got)
	}
	if _, err := m2.Trade(context.Background(), demoBuyer(110, 0.8), nil, nil); err != nil {
		t.Fatalf("trade after recovery: %v", err)
	}
	p2.Close()
	// The post-recovery trade must itself survive the next reboot.
	p3 := New(fastWalOptions(dir))
	if _, err := p3.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m3, err := p3.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m3.View().Trades); got != 2 {
		t.Fatalf("ledger has %d trades after second reboot, want 2", got)
	}
	p3.Close()
}

// TestDeleteRemovesWALSegment: Delete must remove the market's WAL segment
// and its snapshot, and a recreated market under the same name must start
// empty — an orphaned log replayed into it would resurrect the deleted
// market's trades.
func TestDeleteRemovesWALSegment(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "gone"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "gone"+walExt)
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("wal segment missing or empty after trade: %v", err)
	}
	// The spec snapshot exists from the first registration on.
	snapPath := filepath.Join(dir, "gone.json")
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("spec snapshot missing after trade: %v", err)
	}
	if err := p.Delete(context.Background(), "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal segment survives delete: %v", err)
	}
	if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot survives delete: %v", err)
	}
	// Same name, new life: must be empty, and a reboot must not resurrect
	// the deleted market's history.
	m2, err := p.Create(Spec{ID: "gone"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m2, 1)
	p.Close()
	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m3, err := p2.Get("gone")
	if err != nil {
		t.Fatal(err)
	}
	v := m3.View()
	if len(v.Sellers) != 1 || len(v.Trades) != 0 {
		t.Fatalf("recreated market restored %d sellers / %d trades, want 1 / 0", len(v.Sellers), len(v.Trades))
	}
	p2.Close()
}

// TestOrphanedWALSegmentTruncatedNotReplayed: a stray segment left under a
// market's name (a cleanup that never ran) must be truncated at the
// market's first append, never replayed into it.
func TestOrphanedWALSegmentTruncatedNotReplayed(t *testing.T) {
	dir := t.TempDir()
	// Mint a real segment under the name "reborn" from a throwaway pool.
	p0 := New(fastWalOptions(dir))
	m0, err := p0.Create(Spec{ID: "reborn"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m0, 2)
	if _, err := m0.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	p0.Close()

	// A fresh pool creates "reborn" anew without restoring — the stale
	// segment is now an orphan.
	var warnings []string
	var mu sync.Mutex
	opts := fastWalOptions(dir)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	p := New(opts)
	m, err := p.Create(Spec{ID: "reborn"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 1)
	v := m.View()
	if len(v.Sellers) != 1 || v.Trading {
		t.Fatalf("orphaned wal leaked into the new market: %d sellers, trading=%v", len(v.Sellers), v.Trading)
	}
	mu.Lock()
	warned := false
	for _, w := range warnings {
		if strings.Contains(w, "orphaned wal") {
			warned = true
		}
	}
	mu.Unlock()
	if !warned {
		t.Fatalf("no orphaned-wal warning in %q", warnings)
	}
	p.Close()
	// Reboot: only the new market's single registration replays.
	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("reborn")
	if err != nil {
		t.Fatal(err)
	}
	v2 := m2.View()
	if len(v2.Sellers) != 1 || len(v2.Trades) != 0 {
		t.Fatalf("reboot restored %d sellers / %d trades, want 1 / 0", len(v2.Sellers), len(v2.Trades))
	}
	p2.Close()
}

// TestLegacyDirRestoresWithoutWAL: snapshot directories written before
// the WAL became the only persistence path — .json files only, no wal_seq,
// no segments — must boot cleanly under the current pool. A file from
// before the WAL carries no durability field; a file from a market that
// ran the retired full-snapshot-per-trade mode says "snapshot". Both
// restore under the pool default, and the restored market must trade and
// log into a fresh segment.
func TestLegacyDirRestoresWithoutWAL(t *testing.T) {
	for _, tc := range []struct {
		name       string
		durability any // nil: the field is absent
	}{
		{"pre-wal", nil},
		{"snapshot-mode", "snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Checkpoint a traded market, then rewrite the WAL-era fields and
			// delete the segment to mimic the older directory byte-for-byte.
			p0 := New(fastWalOptions(dir))
			m0, err := p0.Create(Spec{ID: "old"})
			if err != nil {
				t.Fatal(err)
			}
			register(t, m0, 2)
			if _, err := m0.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := p0.SaveAll(); err != nil {
				t.Fatal(err)
			}
			p0.Close()
			walPath := filepath.Join(dir, "old"+walExt)
			if err := os.Remove(walPath); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "old.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			delete(doc, "durability")
			delete(doc, "wal_seq")
			if tc.durability != nil {
				doc["durability"] = tc.durability
			}
			rewritten, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, rewritten, 0o644); err != nil {
				t.Fatal(err)
			}

			p := New(fastWalOptions(dir))
			restored, err := p.RestoreAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(restored) != 1 || restored[0] != "old" {
				t.Fatalf("restored %v, want [old]", restored)
			}
			m, err := p.Get("old")
			if err != nil {
				t.Fatal(err)
			}
			if m.Durability() != DurGroup {
				t.Fatalf("legacy market durability = %q, want the pool default %q", m.Durability(), DurGroup)
			}
			if got := len(m.View().Trades); got != 1 {
				t.Fatalf("legacy ledger has %d trades, want 1", got)
			}
			if _, err := m.Trade(context.Background(), demoBuyer(100, 0.8), nil, nil); err != nil {
				t.Fatalf("trade after legacy restore: %v", err)
			}
			if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
				t.Fatalf("post-restore trade not logged to wal: %v", err)
			}
			p.Close()
		})
	}
}

// TestWALFailureFallsBackToSnapshot: a mutation the log cannot take — the
// segment cannot be opened, or an append fails — is saved at once as a
// full snapshot, whatever its kind, and the market keeps its requested
// mode and tries the log again on the next mutation. A reboot without
// SaveAll must bring back every acknowledged mutation.
func TestWALFailureFallsBackToSnapshot(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "fb"+walExt)
	// A directory where the segment belongs makes wal.Open fail.
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e15
	p := New(opts)
	m, err := p.Create(Spec{ID: "fb", Durability: string(DurSync)})
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := m.Info().Durability; got != string(DurSync) {
			t.Fatalf("after %s: durability %q, want the requested %q", name, got, DurSync)
		}
	}
	trade := func(n float64) error {
		_, err := m.Trade(context.Background(), demoBuyer(n, 0.8), nil, nil)
		return err
	}
	// saved checks that the mutation just acknowledged is already on disk:
	// the snapshot file holds the market's current state.
	saved := func(name string) {
		t.Helper()
		disk, err := ReadSnapshotFile(filepath.Join(dir, "fb.json"))
		if err != nil {
			t.Fatalf("after %s: %v", name, err)
		}
		got, err := json.Marshal(disk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("after %s: snapshot file lags the acknowledged state", name)
		}
	}

	register(t, m, 3)
	step("registrations", nil)
	saved("registrations")
	step("trade", trade(90))
	saved("trade")
	_, err = m.RegisterSeller(Registration{ID: "s04", Lambda: 0.45, SyntheticRows: 60})
	step("join", err)
	saved("join")
	step("leave", m.RemoveSeller("s02"))
	saved("leave")
	_, err = m.TopUpBudget("s01", 2.5)
	step("top-up", err)
	saved("top-up")

	// Clear the obstruction: the next mutation opens a fresh segment.
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	step("trade after recovery", trade(100))
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("trade after recovery not logged to a fresh wal: %v", err)
	}

	// Close the segment under the market: appends now fail.
	if err := m.log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = m.TopUpBudget("s03", 1.5)
	step("top-up on a closed log", err)
	saved("top-up on a closed log")
	step("trade on a closed log", trade(110))
	saved("trade on a closed log")

	want := canonicalState(t, m)
	p.Close() // no SaveAll

	p2 := New(opts)
	restored, err := p2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "fb" {
		t.Fatalf("restored %v, want [fb]", restored)
	}
	m2, err := p2.Get("fb")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, m2); got != want {
		t.Errorf("reboot lost acknowledged mutations\n got: %.300s\nwant: %.300s", got, want)
	}
	if got := m2.Info().Durability; got != string(DurSync) {
		t.Errorf("restored durability %q, want %q", got, DurSync)
	}
	p2.Close()
}

// TestDurabilityModes: each mode round-trips Create → Info → reboot, and
// an unknown mode — the retired "snapshot" mode included — is a
// field-level error.
func TestDurabilityModes(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	for _, d := range []Durability{DurSync, DurGroup, DurAsync} {
		id := "m-" + string(d)
		m, err := p.Create(Spec{ID: id, Durability: string(d)})
		if err != nil {
			t.Fatalf("Create(%s): %v", d, err)
		}
		if m.Info().Durability != string(d) {
			t.Fatalf("Info().Durability = %q, want %q", m.Info().Durability, d)
		}
		register(t, m, 2)
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatalf("trade under %s: %v", d, err)
		}
	}
	for _, bad := range []string{"fsync-maybe", "snapshot"} {
		var fe *FieldError
		if _, err := p.Create(Spec{ID: "bad", Durability: bad}); !errors.As(err, &fe) || fe.Field != "durability" {
			t.Fatalf("durability %q = %v, want FieldError on durability", bad, err)
		}
	}
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Durability{DurSync, DurGroup, DurAsync} {
		m, err := p2.Get("m-" + string(d))
		if err != nil {
			t.Fatalf("Get(m-%s): %v", d, err)
		}
		if m.Durability() != d {
			t.Fatalf("restored durability = %q, want %q", m.Durability(), d)
		}
		if got := len(m.View().Trades); got != 1 {
			t.Fatalf("mode %s: restored ledger has %d trades, want 1", d, got)
		}
	}
	p2.Close()
}

// TestWALCompaction: compaction folds the log into a snapshot and truncates
// the segment, and the snapshot's watermark stops a reboot from
// double-replaying compacted records.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	p := New(opts)
	m, err := p.Create(Spec{ID: "cpt"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2) // 2 records
	for i := 0; i < 3; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90+float64(i), 0.8), nil, nil); err != nil {
			t.Fatal(err)
		}
		if i == 1 { // the 4th record
			compactNow(t, m)
			if n := m.log.Records(); n != 0 {
				t.Fatalf("compaction left %d records in the segment", n)
			}
		}
	}
	want := canonicalState(t, m)
	snap, err := ReadSnapshotFile(filepath.Join(dir, "cpt.json"))
	if err != nil {
		t.Fatalf("no compaction snapshot: %v", err)
	}
	if snap.WalSeq == 0 {
		t.Fatal("compaction snapshot has no wal watermark")
	}
	p.Close()
	p2 := New(opts)
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("cpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatalf("state diverges after compaction + reboot\n got: %.200s\nwant: %.200s", got, want)
	}
	p2.Close()
}

// TestConcurrentTradesGroupCommit: concurrent traders on one group-commit
// market all succeed, every commit lands in the WAL, and a reboot replays
// the full ledger — the group-commit path loses nothing under contention.
func TestConcurrentTradesGroupCommit(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	const traders, per = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, traders)
	for w := 0; w < traders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := m.Trade(context.Background(), demoBuyer(80+float64(w*per+i), 0.8), nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent trade: %v", err)
	}
	want := canonicalState(t, m)
	p.Close()
	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("busy")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m2.View().Trades); got != traders*per {
		t.Fatalf("replayed %d trades, want %d", got, traders*per)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatal("replayed state diverges from the committed state")
	}
	p2.Close()
}

// TestWALOnlyMarketKeepsSpec: a market that crashes before its first
// compaction has no full snapshot — only the WAL segment plus the
// roster-free spec snapshot written when the segment was created. Reboot
// must restore the market's pinned solver, seed and durability, not the
// pool defaults, and replay the whole history from the log.
func TestWALOnlyMarketKeepsSpec(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir)) // pool defaults: analytic solver, group durability
	seed := int64(4242)
	m, err := p.Create(Spec{ID: "spec", Solver: "meanfield", Seed: &seed, Durability: string(DurSync)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterSeller(Registration{ID: "s1", Lambda: 0.4, SyntheticRows: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, m)
	// Crash: flush the log but never SaveAll, so the snapshot on disk
	// stays the roster-free spec written at segment creation.
	p.Close()
	snap, err := ReadSnapshotFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatalf("spec snapshot missing: %v", err)
	}
	if len(snap.Sellers) != 0 || snap.Market != nil {
		t.Fatalf("spec snapshot should be roster-free, got %d sellers", len(snap.Sellers))
	}

	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("spec")
	if err != nil {
		t.Fatal(err)
	}
	info := m2.Info()
	if info.Durability != string(DurSync) || info.Solver != "meanfield" || info.Seed != seed {
		t.Fatalf("restored spec = solver %q seed %d durability %q, want meanfield/%d/sync",
			info.Solver, info.Seed, info.Durability, seed)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatalf("replayed state differs from pre-crash state\n got: %s\nwant: %s", got, want)
	}
}

// TestCloseSealsPoolAgainstStragglers pins the shutdown-ordering fix: Close
// is terminal. A trade, registration or market creation racing in after
// Close must fail with ErrDraining — before the fix the straggler reopened
// the just-closed segment, truncated the acknowledged history as "orphaned",
// and the market failed to restore on the next boot.
func TestCloseSealsPoolAgainstStragglers(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "seal"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatalf("trade: %v", err)
	}
	want := canonicalState(t, m)
	p.Close()

	// Every mutation after Close is refused — none may touch the segment.
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("straggler trade after Close = %v, want ErrDraining", err)
	}
	if _, err := m.RegisterSeller(Registration{ID: "late", Lambda: 0.5, SyntheticRows: 10}); !errors.Is(err, ErrDraining) {
		t.Fatalf("straggler registration after Close = %v, want ErrDraining", err)
	}
	if _, err := p.Create(Spec{ID: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Create after Close = %v, want ErrDraining", err)
	}

	// The acknowledged history survives intact into the next boot.
	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatalf("RestoreAll after sealed shutdown: %v", err)
	}
	m2, err := p2.Get("seal")
	if err != nil {
		t.Fatalf("market lost across sealed shutdown: %v", err)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatalf("restored state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestAsyncCloseFlushesTail: with async durability the acknowledgment
// races ahead of the fsync — Close must still flush the buffered tail, so
// every acknowledged trade survives an orderly shutdown (crash-loss is
// async's documented trade-off; shutdown-loss is not).
func TestAsyncCloseFlushesTail(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "tail", Durability: string(DurAsync)})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	const trades = 3
	for i := 0; i < trades; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(80+10*float64(i), 0.8), nil, nil); err != nil {
			t.Fatalf("trade %d: %v", i, err)
		}
	}
	want := canonicalState(t, m)
	p.Close()

	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	m2, err := p2.Get("tail")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m2.View().Trades); got != trades {
		t.Fatalf("restored ledger = %d trades, want %d (async tail dropped on Close)", got, trades)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatalf("restored state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestReplayRejectsBadJoinData: a seller_join record replays through the
// same data checks a live join gets. A crafted record with no rows, or
// with rows narrower or wider than the market's test set, used to restore
// cleanly and then panic or fail every later trade. Now the market does
// not restore: damaged rows skip it with a warning naming the record, and
// rows of the wrong width fail RestoreAll with an error naming it.
func TestReplayRejectsBadJoinData(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows    [][]float64
		targets []float64
		fails   bool // RestoreAll returns the error rather than skipping
	}{
		{"no rows", nil, nil, false},
		{"3-feature rows", [][]float64{{1, 2, 3}, {4, 5, 6}}, []float64{1, 2}, true},
		{"6-feature rows", [][]float64{{1, 2, 3, 4, 5, 6}}, []float64{1}, true},
		{"ragged rows", [][]float64{{1, 2, 3, 4}, {5, 6, 7}}, []float64{1, 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := New(fastWalOptions(dir))
			m, err := p.Create(Spec{ID: "joins"})
			if err != nil {
				t.Fatal(err)
			}
			register(t, m, 2)
			if _, err := m.Trade(context.Background(), demoBuyer(60, 0.8), nil, nil); err != nil {
				t.Fatal(err)
			}
			p.Close()

			// Records 1–3 are the two registrations and the trade; the
			// crafted join is record 4, at the roster's next epoch.
			l, err := wal.Open(filepath.Join(dir, "joins"+walExt), wal.Options{Replay: func(*wal.Record) error { return nil }})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = l.Append(recordJoin, joinRecord{
				Seller: StoredSeller{ID: "crafted", Lambda: 0.5, Rows: tc.rows, Targets: tc.targets},
				Weight: 0.5,
				Epoch:  3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			var warnings []string
			opts := fastWalOptions(dir)
			opts.Logf = func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
			p2 := New(opts)
			defer p2.Close()
			ids, err := p2.RestoreAll()
			if (err != nil) != tc.fails {
				t.Fatalf("RestoreAll error %v, want one: %v", err, tc.fails)
			}
			if len(ids) != 0 {
				t.Fatalf("restored %v from a log whose join carries bad data", ids)
			}
			if _, err := p2.Get("joins"); err == nil {
				t.Fatal("the rejected market stayed in the pool")
			}
			reports := warnings
			if err != nil {
				reports = []string{err.Error()}
			}
			named := false
			for _, w := range reports {
				named = named || (strings.Contains(w, "join record 4") && strings.Contains(w, `seller "crafted"`))
			}
			if !named {
				t.Fatalf("nothing names the bad join record: %q", reports)
			}
		})
	}
}

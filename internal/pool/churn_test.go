package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"share/internal/wal"
)

// Roster-churn persistence and isolation tests: the WAL torture sweep
// extended over seller_join / seller_leave frames, the checkpoint
// round-trip of a churned market, and the churn-vs-quote isolation test
// that `make race` runs under the race detector.

// churnHistory drives one market through a history exercising every roster
// record kind: pre-trade registrations, a pre-trade removal, trades,
// mid-life joins and mid-life leaves. It returns the canonical state after
// each WAL record, index 0 being the empty market.
func churnHistory(t *testing.T, m *Market) []string {
	t.Helper()
	states := []string{canonicalState(t, m)}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, canonicalState(t, m))
	}
	reg := func(id string, lambda float64) {
		t.Helper()
		_, err := m.RegisterSeller(Registration{ID: id, Lambda: lambda, SyntheticRows: 40})
		step(err)
	}
	trade := func(n float64) {
		t.Helper()
		_, err := m.Trade(context.Background(), demoBuyer(n, 0.8), nil, nil)
		step(err)
	}
	reg("s01", 0.3)
	reg("s02", 0.4)
	reg("s03", 0.5)
	step(m.RemoveSeller("s02")) // pre-trade leave
	trade(80)
	trade(90)
	reg("j01", 0.45) // mid-life join
	trade(100)
	step(m.RemoveSeller("s01")) // mid-life leave
	reg("j02", 0.35)
	trade(110)
	return states
}

// TestWALTortureRecoveryChurn runs the crash-recovery torture sweep over a
// history whose log holds every record kind — register, pre-trade and
// mid-life seller_leave, mid-life seller_join, trade — truncating the
// segment at record boundaries, off-by-one and mid-record cuts, and
// asserting that replay restores exactly the longest committed prefix,
// roster epoch included.
func TestWALTortureRecoveryChurn(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	p := New(opts)
	m, err := p.Create(Spec{ID: "churn"})
	if err != nil {
		t.Fatal(err)
	}
	states := churnHistory(t, m)
	p.Close()

	walPath := filepath.Join(dir, "churn"+walExt)
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
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "churn"+walExt), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		p2 := New(fastWalOptions(sub))
		restored, err := p2.RestoreAll()
		if err != nil {
			t.Fatalf("cut %d: RestoreAll: %v", cut, err)
		}
		if len(restored) != 1 || restored[0] != "churn" {
			t.Fatalf("cut %d: restored %v, want [churn]", cut, restored)
		}
		m2, err := p2.Get("churn")
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

// TestChurnSurvivesCheckpoint pins the snapshot side of roster churn: after
// mid-life joins and leaves, SaveAll folds the whole history — roster epoch
// included — into the snapshot and truncates the log, and the rebooted
// market resumes at the same epoch, keeps trading, and keeps churning.
func TestChurnSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	churnHistory(t, m)
	want := canonicalState(t, m)
	wantEpoch := m.Info().RosterEpoch
	if wantEpoch == 0 {
		t.Fatal("churned market reports roster epoch 0")
	}
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// The checkpoint folded everything into the snapshot: replay must not
	// be needed, so an (empty) segment plus the snapshot is the whole truth.
	snap, err := ReadSnapshotFile(filepath.Join(dir, "ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.RosterEpoch != wantEpoch {
		t.Fatalf("snapshot roster epoch = %d, want %d", snap.RosterEpoch, wantEpoch)
	}

	p2 := New(fastWalOptions(dir))
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	m2, err := p2.Get("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, m2); got != want {
		t.Fatalf("restored state diverges\n got: %.200s\nwant: %.200s", got, want)
	}
	if got := m2.Info().RosterEpoch; got != wantEpoch {
		t.Fatalf("restored roster epoch = %d, want %d", got, wantEpoch)
	}
	// The restored market is live: it trades and churns, and both advance
	// the epoch from where the snapshot left off.
	if _, err := m2.Trade(context.Background(), demoBuyer(120, 0.8), nil, nil); err != nil {
		t.Fatalf("trade after restore: %v", err)
	}
	if _, err := m2.RegisterSeller(Registration{ID: "j03", Lambda: 0.5, SyntheticRows: 40}); err != nil {
		t.Fatalf("join after restore: %v", err)
	}
	if err := m2.RemoveSeller("j03"); err != nil {
		t.Fatalf("leave after restore: %v", err)
	}
	if got := m2.Info().RosterEpoch; got != wantEpoch+2 {
		t.Fatalf("post-restore churn advanced epoch to %d, want %d", got, wantEpoch+2)
	}
	p2.Close()
}

// TestChurnReplayRejectsSplicedHistory: a join record replayed onto a
// roster history it does not extend (its epoch does not follow) must not
// silently re-number the history — the boot skips the spliced market with a
// logged roster-epoch complaint instead of serving a roster the log never
// described.
func TestChurnReplayRejectsSplicedHistory(t *testing.T) {
	dir := t.TempDir()
	p := New(fastWalOptions(dir))
	m, err := p.Create(Spec{ID: "splice"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 2)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterSeller(Registration{ID: "j01", Lambda: 0.4, SyntheticRows: 40}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Rewrite the segment through the wal package itself, skewing only the
	// join record's epoch, so every frame stays structurally intact and the
	// rejection can only come from the roster-history check.
	walPath := filepath.Join(dir, "splice"+walExt)
	var recs []*wal.Record
	if _, _, err := wal.Scan(walPath, func(r *wal.Record, _ int64) error {
		cp := *r
		cp.Data = append([]byte(nil), r.Data...)
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(walPath, wal.Options{Mode: wal.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == recordJoin {
			// Skew the epoch so the join no longer extends the history.
			var jr joinRecord
			if err := json.Unmarshal(r.Data, &jr); err != nil {
				t.Fatal(err)
			}
			jr.Epoch += 7
			if _, _, err := l.Append(r.Kind, jr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, _, err := l.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	var mu sync.Mutex
	opts := fastWalOptions(dir)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	p2 := New(opts)
	restored, err := p2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("spliced market restored as %v, want it skipped", restored)
	}
	if _, err := p2.Get("splice"); !errors.Is(err, ErrMarketNotFound) {
		t.Fatalf("Get(splice) after spliced boot = %v, want ErrMarketNotFound", err)
	}
	mu.Lock()
	warned := false
	for _, w := range warnings {
		if strings.Contains(w, "epoch") {
			warned = true
		}
	}
	mu.Unlock()
	if !warned {
		t.Fatalf("no epoch complaint in boot warnings %q", warnings)
	}
	p2.Close()
}

// TestChurnQuoteIsolation is the churn-vs-quote race test (`make race` runs
// it under the race detector): while sellers join and leave continuously,
// concurrent quotes, view reads and a live subscriber must always observe a
// consistent roster — matching seller/weight lengths, positive prices —
// because churn swaps the view copy-on-write and never mutates a published
// one.
func TestChurnQuoteIsolation(t *testing.T) {
	p := New(quietOptions())
	defer p.Close()
	m, err := p.Create(Spec{ID: "iso"})
	if err != nil {
		t.Fatal(err)
	}
	register(t, m, 3)
	if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}

	const cycles = 40
	ch, cancel := m.Subscribe(4) // deliberately small: drops must stay safe
	defer cancel()
	done := make(chan struct{})
	var consumed int
	go func() {
		defer close(done)
		for range ch {
			consumed++
		}
	}()

	var churners, loopers sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	// Churner: join then leave, forever advancing the epoch.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; i < cycles; i++ {
			id := fmt.Sprintf("churn-%d", i)
			if _, err := m.RegisterSeller(Registration{ID: id, Lambda: 0.4, SyntheticRows: 40}); err != nil {
				errs <- fmt.Errorf("join %s: %w", id, err)
				return
			}
			if err := m.RemoveSeller(id); err != nil {
				errs <- fmt.Errorf("leave %s: %w", id, err)
				return
			}
		}
	}()
	// Quoters: every quote must solve against some consistent roster.
	for q := 0; q < 2; q++ {
		loopers.Add(1)
		go func() {
			defer loopers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prof, _, err := m.Quote(context.Background(), demoBuyer(100, 0.8), "")
				if err != nil {
					errs <- fmt.Errorf("quote during churn: %w", err)
					return
				}
				if !(prof.PM > 0) || !(prof.PD > 0) {
					errs <- fmt.Errorf("quote during churn priced PM=%g PD=%g", prof.PM, prof.PD)
					return
				}
			}
		}()
	}
	// View reader: a published view is internally consistent, always.
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := m.View()
			if len(v.Sellers) != len(v.Weights) {
				errs <- fmt.Errorf("view holds %d sellers but %d weights", len(v.Sellers), len(v.Weights))
				return
			}
		}
	}()

	churners.Wait()
	close(stop)
	loopers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cancel()
	<-done
	if consumed == 0 {
		t.Fatal("subscriber saw no churn events")
	}
	if got, want := m.Info().RosterEpoch, uint64(3+2*cycles); got != want {
		t.Fatalf("roster epoch after churn = %d, want %d", got, want)
	}
}

package pool

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// compactHistory runs generated mutations — trades, mid-life joins, leaves
// and budget top-ups — on market "amp" of a pool persisting into dir with
// its compaction floor lowered to floor. After each mutation count listed
// in at it reports the total snapshot bytes written and the total log bytes
// appended so far, the spec snapshot and registrations included; it also
// returns the largest ratio of one compaction's snapshot to the log bytes
// appended since the previous one. After every compaction, and at random
// cuts, it closes the pool, restores a new one from dir and requires the
// restored market's canonical state to equal the live one; the history
// then continues on the restored market. Every mutation must compact
// exactly when the segment, with its new record, reaches max(floor, the
// snapshot file's size).
func compactHistory(t *testing.T, dir string, floor int64, at []int, rng *rand.Rand) (snap, log []int64, maxAmp float64) {
	t.Helper()
	var snapTotal, logTotal, logSince int64
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 1e15
	var p *Pool
	var m *Market
	open := func() {
		t.Helper()
		p = New(opts)
		p.compactFloor = floor
		if _, err := p.RestoreAll(); err != nil {
			t.Fatal(err)
		}
		var err error
		if m, err = p.Get("amp"); err != nil {
			if m, err = p.Create(Spec{ID: "amp"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reboot := func(why string) {
		t.Helper()
		want := canonicalState(t, m)
		p.Close()
		open()
		if got := canonicalState(t, m); got != want {
			t.Fatalf("%s: restored state diverges\n got: %.300s\nwant: %.300s", why, got, want)
		}
	}
	open()
	defer func() { p.Close() }()
	register(t, m, 3)
	for _, s := range []string{"amp" + snapshotExt, "amp" + walExt} {
		fi, err := os.Stat(filepath.Join(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		if s == "amp"+snapshotExt {
			snapTotal += fi.Size() // the spec snapshot
		} else {
			logTotal += fi.Size()
			logSince += fi.Size()
		}
	}
	joined := 0
	for i := 0; i < at[len(at)-1]; i++ {
		var size0 int64
		if m.log != nil {
			size0 = m.log.Size()
		}
		threshold := max(p.compactFloor, m.snapBytes)
		bytes0 := p.walMet.Bytes.Value()
		var err error
		switch r := rng.Intn(10); {
		case r == 0:
			joined++
			_, err = m.RegisterSeller(Registration{ID: fmt.Sprintf("j%03d", joined), Lambda: 0.2 + 0.6*rng.Float64(), SyntheticRows: 20 + rng.Intn(40)})
		case r == 1 && len(m.View().Sellers) > 2:
			sel := m.View().Sellers
			err = m.RemoveSeller(sel[rng.Intn(len(sel))].ID)
		case r == 2:
			sel := m.View().Sellers
			_, err = m.TopUpBudget(sel[rng.Intn(len(sel))].ID, 0.5+rng.Float64())
		default:
			_, err = m.Trade(context.Background(), demoBuyer(60+float64(rng.Intn(60)), 0.8), nil, nil)
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		appended := int64(p.walMet.Bytes.Value() - bytes0)
		logTotal += appended
		logSince += appended
		compacted := m.log.Records() == 0
		if want := size0+appended >= threshold; compacted != want {
			t.Fatalf("mutation %d: segment of %d B + %d B against a %d B threshold: compacted %v, want %v",
				i, size0, appended, threshold, compacted, want)
		}
		cut := rng.Intn(25) == 0
		switch {
		case compacted:
			snapTotal += m.snapBytes
			maxAmp = max(maxAmp, float64(m.snapBytes)/float64(logSince))
			logSince = 0
			reboot(fmt.Sprintf("reboot after the compaction at mutation %d", i))
		case cut:
			reboot(fmt.Sprintf("reboot at mutation %d", i))
		}
		if i+1 == at[len(snap)] {
			snap, log = append(snap, snapTotal), append(log, logTotal)
		}
	}
	return snap, log, maxAmp
}

// TestCompactionOutputBoundedByLog: a segment compacts once it is as large
// as the market's snapshot file (and the floor), so each compaction writes
// at most about twice what the log gained since the previous one, however
// long the history. Over a generated history the total snapshot output
// stays within 3× the total log bytes at N mutations and at 4N. The ratio
// itself swings between about 1× (just before a compaction) and 2× (just
// after), so what must not grow is its bound: no compaction writes more
// than 2.25× the log bytes since the previous one. Compacting every 256
// records or 4 MiB instead re-encoded the whole ledger each time, so the
// output grew with the square of the history: this history, with that
// rule's byte limit lowered to the same 8 KiB, wrote 11.0× its log bytes
// at N and 43.6× at 4N, up to 105× the log bytes since the previous
// compaction.
func TestCompactionOutputBoundedByLog(t *testing.T) {
	const n, floor = 100, 8 << 10
	snap, log, maxAmp := compactHistory(t, t.TempDir(), floor, []int{n, 4 * n}, rand.New(rand.NewSource(5)))
	rN, r4N := float64(snap[0])/float64(log[0]), float64(snap[1])/float64(log[1])
	t.Logf("N=%d: %d B of snapshots for %d B of log (%.2f×); 4N: %d B for %d B (%.2f×); largest compaction %.2f× the log since the previous one",
		n, snap[0], log[0], rN, snap[1], log[1], r4N, maxAmp)
	if rN > 3 || r4N > 3 {
		t.Errorf("snapshot output is %.2f× the log at N and %.2f× at 4N, want at most 3×", rN, r4N)
	}
	if maxAmp > 2.25 {
		t.Errorf("a compaction wrote %.2f× the log bytes appended since the previous one, want at most 2.25×", maxAmp)
	}
}

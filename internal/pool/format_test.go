package pool

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"share/internal/wal"
)

// updateFormats rewrites the recorded history formats. The files pin the
// bytes the in-memory ledger's encoder wrote, so rewrite them only from a
// build that kept the ledger in memory.
var updateFormats = flag.Bool("update-formats", false, "rewrite testdata/history_format (from an in-memory-ledger build only)")

// wallClock matches the wall-clock Timings of a transaction, the one part
// of a record two runs of one script write differently.
var wallClock = regexp.MustCompile(`"Timings":\{[^{}]*\}`)

// TestHistoryFormatsMatchRecorded: a scripted budgeted, discounting history
// — registrations, trades, two compactions, top-ups, a mid-life join and a
// leave — writes the WAL records, the compaction snapshots and, after a
// reboot from the log, the SaveAll snapshot recorded in
// testdata/history_format, byte for byte except wall-clock Timings. The
// recorded files were written by the build that kept every committed
// transaction in memory and encoded its ledger whole, so the snapshots a
// market now streams from its WAL frames and earlier snapshots — copied
// verbatim when this process wrote them, decoded and encoded again when it
// read them at restore — are the bytes that encoder wrote.
func TestHistoryFormatsMatchRecorded(t *testing.T) {
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	opts.EpsilonBudget = 50
	opts.DiscountFactor, opts.DiscountThreshold = 0.5, 0.1
	p := New(opts)
	m, err := p.Create(Spec{ID: "fmt", Durability: string(DurAsync)})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	ctx := context.Background()
	trade := func(n float64) {
		t.Helper()
		if _, err := m.Trade(ctx, demoBuyer(n, 0.8), nil, nil); err != nil {
			t.Fatalf("trade at N=%g: %v", n, err)
		}
	}
	snapshot := func(name string) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "fmt"+snapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = raw
	}
	register(t, m, 4)
	for i := 0; i < 3; i++ {
		trade(80 + 10*float64(i))
	}
	compactNow(t, m) // the ledger streams from WAL frames
	snapshot("compacted-1.json")
	trade(95)
	if _, err := m.TopUpBudget("s01", 2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterSeller(Registration{ID: "s05", Lambda: 0.55, SyntheticRows: 60}); err != nil {
		t.Fatal(err)
	}
	trade(105)
	compactNow(t, m) // from the previous snapshot and WAL frames
	snapshot("compacted-2.json")
	if err := m.RemoveSeller("s02"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopUpBudget("s03", 1); err != nil {
		t.Fatal(err)
	}
	trade(110)
	trade(120)
	p.Close() // no SaveAll: the next pool replays the log

	var records bytes.Buffer
	if _, _, err := wal.Scan(filepath.Join(dir, "fmt"+walExt), func(rec *wal.Record, _ int64) error {
		fmt.Fprintf(&records, "%d %s %s\n", rec.Seq, rec.Kind, rec.Data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got["records.txt"] = records.Bytes()

	p2 := New(opts)
	if _, err := p2.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	if err := p2.SaveAll(); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	snapshot("saved.json")

	for _, name := range []string{"records.txt", "compacted-1.json", "compacted-2.json", "saved.json"} {
		path := filepath.Join("testdata/history_format", name)
		out := wallClock.ReplaceAll(got[name], []byte(`"Timings":{}`))
		if *updateFormats {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			i := 0
			for i < len(out) && i < len(want) && out[i] == want[i] {
				i++
			}
			t.Errorf("%s differs from the recorded bytes at byte %d of %d (recorded %d)\n got: %.200s\nwant: %.200s",
				name, i, len(out), len(want), out[max(0, i-40):], want[max(0, i-40):])
		}
	}
	// Each snapshot decodes as a snapshot: the JSON holds together.
	for _, name := range []string{"compacted-1.json", "compacted-2.json", "saved.json"} {
		var snap MarketSnapshot
		if err := json.Unmarshal(got[name], &snap); err != nil || snap.Market == nil {
			t.Errorf("%s: %v (market %v)", name, err, snap.Market != nil)
		}
	}
}

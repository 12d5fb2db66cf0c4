package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"share/internal/obs"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func openT(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendCommit(t *testing.T, l *Log, kind string, v any) uint64 {
	t.Helper()
	seq, err := l.Append(kind, v)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatalf("Commit(%d): %v", seq, err)
	}
	return seq
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeGroup, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seg.wal")
			l := openT(t, path, Options{Mode: mode})
			for i := 1; i <= 5; i++ {
				seq := appendCommit(t, l, "p", payload{N: i, S: "x"})
				if seq != uint64(i) {
					t.Fatalf("seq = %d, want %d", seq, i)
				}
			}
			if got := l.Records(); got != 5 {
				t.Fatalf("Records = %d, want 5", got)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			var replayed []payload
			l2 := openT(t, path, Options{Replay: func(rec *Record) error {
				if rec.Kind != "p" {
					return fmt.Errorf("kind %q", rec.Kind)
				}
				var p payload
				if err := json.Unmarshal(rec.Data, &p); err != nil {
					return err
				}
				replayed = append(replayed, p)
				return nil
			}})
			if len(replayed) != 5 {
				t.Fatalf("replayed %d records, want 5", len(replayed))
			}
			for i, p := range replayed {
				if p.N != i+1 || p.S != "x" {
					t.Fatalf("record %d = %+v", i, p)
				}
			}
			if got := l2.LastSeq(); got != 5 {
				t.Fatalf("LastSeq = %d, want 5", got)
			}
		})
	}
}

func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	l := openT(t, ref, Options{Mode: ModeSync})
	for i := 1; i <= 4; i++ {
		appendCommit(t, l, "p", payload{N: i})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	if _, _, err := Scan(ref, func(_ *Record, end int64) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(ends) != 4 {
		t.Fatalf("found %d records, want 4", len(ends))
	}

	for cut := int64(0); cut <= int64(len(raw)); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got int
		l2, err := Open(path, Options{Replay: func(*Record) error {
			got++
			return nil
		}, Mode: ModeSync})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		if got != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, want)
		}
		// The torn bytes must be gone: appending after recovery yields a
		// log whose records are the clean prefix plus the new record.
		if _, err := l2.Append("p", payload{N: 99}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		got = 0
		if _, _, err := Scan(path, func(*Record, int64) error { got++; return nil }); err != nil {
			t.Fatalf("cut %d: rescan: %v", cut, err)
		}
		if got != want+1 {
			t.Fatalf("cut %d: %d records after append, want %d", cut, got, want+1)
		}
	}
}

func TestCorruptPayloadEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeSync})
	appendCommit(t, l, "p", payload{N: 1})
	appendCommit(t, l, "p", payload{N: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload: CRC fails, the first
	// record still replays.
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got int
	l2 := openT(t, path, Options{Replay: func(*Record) error { got++; return nil }})
	defer l2.Close()
	if got != 1 {
		t.Fatalf("replayed %d records, want 1", got)
	}
}

func TestResetAndMinSeqFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeGroup})
	for i := 0; i < 3; i++ {
		appendCommit(t, l, "p", payload{N: i})
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Records() != 0 || l.Size() != 0 {
		t.Fatalf("after Reset: records=%d size=%d", l.Records(), l.Size())
	}
	// Sequence numbers keep climbing across the reset.
	if seq := appendCommit(t, l, "p", payload{N: 9}); seq != 4 {
		t.Fatalf("post-reset seq = %d, want 4", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening with the snapshot's watermark floors the next sequence
	// number even when the file holds fewer records than the floor.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, path, Options{MinSeq: 41})
	if seq := appendCommit(t, l2, "p", payload{N: 1}); seq != 42 {
		t.Fatalf("floored seq = %d, want 42", seq)
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	reg := obs.NewRegistry()
	met := Metrics{
		Fsync:    reg.Endpoint("wal/fsync"),
		Fsyncs:   reg.Counter("wal/fsyncs"),
		Records:  reg.Counter("wal/records"),
		Bytes:    reg.Counter("wal/bytes"),
		BatchMax: reg.Gauge("wal/batch_max"),
	}
	l := openT(t, path, Options{Mode: ModeGroup, Metrics: met})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append("p", payload{N: w*per + i})
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append/commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, _, err := Scan(path, func(*Record, int64) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != workers*per {
		t.Fatalf("recovered %d records, want %d", got, workers*per)
	}
	snap := reg.Snapshot()
	if snap.Counters["wal/records"] != workers*per {
		t.Fatalf("wal/records = %d, want %d", snap.Counters["wal/records"], workers*per)
	}
	if snap.Counters["wal/bytes"] == 0 {
		t.Fatal("wal/bytes not reported")
	}
	if snap.Gauges["wal/batch_max"] < 1 {
		t.Fatalf("wal/batch_max = %d, want >= 1", snap.Gauges["wal/batch_max"])
	}
	if snap.Counters["wal/fsyncs"] == 0 {
		t.Fatal("no fsyncs observed")
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append("p", payload{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Reset(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close = %v, want ErrClosed", err)
	}
}

func TestReplayErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeSync})
	appendCommit(t, l, "p", payload{N: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := Open(path, Options{Replay: func(*Record) error { return boom }})
	if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want %v and not ErrCorrupt", err, boom)
	}
}

func TestUnsyncedAsyncRecordsFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeAsync})
	for i := 0; i < 10; i++ {
		seq, err := l.Append("p", payload{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, _, err := Scan(path, func(*Record, int64) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("recovered %d records, want 10", got)
	}
}

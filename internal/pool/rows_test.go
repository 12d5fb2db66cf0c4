package pool

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"share/internal/wal"
)

// wantSellerPayloadDigests holds the SHA-256 of every register and
// seller_join WAL payload of scriptSellerBytes, in log order, recorded
// before seller datasets moved to one row-major block.
var wantSellerPayloadDigests = []string{
	"8cf87c049869c27ea9be67445299113c01745339f9d3ff0cdd167306a54a5acf",
	"314bdff29eb7644907b65dbdffd982240ff6f3a17371c623d8b05e058d0fad27",
	"c44e8a55b0e3c6f226ca611509bd2136f4cfc9eefefbbb9c805016b0e0c364b1",
	"9c8abb6e1866f6ffffec5416e0efdc5ece011e34f5956ceeffefb29e919dc846",
	"d779c2a7fdb4b6112f67be2cf31e640d974429b2f7ece4a519bd9c4d3535358d",
	"98f7a132aed0d7a1d906d70fe810a1b47fb6e00519400d7cdce4ac2640af913d",
}

// wantSnapshotSellersDigest is the SHA-256 of the compaction snapshot's
// "sellers" array for the same script, recorded alongside the payloads.
const wantSnapshotSellersDigest = "6e6b462a05c4045ad392ab6e8c1f3efa8eb0169ed46d8f5f643a46bf5d3167db"

// scriptSellerBytes drives one market through every path that persists
// seller rows: synthetic and inline registrations, a trade, synthetic and
// inline mid-life joins, and a second trade, after whose record (the 8th:
// 4 registrations, trade, 2 joins, trade) the market compacts. It returns
// the register/join payload digests read back from the log before the
// compaction, and the digest of the compaction snapshot's sellers array.
func scriptSellerBytes(t *testing.T) ([]string, string) {
	t.Helper()
	dir := t.TempDir()
	opts := fastWalOptions(dir)
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "bytes"})
	if err != nil {
		t.Fatal(err)
	}
	inline := func(id string, scale float64) Registration {
		reg := Registration{ID: id, Lambda: 0.45}
		for i := 0; i < 9; i++ {
			f := float64(i) * scale
			reg.Rows = append(reg.Rows, []float64{20 + f, 50 - f/3, 1013.25 + f*1e-7, 73 + f/7})
			reg.Targets = append(reg.Targets, 450-f*1.5)
		}
		return reg
	}
	for _, reg := range []Registration{
		{ID: "syn-a", Lambda: 0.3, SyntheticRows: 40},
		inline("inl-a", 0.1),
		{ID: "syn-b", Lambda: 0.6, SyntheticRows: 25},
		inline("inl-b", 1.0/3),
	} {
		if _, err := m.RegisterSeller(reg); err != nil {
			t.Fatalf("registering %s: %v", reg.ID, err)
		}
	}
	if _, err := m.Trade(context.Background(), demoBuyer(60, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, reg := range []Registration{
		{ID: "syn-c", Lambda: 0.5, SyntheticRows: 30},
		inline("inl-c", 2.5e-3),
	} {
		if _, err := m.RegisterSeller(reg); err != nil {
			t.Fatalf("joining %s: %v", reg.ID, err)
		}
	}
	var payloads []string
	_, _, err = wal.Scan(filepath.Join(dir, "bytes"+walExt), func(rec *wal.Record, _ int64) error {
		if rec.Kind == recordRegister || rec.Kind == recordJoin {
			sum := sha256.Sum256(rec.Data)
			payloads = append(payloads, hex.EncodeToString(sum[:]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Trade(context.Background(), demoBuyer(60, 0.8), nil, nil); err != nil {
		t.Fatal(err)
	}
	compactNow(t, m)
	raw, err := os.ReadFile(filepath.Join(dir, "bytes"+snapshotExt))
	if err != nil {
		t.Fatalf("reading compaction snapshot: %v", err)
	}
	var snap struct {
		Sellers json.RawMessage `json:"sellers"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Sellers)
	return payloads, hex.EncodeToString(sum[:])
}

// TestSellerBytesOnDiskMatchParent pins the bytes seller rows take on disk:
// the register and join records and the compaction snapshot's roster must
// encode exactly as they did when datasets held one slice per row, so logs
// and snapshots written by either layout restore under the other.
func TestSellerBytesOnDiskMatchParent(t *testing.T) {
	payloads, sellers := scriptSellerBytes(t)
	if fmt.Sprint(payloads) != fmt.Sprint(wantSellerPayloadDigests) {
		t.Errorf("register/join payload digests\n got %q\nwant %q", payloads, wantSellerPayloadDigests)
	}
	if sellers != wantSnapshotSellersDigest {
		t.Errorf("snapshot sellers digest %s, want %s", sellers, wantSnapshotSellersDigest)
	}
}

// TestRestoreRefusesRowsOfTheWrongWidth: releases before the width check
// admitted inline seller rows narrower than the test set, so their logs and
// snapshots can hold them. Restoring such a market must fail with an error
// naming the market, the record and the seller — not skip the market, whose
// files its next write would overwrite — and leave the files byte for byte
// as they were, while every other market still restores.
func TestRestoreRefusesRowsOfTheWrongWidth(t *testing.T) {
	narrow := make([]StoredSeller, 3)
	for i := range narrow {
		narrow[i] = StoredSeller{
			ID:      fmt.Sprintf("s%02d", i+1),
			Lambda:  0.3 + 0.1*float64(i),
			Rows:    [][]float64{{1, 2}, {3, 4 + float64(i)}, {5, 6}},
			Targets: []float64{1, 2, 3},
		}
	}
	for _, tc := range []struct {
		name      string
		precreate bool // the server creates its default market before restoring
		snapshot  bool // the sellers sit in a snapshot rather than the log
		want      string
	}{
		{"log", false, false, `register record 1: seller "s01": rows have 2 features, the market's test set has 4`},
		{"log into a pre-created market", true, false, `register record 1: seller "s01": rows have 2 features`},
		{"snapshot", false, true, `snapshot seller "s01": rows have 2 features, the market's test set has 4`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := New(fastWalOptions(dir))
			ok, err := p.Create(Spec{ID: "ok"})
			if err != nil {
				t.Fatal(err)
			}
			register(t, ok, 2)
			p.Close()

			if tc.snapshot {
				snap := &MarketSnapshot{Version: snapshotVersion, ID: "legacy", Sellers: narrow}
				if _, err := writeSnapshotFile(filepath.Join(dir, "legacy"+snapshotExt), snap); err != nil {
					t.Fatal(err)
				}
			} else {
				l, err := wal.Open(filepath.Join(dir, "legacy"+walExt), wal.Options{Mode: wal.ModeSync})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range narrow {
					if _, _, err := l.Append(recordRegister, st); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := readDir(t, dir)

			p2 := New(fastWalOptions(dir))
			defer p2.Close()
			if tc.precreate {
				if _, err := p2.Create(Spec{ID: "legacy"}); err != nil {
					t.Fatal(err)
				}
			}
			ids, err := p2.RestoreAll()
			if err == nil {
				t.Fatalf("restored %v from a market whose sellers have 2-feature rows", ids)
			}
			for _, s := range []string{`market "legacy"`, tc.want, "move its legacy.json and legacy.wal files out of"} {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not contain %q", err, s)
				}
			}
			if len(ids) != 1 || ids[0] != "ok" {
				t.Errorf("restored %v, want [ok]", ids)
			}
			if _, err := p2.Get("legacy"); err == nil && !tc.precreate {
				t.Error("the refused market stayed in the pool")
			}
			p2.Close()
			after := readDir(t, dir)
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Errorf("%s changed on disk during the refused restore", name)
				}
			}
		})
	}
}

// readDir returns every regular file under dir, by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

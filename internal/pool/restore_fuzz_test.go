package pool

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"share/internal/core"
	"share/internal/wal"
)

// restoreWatchdog bounds how long a restored market may take to answer a
// quote or a trade. A healthy answer takes milliseconds.
const restoreWatchdog = 10 * time.Second

// withinWatchdog runs fn and fails the test if it has not returned within
// restoreWatchdog. A hung fn keeps its goroutine; the test stops waiting.
func withinWatchdog(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(restoreWatchdog):
		t.Fatalf("%s did not return within %v", what, restoreWatchdog)
	}
}

// tradedSnapshot returns the SaveAll snapshot of a 3-seller market after
// two trades. The sellers hold few rows and the market commits
// asynchronously, so a fuzzer mutating the file runs many inputs a second.
func tradedSnapshot(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	opts := quietOptions()
	opts.SnapshotDir = dir
	p := New(opts)
	defer p.Close()
	m, err := p.Create(Spec{ID: "m", Durability: "async"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.RegisterSeller(Registration{ID: fmt.Sprintf("s%d", i+1), Lambda: 0.3 + 0.1*float64(i), SyntheticRows: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil); err != nil {
			t.Fatalf("trade %d: %v", i+1, err)
		}
	}
	if err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "m"+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// withWeight returns snapshot raw with the market's weight i set to w.
func withWeight(t *testing.T, raw []byte, i int, w float64) []byte {
	t.Helper()
	var snap MarketSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Market.Weights[i] = w
	out, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreFrom restores a fresh pool from one market snapshot file holding
// raw and returns the pool with the IDs it restored.
func restoreFrom(t *testing.T, raw []byte) (*Pool, []string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m"+snapshotExt), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := quietOptions()
	opts.SnapshotDir = dir
	opts.Durability = "async"
	p := New(opts)
	ids, _ := p.RestoreAll()
	return p, ids
}

// TestRestoredNonFiniteWeightsRefuseQuotesAndTrades: a snapshot whose
// weight is finite but huge (1e308) restores, but its equilibrium is not
// finite, so a quote and a trade each return an error at once instead of
// serving +Inf or spinning in the piece allocation.
func TestRestoredNonFiniteWeightsRefuseQuotesAndTrades(t *testing.T) {
	p, ids := restoreFrom(t, withWeight(t, tradedSnapshot(t), 2, 1e308))
	if len(ids) != 1 {
		t.Fatalf("restored %v, want [m]", ids)
	}
	m, err := p.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	var quoteErr, tradeErr error
	withinWatchdog(t, "quote", func() {
		_, _, quoteErr = m.Quote(context.Background(), demoBuyer(90, 0.8), "")
	})
	if !errors.Is(quoteErr, core.ErrNotFinite) {
		t.Errorf("quote error %v, want core.ErrNotFinite", quoteErr)
	}
	withinWatchdog(t, "trade", func() {
		_, tradeErr = m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
	})
	if !errors.Is(tradeErr, core.ErrNotFinite) {
		t.Errorf("trade error %v, want core.ErrNotFinite", tradeErr)
	}
	p.Close()
}

// quoteAndTrade requires every market p restored to answer a quote and then
// a trade, with a result or an error, within restoreWatchdog, then closes
// p. A hung call leaves p open: Close waits for in-flight trades.
func quoteAndTrade(t *testing.T, p *Pool, ids []string) {
	t.Helper()
	for _, id := range ids {
		m, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		withinWatchdog(t, "quote", func() {
			_, _, _ = m.Quote(context.Background(), demoBuyer(90, 0.8), "")
		})
		withinWatchdog(t, "trade", func() {
			_, _ = m.Trade(context.Background(), demoBuyer(90, 0.8), nil, nil)
		})
	}
	p.Close()
}

// FuzzRestoreSnapshot writes arbitrary bytes as one market's snapshot file
// and restores a pool from it. Restore may refuse the file; every market it
// does restore must answer a quote and then a trade, with a result or an
// error, within restoreWatchdog. The committed corpus holds a traded
// market's SaveAll snapshot, a spec-only snapshot and the traded snapshot
// with one weight set to 1e308; the structured variants of the traded
// snapshot (see structuredVariants) are added as seeds too.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, v := range structuredVariants(f, fuzzSeed(f, "testdata/fuzz/FuzzRestoreSnapshot/traded"), 3) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, ids := restoreFrom(t, raw)
		quoteAndTrade(t, p, ids)
	})
}

// fuzzSeed reads the single []byte value of a committed fuzz corpus file.
func fuzzSeed(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	_, val, ok := bytes.Cut(raw, []byte("\n[]byte("))
	if !ok {
		tb.Fatalf("%s is not a one-value fuzz corpus file", path)
	}
	s, err := strconv.Unquote(string(bytes.TrimSuffix(bytes.TrimSpace(val), []byte(")"))))
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// specialNumbers are the values structuredVariants writes over numbers.
var specialNumbers = []json.Number{"1e308", "-1e308", "1e-320", "0", "-1"}

// structuredVariants returns well-formed mutations of the JSON object raw,
// of the kinds a byte mutator rarely produces: for every object key down
// to maxDepth levels (descending into the first element of an array), the
// numbers beneath the key set to each of specialNumbers; an array under the
// key cut to half its length, and grown by a copy of its last element; and
// the key dropped.
func structuredVariants(tb testing.TB, raw []byte, maxDepth int) [][]byte {
	tb.Helper()
	decode := func() map[string]any {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	var variants [][]byte
	// edit applies fn to the object holding the last key of path in a fresh
	// copy of the document and keeps the result.
	edit := func(path []string, fn func(obj map[string]any, key string)) {
		doc := decode()
		obj := doc
		for _, k := range path[:len(path)-1] {
			obj = firstElem(obj[k]).(map[string]any)
		}
		fn(obj, path[len(path)-1])
		out, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		variants = append(variants, out)
	}
	var walk func(path []string, obj map[string]any, depth int)
	walk = func(path []string, obj map[string]any, depth int) {
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := append(path[:len(path):len(path)], k)
			if hasNumber(obj[k]) {
				for _, num := range specialNumbers {
					edit(p, func(o map[string]any, key string) { o[key] = withNumbers(o[key], num) })
				}
			}
			if arr, ok := obj[k].([]any); ok && len(arr) > 0 {
				edit(p, func(o map[string]any, key string) { a := o[key].([]any); o[key] = a[:len(a)/2] })
				edit(p, func(o map[string]any, key string) { a := o[key].([]any); o[key] = append(a, a[len(a)-1]) })
			}
			edit(p, func(o map[string]any, key string) { delete(o, key) })
			if child, ok := firstElem(obj[k]).(map[string]any); ok && depth+1 < maxDepth {
				walk(p, child, depth+1)
			}
		}
	}
	walk(nil, decode(), 0)
	return variants
}

// firstElem returns the first element of a non-empty array, or v itself.
func firstElem(v any) any {
	if a, ok := v.([]any); ok && len(a) > 0 {
		return a[0]
	}
	return v
}

// hasNumber reports whether a decoded JSON value holds a number.
func hasNumber(v any) bool {
	switch v := v.(type) {
	case json.Number:
		return true
	case []any:
		for _, e := range v {
			if hasNumber(e) {
				return true
			}
		}
	case map[string]any:
		for _, e := range v {
			if hasNumber(e) {
				return true
			}
		}
	}
	return false
}

// withNumbers returns a copy of a decoded JSON value with every number
// replaced by num.
func withNumbers(v any, num json.Number) any {
	switch v := v.(type) {
	case json.Number:
		return num
	case []any:
		out := make([]any, len(v))
		for i, e := range v {
			out[i] = withNumbers(e, num)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, e := range v {
			out[k] = withNumbers(e, num)
		}
		return out
	}
	return v
}

// replayKinds are the record kinds FuzzReplayRecord frames its input as,
// chosen by the input's first byte.
var replayKinds = []string{recordRegister, recordTrade, recordJoin, recordLeave, recordBudget}

// replayFixture is testdata/replay: the spec snapshot and log of a
// budgeted market that registered s1–s3, traded, admitted s4, traded,
// released s2, topped up s1 and traded again — nine records, every pool
// kind among them.
type replayFixture struct {
	spec, log []byte
	// last[k] is the last record of kind replayKinds[k] and cut[k] the
	// offset where its frame starts.
	last []*wal.Record
	cut  []int64
}

func loadReplayFixture(tb testing.TB) *replayFixture {
	tb.Helper()
	fx := &replayFixture{last: make([]*wal.Record, len(replayKinds)), cut: make([]int64, len(replayKinds))}
	var err error
	if fx.spec, err = os.ReadFile(filepath.Join("testdata", "replay", "m"+snapshotExt)); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join("testdata", "replay", "m"+walExt)
	if fx.log, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	var start int64
	if _, _, err := wal.Scan(path, func(rec *wal.Record, end int64) error {
		for k, kind := range replayKinds {
			if rec.Kind == kind {
				fx.last[k], fx.cut[k] = rec, start
			}
		}
		start = end
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	for k, rec := range fx.last {
		if rec == nil {
			tb.Fatalf("the replay fixture holds no %s record", replayKinds[k])
		}
	}
	return fx
}

// frameRecord frames data as the data of record seq of the given kind,
// with a valid length and checksum, whatever bytes data holds.
func frameRecord(seq uint64, kind string, data []byte) []byte {
	payload := fmt.Appendf(nil, `{"seq":%d,"kind":%q,"data":`, seq, kind)
	payload = append(append(payload, data...), '}')
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// decodesAs reports whether data decodes into the payload of a record of
// the given kind.
func decodesAs(kind string, data []byte) bool {
	var v any
	switch kind {
	case recordRegister:
		v = new(StoredSeller)
	case recordTrade:
		v = new(tradeRecord)
	case recordJoin:
		v = new(joinRecord)
	case recordLeave:
		v = new(leaveRecord)
	default:
		v = new(budgetRecord)
	}
	return json.Unmarshal(data, v) == nil
}

// FuzzReplayRecord fuzzes the pool's record decoding, which replay reaches
// only through frames that pass their checksum. The first input byte picks
// a kind of replayKinds; the rest becomes, behind a valid frame header, the
// data of a record of that kind appended to the replay fixture's log cut
// right before its last record of the kind. RestoreAll must not panic. A
// record whose data does not decode into its kind's payload must be
// refused with an error wrapping wal.ErrCorrupt, and every market that
// restores must answer a quote and a trade within restoreWatchdog. The
// seeds are each kind's real payload from the fixture and its structured
// variants.
func FuzzReplayRecord(f *testing.F) {
	fx := loadReplayFixture(f)
	for k, rec := range fx.last {
		f.Add(append([]byte{byte(k)}, rec.Data...))
		for _, v := range structuredVariants(f, rec.Data, 2) {
			f.Add(append([]byte{byte(k)}, v...))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		k := int(in[0]) % len(replayKinds)
		kind, data := replayKinds[k], in[1:]
		dir := t.TempDir()
		segment := append(fx.log[:fx.cut[k]:fx.cut[k]], frameRecord(fx.last[k].Seq, kind, data)...)
		if err := os.WriteFile(filepath.Join(dir, "m"+walExt), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "m"+snapshotExt), fx.spec, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []error
		opts := quietOptions()
		opts.SnapshotDir = dir
		opts.Logf = func(_ string, args ...any) {
			for _, a := range args {
				if err, ok := a.(error); ok {
					logged = append(logged, err)
				}
			}
		}
		p := New(opts)
		ids, _ := p.RestoreAll()
		if !decodesAs(kind, data) {
			corrupt := false
			for _, err := range logged {
				corrupt = corrupt || errors.Is(err, wal.ErrCorrupt)
			}
			if len(ids) != 0 || !corrupt {
				t.Fatalf("a %s record whose data does not decode restored %v, logging %v; want it refused with wal.ErrCorrupt", kind, ids, logged)
			}
		}
		quoteAndTrade(t, p, ids)
	})
}

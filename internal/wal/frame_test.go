package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// marshalFrame is the frame Append wrote before it encoded records in
// place: the value marshaled, wrapped in a Record as raw JSON, marshaled
// again, behind its length and CRC header.
func marshalFrame(t *testing.T, seq uint64, kind string, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshaling %T: %v", v, err)
	}
	payload, err := json.Marshal(Record{Seq: seq, Kind: kind, Data: data})
	if err != nil {
		t.Fatalf("marshaling record %d: %v", seq, err)
	}
	frame := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// genValue is a generated record payload: nested structs, maps, slices,
// floats across forty decades and strings JSON has to escape.
type genValue struct {
	ID      string             `json:"id"`
	Round   int                `json:"round,omitempty"`
	F       float64            `json:"f"`
	Fs      []float64          `json:"fs"`
	Rows    [][]float64        `json:"rows,omitempty"`
	Charges map[string]float64 `json:"charges,omitempty"`
	Tags    []string           `json:"tags"`
	Inner   *genValue          `json:"inner,omitempty"`
	Loose   looseJSON          `json:"loose"`
	Flag    bool               `json:"flag"`
}

// looseJSON marshals itself with insignificant whitespace and unescaped
// HTML characters, which json.Marshal and the log's encoder both compact
// and escape.
type looseJSON int

func (v looseJSON) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(" { \"v\" : [ %d , \"<&>\u2028\" ] } ", int(v))), nil
}

// genPieces are the fragments generated strings are made of: HTML
// characters, quotes, backslashes, line and paragraph separators, control
// characters, invalid UTF-8 and non-ASCII text.
var genPieces = []string{
	"a", "Z", "0", " ", "/", "<", ">", "&", `"`, `\`, "\u2028", "\u2029",
	"é", "日本", "😀", "\x01", "\x1f", "\n", "\t", "\xff", "</script>",
}

func genString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(genPieces[rng.Intn(len(genPieces))])
	}
	return b.String()
}

// genFloat draws a float of either sign with magnitude between 1e-20 and
// 1e20, or zero.
func genFloat(rng *rand.Rand) float64 {
	if rng.Intn(16) == 0 {
		return 0
	}
	f := (1 + 9*rng.Float64()) * math.Pow(10, float64(rng.Intn(40)-20))
	if rng.Intn(2) == 0 {
		f = -f
	}
	return f
}

func genStruct(rng *rand.Rand, depth int) *genValue {
	v := &genValue{
		ID:    genString(rng),
		Round: rng.Intn(3) * rng.Intn(1000),
		F:     genFloat(rng),
		Loose: looseJSON(rng.Intn(100)),
		Flag:  rng.Intn(2) == 0,
	}
	for n := rng.Intn(8); n > 0; n-- {
		v.Fs = append(v.Fs, genFloat(rng))
	}
	for n := rng.Intn(4); n > 0; n-- {
		row := make([]float64, 1+rng.Intn(5))
		for i := range row {
			row[i] = genFloat(rng)
		}
		v.Rows = append(v.Rows, row)
	}
	if rng.Intn(2) == 0 {
		v.Charges = make(map[string]float64)
		for n := rng.Intn(6); n > 0; n-- {
			v.Charges[genString(rng)] = genFloat(rng)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		v.Tags = append(v.Tags, genString(rng))
	}
	if depth < 3 && rng.Intn(3) == 0 {
		v.Inner = genStruct(rng, depth+1)
	}
	return v
}

// genPayload draws a record value of any shape a caller might log.
func genPayload(rng *rand.Rand) any {
	switch rng.Intn(8) {
	case 0:
		return *genStruct(rng, 0)
	case 1:
		m := make(map[string]any)
		for n := rng.Intn(5); n > 0; n-- {
			m[genString(rng)] = genStruct(rng, 2)
		}
		return m
	case 2:
		return []any{genString(rng), genFloat(rng), nil, true, genStruct(rng, 3)}
	case 3:
		return genString(rng)
	case 4:
		return genFloat(rng)
	case 5:
		return nil
	default:
		return genStruct(rng, 0)
	}
}

// poolKinds are the record kinds the pool writes.
var poolKinds = []string{"register", "trade", "seller_join", "seller_leave", "budget_charge"}

// TestAppendFramesMatchMarshal: Append encodes each value once and frames
// it in place, yet every frame it writes — header, CRC and payload — is
// byte for byte the frame of marshaling the value, wrapping it in a Record
// and marshaling that, over generated payloads of every kind the pool
// logs. Replay then hands back each value's marshaled bytes.
func TestAppendFramesMatchMarshal(t *testing.T) {
	const n = 2400
	rng := rand.New(rand.NewSource(19))
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeAsync, MinSeq: 41})
	var want bytes.Buffer
	datas := make([][]byte, n)
	for i := 0; i < n; i++ {
		kind := poolKinds[i%len(poolKinds)]
		v := genPayload(rng)
		seq, _, err := l.Append(kind, v)
		if err != nil {
			t.Fatalf("record %d: Append: %v", i, err)
		}
		if seq != uint64(42+i) {
			t.Fatalf("record %d: seq %d, want %d", i, seq, 42+i)
		}
		want.Write(marshalFrame(t, seq, kind, v))
		datas[i], _ = json.Marshal(v)
	}
	if got := l.Size(); got != int64(want.Len()) {
		t.Fatalf("Size = %d, want %d", got, want.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		i := 0
		for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("segment differs from the marshaled frames at byte %d of %d (want %d bytes)", i, len(got), want.Len())
	}
	i := 0
	if _, _, err := Scan(path, func(rec *Record, _ int64) error {
		if !bytes.Equal(rec.Data, datas[i]) || rec.Kind != poolKinds[i%len(poolKinds)] {
			return fmt.Errorf("record %d replayed as %s %s", i, rec.Kind, rec.Data)
		}
		i++
		return nil
	}); err != nil || i != n {
		t.Fatalf("Scan: %d records, %v", i, err)
	}
}

// TestEnvelopeMatchesUnmarshal pins replay's envelope parse to
// json.Unmarshal into Record, over generated records and every one-byte
// deletion, insertion and replacement of a few of them. Whenever Unmarshal
// reads a payload that re-marshals to itself with a kind Append accepts —
// the only payloads Append writes — the envelope parse accepts it and
// agrees on seq, kind and data.
// Whenever the parse accepts a payload whose VALUE is valid JSON, Unmarshal
// agrees too. Any other payload the parse refuses is a layout Append never
// writes, and a VALUE that is not JSON is the consumer's to refuse.
func TestEnvelopeMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := append([]string{"", "A-z_0.9 ~!#$%'()*+,/:;=?@[]^`{|}"}, poolKinds...)
	seqs := []uint64{1, 9, 10, 42, 1 << 32, math.MaxUint64}
	check := func(p []byte) (accepted bool) {
		t.Helper()
		seq, kind, data, ok := envelope(p)
		var rec Record
		err := json.Unmarshal(p, &rec)
		if err == nil && !ok && plainKind(rec.Kind) {
			if again, _ := json.Marshal(rec); bytes.Equal(again, p) {
				t.Fatalf("envelope refused %q, which Unmarshal reads and re-marshals unchanged", p)
			}
		}
		if !ok || !json.Valid(data) {
			return ok
		}
		if err != nil {
			t.Fatalf("envelope accepted %q, which Unmarshal refuses: %v", p, err)
		}
		if rec.Seq != seq || rec.Kind != string(kind) || !bytes.Equal(rec.Data, data) {
			t.Fatalf("envelope read %q as %d %q %q, Unmarshal as %d %q %q", p, seq, kind, data, rec.Seq, rec.Kind, rec.Data)
		}
		return true
	}
	var bases [][]byte
	for i := 0; i < 600; i++ {
		data, err := json.Marshal(genPayload(rng))
		if err != nil {
			t.Fatal(err)
		}
		p, err := json.Marshal(Record{Seq: seqs[i%len(seqs)], Kind: kinds[i%len(kinds)], Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if !check(p) {
			t.Fatalf("envelope refused the marshaled record %q", p)
		}
		if len(bases) < 4 && len(p) < 300 {
			bases = append(bases, p)
		}
	}
	bases = append(bases, []byte(`{"seq":7,"kind":"p","data":{"n":1,"s":"x"}}`), []byte(`{"seq":100,"kind":"trade","data":null}`))
	inserts := []byte(` 0-"\\{}[],:.ex`)
	mutants, accepted := 0, 0
	for _, base := range bases {
		for i := 0; i <= len(base); i++ {
			var variants [][]byte
			if i < len(base) {
				variants = append(variants, append(append([]byte(nil), base[:i]...), base[i+1:]...))
			}
			for _, c := range inserts {
				ins := append(append(append([]byte(nil), base[:i]...), c), base[i:]...)
				variants = append(variants, ins)
				if i < len(base) && base[i] != c {
					rep := append([]byte(nil), base...)
					rep[i] = c
					variants = append(variants, rep)
				}
			}
			for _, v := range variants {
				mutants++
				if check(v) {
					accepted++
				}
			}
		}
	}
	t.Logf("%d mutants, %d accepted by the envelope parse", mutants, accepted)
}

// TestAppendRefusesEscapedKind: the record prefix is written by hand, so a
// kind JSON would escape, like a value JSON cannot encode, is refused
// before anything reaches the segment.
func TestAppendRefusesEscapedKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeSync})
	appendCommit(t, l, "trade", payload{N: 1})
	size := l.Size()
	for _, kind := range []string{`a"b`, `a\b`, "<", ">", "a&b", "line\n", "\x00", "\x7f", "é", "\u2028"} {
		if _, _, err := l.Append(kind, payload{N: 2}); err == nil {
			t.Errorf("Append(%q) succeeded", kind)
		}
	}
	for _, v := range []any{math.NaN(), math.Inf(1), make(chan int)} {
		if _, _, err := l.Append("trade", v); err == nil {
			t.Errorf("Append(%T) succeeded", v)
		}
	}
	if l.Size() != size || l.Records() != 1 || l.LastSeq() != 1 {
		t.Fatalf("refused records were counted: size %d→%d, records %d, seq %d", size, l.Size(), l.Records(), l.LastSeq())
	}
	// The empty kind and every other printable ASCII byte pass.
	appendCommit(t, l, "", payload{N: 3})
	appendCommit(t, l, "A-z_0.9 ~!#$%'()*+,/:;=?@[]^`{|}", payload{N: 4})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(marshalFrame(t, 1, "trade", payload{N: 1}),
		marshalFrame(t, 2, "", payload{N: 3})...),
		marshalFrame(t, 3, "A-z_0.9 ~!#$%'()*+,/:;=?@[]^`{|}", payload{N: 4})...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("segment = %q, want %q", raw, want)
	}
}

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool

// tradeLike is a map-free record the size of a pool trade record.
type tradeLike struct {
	Round    int       `json:"round"`
	Profile  []float64 `json:"profile"`
	Pieces   []int     `json:"pieces"`
	Weights  []float64 `json:"weights"`
	Solver   string    `json:"solver"`
	Payment  float64   `json:"payment"`
	Shapley  []float64 `json:"shapley"`
	Accepted bool      `json:"accepted"`
}

// TestAppendCopiesNoRecord: Append encodes a record straight into its
// frame, so a 4 KB record costs a few bytes of heap, not copies of itself.
// Marshaling the value and then the Record around it allocated about
// 8,250 B in 4 allocations per Append.
func TestAppendCopiesNoRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops the encoder's pooled state at random")
	}
	const perAppend = 128
	rng := rand.New(rand.NewSource(4))
	rec := &tradeLike{Round: 7, Solver: "analytic", Payment: 1234.5}
	for i := 0; i < 60; i++ {
		rec.Profile = append(rec.Profile, genFloat(rng))
		rec.Weights = append(rec.Weights, rng.Float64())
		rec.Shapley = append(rec.Shapley, genFloat(rng))
		rec.Pieces = append(rec.Pieces, rng.Intn(1000))
	}
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeAsync})
	for i := 0; i < 4; i++ { // warm the encoder's state and the frame prefix
		if _, _, err := l.Append("trade", rec); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the encoder's pooled state
	const n = 100
	size := l.Size()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, _, err := l.Append("trade", rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if frame := (l.Size() - size) / n; frame < 3500 {
		t.Fatalf("frames are %d B, want a record of about 4 KB", frame)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > perAppend {
		t.Fatalf("Append allocates %d B per record, want at most %d B", per, perAppend)
	}
}

// TestCorruptLengthAllocatesOnlyTheFile: a torn header claiming a 60 MiB
// payload in a segment of a few hundred bytes is the torn tail it is —
// replay allocates for the bytes the file holds, not for the claim.
func TestCorruptLengthAllocatesOnlyTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeSync})
	for i := 1; i <= 3; i++ {
		appendCommit(t, l, "trade", payload{N: i, S: "x"})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean := len(raw)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 60<<20)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	raw = append(append(raw, hdr[:]...), "torn"...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, err := Open(path, Options{Mode: ModeSync, Replay: func(*Record) error { got++; return nil }})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("Open allocated %d B for a %d B segment", alloc, len(raw))
	}
	if got != 3 || l2.Size() != int64(clean) {
		t.Fatalf("replayed %d records into %d B, want 3 into %d B", got, l2.Size(), clean)
	}
}

// fuzzPrefix writes the intact records FuzzOpen puts in front of every
// input: three "p" records, sequence numbers 1 to 3.
func fuzzPrefix(tb testing.TB) ([]byte, []Record) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "prefix.wal")
	l, err := Open(path, Options{Mode: ModeSync})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := l.Append("p", payload{N: i, S: "x"}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []Record
	if _, _, err := Scan(path, func(rec *Record, _ int64) error {
		recs = append(recs, *rec)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return raw, recs
}

func sameRecord(a, b Record) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && bytes.Equal(a.Data, b.Data)
}

// FuzzOpen: whatever bytes follow a segment's intact records — a torn or
// corrupt frame, a lying length, more frames, garbage — Open never panics.
// It either refuses the segment with an error wrapping ErrCorrupt (a
// checksummed frame that does not decode or does not advance the
// sequence) or replays the intact records, plus any whole frames the bytes
// hold, and truncates the file to the end of the last one. An Append then
// lands right behind them: a reopen replays the same records and the new
// one. The committed corpus under testdata/fuzz/FuzzOpen holds a cut at
// every header byte of a fourth frame, a 60 MiB length, and whole, corrupt
// and out-of-order frames.
func FuzzOpen(f *testing.F) {
	prefix, intact := fuzzPrefix(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "seg.wal")
		if err := os.WriteFile(path, append(append([]byte(nil), prefix...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		l, err := Open(path, Options{Mode: ModeSync, Replay: func(rec *Record) error {
			got = append(got, *rec)
			return nil
		}})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused the segment with %v, want an error wrapping ErrCorrupt", err)
			}
			return
		}
		defer l.Close()
		if len(got) < len(intact) {
			t.Fatalf("replayed %d records, want the %d intact ones first", len(got), len(intact))
		}
		for i, rec := range intact {
			if !sameRecord(got[i], rec) {
				t.Fatalf("record %d replayed as %+v, want %+v", i, got[i], rec)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		_, clean, err := Scan(path, func(*Record, int64) error { records++; return nil })
		if err != nil {
			t.Fatalf("Scan after Open: %v", err)
		}
		if records != len(got) || clean != fi.Size() || l.Size() != fi.Size() {
			t.Fatalf("after Open: %d records in a %d B clean prefix of a %d B file (log size %d), want %d records filling it",
				records, clean, fi.Size(), l.Size(), len(got))
		}
		seq, _, err := l.Append("p", payload{N: 99})
		if err != nil {
			t.Fatalf("Append after Open: %v", err)
		}
		if seq != got[len(got)-1].Seq+1 {
			t.Fatalf("Append after Open got seq %d, want %d", seq, got[len(got)-1].Seq+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again []Record
		l2, err := Open(path, Options{Mode: ModeSync, Replay: func(rec *Record) error {
			again = append(again, *rec)
			return nil
		}})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if len(again) != len(got)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(again), len(got)+1)
		}
		for i := range got {
			if !sameRecord(again[i], got[i]) {
				t.Fatalf("reopen: record %d is %+v, want %+v", i, again[i], got[i])
			}
		}
		if last := again[len(got)]; last.Seq != seq || last.Kind != "p" || string(last.Data) != `{"n":99,"s":""}` {
			t.Fatalf("reopen: appended record is %+v", last)
		}
	})
}

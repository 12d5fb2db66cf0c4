package pool

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"share/internal/market"
	"share/internal/translog"
	"share/internal/wal"
)

// A market's trade history is the list of its committed transactions. The
// round itself needs none of it — the inner market keeps its round count
// and last transaction (market.Config.NoLedger) — so the pool keeps, for
// each round, only where its transaction lies:
//
//   - in memory, for every round of a pool without a snapshot directory,
//     and for a persisted round no file holds yet (its record could not be
//     appended and the fallback snapshot could not be written);
//   - as its trade record's frame in the market's WAL segment, from the
//     append (or the replay) on;
//   - as an element of the market.ledger array of the snapshot file the
//     market last wrote or restored, once a snapshot holds it.
//
// Every snapshot the market writes for itself — compaction, SaveAll and
// the append-failure fallback — reads the history back from those places
// and writes the ledger and cost log byte for byte as encoding/json writes
// them, then becomes the generation the rounds lie in. A page read
// (Market.Trades) decodes only the requested rounds, through the published
// view and without the write lock; a read that finds its bytes moved by a
// later generation retries on the view that generation published.

// ErrHistory marks a trade-history read whose bytes cannot be found or do
// not hold the round's transaction.
var ErrHistory = errors.New("trade history unreadable")

// A TradeRef is where one committed transaction lies (see above).
type TradeRef struct {
	mem   *tradeRecord // the round itself, while only memory holds it
	off   int64        // otherwise the offset of its frame or ledger element
	n     int32        // and its length
	inLog bool         // a frame in the WAL segment, not a snapshot element
	// verbatim: this process wrote the bytes, so they are the transaction's
	// encoding and a snapshot copies them; bytes read at restore may come
	// from an earlier release and are decoded and encoded again.
	verbatim bool
}

// ledgerFile is a snapshot file that holds rounds, open for reading: the
// market.ledger elements its TradeRefs point at, and the content of its
// market.cost_log array, which a snapshot written from it copies whole.
type ledgerFile struct {
	f        *os.File
	cost     span
	verbatim bool
}

// span is a byte range [off, end) of a file.
type span struct{ off, end int64 }

// history is where a market's committed rounds lie: refs has one entry per
// round, the snapshot part first; snap is the snapshot generation the
// snapshot part lies in and log the segment the frames lie in. gen counts
// the generations: it changes whenever refs are rebuilt into a new one.
// A Market's history is guarded by writeMu; a View's is immutable, its
// refs capped at their length.
type history struct {
	refs []TradeRef
	snap *ledgerFile
	log  *wal.Log
	gen  uint64
}

// Trades reads the committed transactions of rounds lo+1 through hi, for
// 0 ≤ lo ≤ hi ≤ the trade count of the view it reads: it decodes only
// those rounds, from wherever they lie, without the market's write lock.
// The transactions a persisted market reads back are fresh copies; those
// held in memory are the committed ones, shared (see market.Transaction).
// Bytes that cannot be found or read give an error wrapping ErrHistory.
func (m *Market) Trades(lo, hi int) ([]*market.Transaction, error) {
	v := m.view.Load()
	for {
		txs, err := v.hist.read(lo, hi)
		if err == nil {
			return txs, nil
		}
		// A compaction or fallback snapshot moves every round into a new
		// generation and publishes a view of it; only then may the bytes
		// this view points at be gone.
		cur := m.view.Load()
		if cur.hist.gen == v.hist.gen {
			return nil, err
		}
		v = cur
	}
}

// read decodes rounds lo+1 through hi.
func (h *history) read(lo, hi int) ([]*market.Transaction, error) {
	if lo < 0 || hi < lo || hi > len(h.refs) {
		return nil, fmt.Errorf("pool: rounds %d to %d of %d: %w", lo+1, hi, len(h.refs), ErrHistory)
	}
	out := make([]*market.Transaction, hi-lo)
	var buf []byte
	for i := lo; i < hi; i++ {
		ref := h.refs[i]
		if ref.mem != nil {
			out[i-lo] = ref.mem.Tx
			continue
		}
		raw, err := h.bytes(ref, &buf)
		if err == nil {
			out[i-lo], err = decodeRound(raw, ref.inLog, i+1)
		}
		if err != nil {
			return nil, fmt.Errorf("pool: round %d: %w: %w", i+1, ErrHistory, err)
		}
	}
	return out, nil
}

// bytes returns the bytes ref points at — a trade record's data, or a
// ledger element — in *buf or a frame of its own.
func (h *history) bytes(ref TradeRef, buf *[]byte) ([]byte, error) {
	if ref.inLog {
		if h.log == nil {
			return nil, errors.New("no wal segment")
		}
		rec, err := h.log.ReadFrame(wal.Frame{Off: ref.off, Len: int(ref.n)})
		if err != nil {
			return nil, err
		}
		if rec.Kind != recordTrade {
			return nil, fmt.Errorf("the frame holds a %s record", rec.Kind)
		}
		return rec.Data, nil
	}
	if h.snap == nil {
		return nil, errors.New("no snapshot file")
	}
	return h.snap.read(span{ref.off, ref.off + int64(ref.n)}, buf)
}

// read reads s from the file into *buf.
func (lf *ledgerFile) read(s span, buf *[]byte) ([]byte, error) {
	n := int(s.end - s.off)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := lf.f.ReadAt(b, s.off); err != nil {
		return nil, err
	}
	return b, nil
}

// decodeRound decodes round's transaction from a trade record's data or a
// ledger element. A trade record must hold that very round: after a reset
// the frame's bytes may hold a later record.
func decodeRound(raw []byte, record bool, round int) (*market.Transaction, error) {
	var tx *market.Transaction
	if record {
		var tr tradeRecord
		if err := json.Unmarshal(raw, &tr); err != nil {
			return nil, err
		}
		tx = tr.Tx
	} else if err := json.Unmarshal(raw, &tx); err != nil {
		return nil, err
	}
	switch {
	case tx == nil:
		return nil, errors.New("no transaction")
	case record && tx.Round != round:
		return nil, fmt.Errorf("the frame holds round %d", tx.Round)
	}
	return tx, nil
}

// roundJSON returns ref's transaction and, unless it lies in the snapshot,
// its cost observation, encoded as encoding/json encodes them.
func (h *history) roundJSON(ref TradeRef, buf *[]byte) (tx, obs []byte, err error) {
	if ref.mem != nil {
		if tx, err = json.Marshal(ref.mem.Tx); err == nil {
			obs, err = json.Marshal(ref.mem.Obs)
		}
		return tx, obs, err
	}
	tx, err = h.bytes(ref, buf)
	if err != nil {
		return nil, nil, err
	}
	if ref.inLog && ref.verbatim {
		// This process encoded the record: {"tx":TX,"obs":OBS}, and OBS, an
		// observation of three numbers, holds no `,"obs":`.
		i := bytes.LastIndex(tx, []byte(`,"obs":`))
		if !bytes.HasPrefix(tx, []byte(`{"tx":`)) || i < 0 || tx[len(tx)-1] != '}' {
			return nil, nil, errors.New("the trade record is not {\"tx\":TX,\"obs\":OBS}")
		}
		return tx[len(`{"tx":`):i], tx[i+len(`,"obs":`) : len(tx)-1], nil
	}
	if ref.inLog {
		var tr struct{ Tx, Obs json.RawMessage }
		if err := json.Unmarshal(tx, &tr); err != nil {
			return nil, nil, err
		}
		if tx, err = reencode[*market.Transaction](tr.Tx); err == nil {
			obs, err = reencode[translog.Observation](tr.Obs)
		}
		return tx, obs, err
	}
	if !ref.verbatim {
		tx, err = reencode[*market.Transaction](tx)
	}
	return tx, nil, err
}

// reencode returns raw decoded into a T and encoded again.
func reencode[T any](raw []byte) ([]byte, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// costContent returns the content of the generation's cost-log array —
// its entries, comma-separated — as encoding/json encodes it.
func (lf *ledgerFile) costContent() ([]byte, error) {
	var raw []byte
	raw, err := lf.read(lf.cost, &raw)
	if err != nil || lf.verbatim || len(raw) == 0 {
		return raw, err
	}
	enc, err := reencode[[]translog.Observation](append(append([]byte{'['}, raw...), ']'))
	if err != nil {
		return nil, err
	}
	return enc[1 : len(enc)-1], nil
}

// snapshotTail ends the encoding of every snapshot of a trading market the
// history is written into: the market.Snapshot's last two fields, which
// the pool leaves empty, and the two objects' closing braces.
const snapshotTail = `"ledger":null,"cost_log":null}}`

// countingWriter counts the bytes written through it and keeps the first
// error, after which it writes nothing.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

// encodeSnapshot writes snap followed by a newline, with h's rounds as its
// market's ledger and cost log: the bytes json.Encoder writes for the
// snapshot holding those transactions. snap's market must leave both
// empty. It returns the refs of the rounds in the written file and the
// file's cost-log range.
func (h *history) encodeSnapshot(w io.Writer, snap *MarketSnapshot) ([]TradeRef, *ledgerFile, error) {
	head, err := json.Marshal(snap)
	if err != nil {
		return nil, nil, err
	}
	if snap.Market == nil {
		_, err := w.Write(append(head, '\n'))
		return nil, nil, err
	}
	head, ok := bytes.CutSuffix(head, []byte(snapshotTail))
	if !ok {
		return nil, nil, errors.New("pool: snapshot encoding does not end in its ledger")
	}
	cw := &countingWriter{w: w}
	cw.Write(head)
	cw.Write([]byte(`"ledger":`))
	refs := make([]TradeRef, len(h.refs))
	var costs bytes.Buffer // cost entries of the rounds past the snapshot part
	var buf []byte
	if len(h.refs) == 0 {
		cw.Write([]byte("null"))
	}
	for i, ref := range h.refs {
		tx, obs, err := h.roundJSON(ref, &buf)
		if err != nil {
			return nil, nil, fmt.Errorf("pool: round %d: %w: %w", i+1, ErrHistory, err)
		}
		if i == 0 {
			cw.Write([]byte{'['})
		} else {
			cw.Write([]byte{','})
		}
		refs[i] = TradeRef{off: cw.n, n: int32(len(tx)), verbatim: true}
		cw.Write(tx)
		if obs != nil {
			if costs.Len() > 0 {
				costs.WriteByte(',')
			}
			costs.Write(obs)
		}
	}
	if len(h.refs) > 0 {
		cw.Write([]byte{']'})
	}
	cw.Write([]byte(`,"cost_log":`))
	var old []byte
	if h.snap != nil {
		if old, err = h.snap.costContent(); err != nil {
			return nil, nil, fmt.Errorf("pool: cost log: %w: %w", ErrHistory, err)
		}
	}
	lf := &ledgerFile{verbatim: true}
	if len(old) == 0 && costs.Len() == 0 {
		cw.Write([]byte("null"))
	} else {
		cw.Write([]byte{'['})
		lf.cost.off = cw.n
		cw.Write(old)
		if len(old) > 0 && costs.Len() > 0 {
			cw.Write([]byte{','})
		}
		cw.Write(costs.Bytes())
		lf.cost.end = cw.n
		cw.Write([]byte{']'})
	}
	cw.Write([]byte("}}\n"))
	return refs, lf, cw.err
}

// scanLedger finds the market.ledger elements and the market.cost_log
// array's content in raw, a snapshot file's bytes, reading keys as
// encoding/json does: case-insensitively, escapes decoded, the last of
// duplicate keys winning. It walks the bytes without decoding values, so
// it trusts raw to be JSON (json.Unmarshal has read it), but bytes that
// are not give an error, never a panic.
func scanLedger(raw []byte) (elems []span, cost span, err error) {
	sc := jsonScan{raw: raw}
	err = sc.members(func(key string) error {
		if !strings.EqualFold(key, "market") {
			return sc.skip()
		}
		elems, cost = nil, span{}
		if sc.peek() == 'n' {
			return sc.skip()
		}
		return sc.members(func(key string) error {
			switch {
			case strings.EqualFold(key, "ledger"):
				elems = nil
				return sc.elements(func(e span) { elems = append(elems, e) })
			case strings.EqualFold(key, "cost_log"):
				cost = span{}
				var first, last span
				n := 0
				err := sc.elements(func(e span) {
					if n == 0 {
						first = e
					}
					last, n = e, n+1
				})
				if n > 0 {
					cost = span{first.off, last.end}
				}
				return err
			}
			return sc.skip()
		})
	})
	return elems, cost, err
}

// jsonScan walks JSON bytes: at pos, after any whitespace, begins the next
// value.
type jsonScan struct {
	raw []byte
	pos int
}

var errScan = errors.New("malformed JSON")

// peek returns the first byte of the next value, 0 at the end.
func (sc *jsonScan) peek() byte {
	for sc.pos < len(sc.raw) {
		switch c := sc.raw[sc.pos]; c {
		case ' ', '\t', '\r', '\n':
			sc.pos++
		default:
			return c
		}
	}
	return 0
}

// members walks an object, calling fn with each key once pos is at its
// value; fn must consume the value.
func (sc *jsonScan) members(fn func(key string) error) error {
	if sc.peek() != '{' {
		return errScan
	}
	sc.pos++
	for first := true; ; first = false {
		switch sc.peek() {
		case '}':
			sc.pos++
			return nil
		case ',':
			if first {
				return errScan
			}
			sc.pos++
		default:
			if !first {
				return errScan
			}
		}
		start := sc.pos
		if sc.peek() != '"' || sc.skip() != nil {
			return errScan
		}
		var key string
		if err := json.Unmarshal(sc.raw[start:sc.pos], &key); err != nil {
			return err
		}
		if sc.peek() != ':' {
			return errScan
		}
		sc.pos++
		if err := fn(key); err != nil {
			return err
		}
	}
}

// elements walks an array, or null, calling fn with each element's span.
func (sc *jsonScan) elements(fn func(span)) error {
	switch sc.peek() {
	case 'n':
		return sc.skip()
	case '[':
	default:
		return errScan
	}
	sc.pos++
	for first := true; ; first = false {
		switch sc.peek() {
		case ']':
			sc.pos++
			return nil
		case ',':
			if first {
				return errScan
			}
			sc.pos++
			sc.peek()
		default:
			if !first {
				return errScan
			}
		}
		start := sc.pos
		if err := sc.skip(); err != nil {
			return err
		}
		fn(span{int64(start), int64(sc.pos)})
	}
}

// endsLiteral reports whether c ends a number, true, false or null.
func endsLiteral(c byte) bool {
	switch c {
	case ',', ':', ']', '}', ' ', '\t', '\r', '\n':
		return true
	}
	return false
}

// skip moves pos past the next value.
func (sc *jsonScan) skip() error {
	depth := 0
	for {
		switch c := sc.peek(); c {
		case 0:
			return errScan
		case '"':
			sc.pos++
			for sc.pos < len(sc.raw) && sc.raw[sc.pos] != '"' {
				if sc.raw[sc.pos] == '\\' {
					sc.pos++
				}
				sc.pos++
			}
			if sc.pos >= len(sc.raw) {
				return errScan
			}
			sc.pos++
		case '{', '[':
			sc.pos++
			depth++
			continue
		case '}', ']':
			if depth == 0 {
				return errScan
			}
			sc.pos++
			depth--
		case ',', ':':
			if depth == 0 {
				return errScan
			}
			sc.pos++
			continue
		default: // a number, true, false or null
			for sc.pos < len(sc.raw) && !endsLiteral(sc.raw[sc.pos]) {
				sc.pos++
			}
		}
		if depth == 0 {
			return nil
		}
	}
}

// locateLedger finds, in the file at path that ReadSnapshotFile decoded
// into snap, where its market's ledger and cost log lie, and moves them
// there: snap then carries neither, and its restore field locates them in
// the file, which stays open for the history's reads.
func (snap *MarketSnapshot) locateLedger(path string) error {
	f, err := os.Open(path)
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	var raw []byte
	if err == nil {
		raw = make([]byte, fi.Size())
		_, err = io.ReadFull(f, raw)
	}
	var elems []span
	var cost span
	if err == nil {
		elems, cost, err = scanLedger(raw)
	}
	if err == nil && len(elems) != len(snap.Market.Ledger) {
		err = fmt.Errorf("found %d ledger elements, decoded %d", len(elems), len(snap.Market.Ledger))
	}
	for i := 0; err == nil && i < len(elems); i++ {
		if elems[i].end-elems[i].off > math.MaxInt32 {
			err = fmt.Errorf("ledger element %d is too large", i)
		}
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		return fmt.Errorf("pool: locating the ledger of snapshot %s: %w: %w", path, ErrHistory, err)
	}
	led := &restoredLedger{file: &ledgerFile{f: f, cost: cost}, refs: make([]TradeRef, len(elems))}
	for i, e := range elems {
		led.refs[i] = TradeRef{off: e.off, n: int32(e.end - e.off)}
	}
	if n := len(snap.Market.Ledger); n > 0 {
		led.last = snap.Market.Ledger[n-1]
	}
	snap.restored = led
	snap.Market.Ledger, snap.Market.CostLog = nil, nil
	return nil
}

// restoredLedger is where a snapshot read for restore holds its ledger.
type restoredLedger struct {
	file *ledgerFile
	refs []TradeRef
	last *market.Transaction
}

// Package wal implements the append-only write-ahead log behind the pool's
// trade path. Committed transactions append one small framed record instead
// of rewriting the full market snapshot, turning per-trade durability from
// O(market size) into O(record size) disk work.
//
// Frame format. Each record is
//
//	[4B little-endian payload length][4B little-endian CRC32-IEEE][payload]
//
// where payload is the JSON encoding of Record. The CRC covers the payload
// only; a record whose length or checksum does not verify marks the end of
// the readable prefix. Open truncates everything past that prefix — the
// torn-final-record case after a crash mid-append — so replay always sees a
// clean sequence of fully committed records. A length that runs past the
// end of the file is such a torn tail too, so replay reads every frame into
// one buffer no larger than the file's largest record.
//
// Group commit. Append encodes the value once, straight into the frame it
// buffers — the payload is assembled around the encoded value, never
// copied — and assigns it a monotonically increasing sequence number;
// Commit makes it durable according to the log's mode. In ModeGroup a
// dedicated syncer goroutine flushes and fsyncs on demand: every appender
// waiting in Commit when an fsync lands is released by that single fsync,
// so concurrent commits amortize the disk barrier. ModeSync fsyncs inline
// per commit; ModeAsync acknowledges immediately and lets the syncer flush
// in the background.
//
// Compaction. Once the caller has persisted a snapshot capturing all
// records up to LastSeq, Reset truncates the file; Options.MinSeq on the
// next Open restores the sequence floor so post-compaction records can
// never be confused with pre-compaction ones.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"share/internal/obs"
)

// Mode selects how Commit trades durability against latency.
type Mode int

const (
	// ModeGroup (default) batches concurrent commits into one fsync issued
	// by the syncer goroutine; Commit returns once the covering fsync lands.
	ModeGroup Mode = iota
	// ModeSync flushes and fsyncs inline on every Commit.
	ModeSync
	// ModeAsync acknowledges immediately; the syncer fsyncs in the
	// background. A crash can lose the most recently acknowledged records.
	ModeAsync
)

// String names the mode as pool.ParseDurability accepts it.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeAsync:
		return "async"
	default:
		return "group"
	}
}

// Record is one logged entry: a sequence number, a caller-defined kind tag
// and the kind-specific payload.
type Record struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Metrics are the optional observability hooks a Log reports into. Any
// field may be nil.
type Metrics struct {
	// Fsync observes the latency of each fsync barrier.
	Fsync *obs.Endpoint
	// Fsyncs counts fsync barriers issued.
	Fsyncs *obs.Counter
	// Records counts appended records.
	Records *obs.Counter
	// Bytes counts appended bytes (frame headers included).
	Bytes *obs.Counter
	// BatchMax is the high-water mark of commits covered by one fsync.
	BatchMax *obs.Gauge
}

// Options configure Open.
type Options struct {
	// Mode selects the Commit durability protocol.
	Mode Mode
	// MinSeq floors the next assigned sequence number. Pass the WalSeq of
	// the snapshot the log was last compacted into, so records appended
	// after a restart never reuse sequence numbers the snapshot already
	// covers.
	MinSeq uint64
	// Replay, when non-nil, receives every intact record found in the file
	// during Open, in order. An error aborts Open.
	Replay func(*Record) error
	// Metrics receives the log's observability series.
	Metrics Metrics
}

// headerSize is the per-record frame overhead: length + CRC.
const headerSize = 8

// maxRecordBytes bounds a single record's payload. Append refuses a larger
// record, and replay treats a length prefix above it as torn-tail garbage,
// not an allocation request.
const maxRecordBytes = 64 << 20

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt marks a segment whose checksummed frames are not a valid log:
// a record that does not decode, or a sequence number that does not
// increase. Open and Scan wrap it; a torn tail is not corruption.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Log is one append-only segment file. Safe for concurrent use.
type Log struct {
	path string
	mode Mode
	met  Metrics

	// mu serializes encoding, file writes, sequence assignment and
	// truncation.
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	fr      framer
	enc     *json.Encoder // writes through fr
	seq     uint64
	size    int64
	records int
	closed  bool

	// syncMu guards the durability watermark the syncer advances and
	// Commit waits on.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64
	syncErr  error

	syncReq chan struct{}
	stop    chan struct{}
	stopped chan struct{}
}

// Open opens (creating if absent) the segment at path, replays every intact
// record through opts.Replay, truncates any torn tail, and starts the
// syncer goroutine. The caller must Close the returned log.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	records := 0
	lastSeq, clean, err := scan(f, func(rec *Record, _ int64) error {
		records++
		if opts.Replay != nil {
			return opts.Replay(rec)
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: replaying %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > clean {
		// Torn tail: a crash mid-append left a partial record. Everything
		// before it is intact; drop the rest.
		err = f.Truncate(clean)
	}
	if err == nil {
		_, err = f.Seek(clean, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: preparing %s for append: %w", path, err)
	}
	seq := lastSeq
	if opts.MinSeq > seq {
		seq = opts.MinSeq
	}
	l := &Log{
		path:    path,
		mode:    opts.Mode,
		met:     opts.Metrics,
		f:       f,
		w:       bufio.NewWriter(f),
		seq:     seq,
		size:    clean,
		records: records,
		synced:  seq,
		syncReq: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	l.fr.w = l.w
	l.enc = json.NewEncoder(&l.fr) // escapes HTML, as json.Marshal does
	l.syncCond = sync.NewCond(&l.syncMu)
	go l.syncLoop()
	return l, nil
}

// scan reads frames from the start of f, calling fn with each intact record
// and the file offset just past it. It stops — without error — at the first
// frame that is incomplete or fails its checksum, returning the clean
// prefix length. A length prefix past the bytes left in the file is such an
// incomplete frame, so the one payload buffer every frame is read into
// never outgrows the file. A CRC-valid record that does not decode, or one
// whose sequence number does not increase, is a format error, not a torn
// tail: the error wraps ErrCorrupt.
func scan(f *os.File, fn func(*Record, int64) error) (lastSeq uint64, clean int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := fi.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReader(f)
	var hdr [headerSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return lastSeq, clean, nil // clean end or torn header
			}
			return lastSeq, clean, err
		}
		ln := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if ln == 0 || ln > maxRecordBytes || ln > size-clean-headerSize {
			return lastSeq, clean, nil // garbage or cut-off length: torn tail
		}
		if int64(cap(payload)) < ln {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return lastSeq, clean, nil // torn payload
			}
			return lastSeq, clean, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return lastSeq, clean, nil // corrupt record: end of trusted prefix
		}
		// Unmarshal copies Data and Kind out of payload, so the next frame
		// may reuse the buffer.
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return lastSeq, clean, fmt.Errorf("%w: record at offset %d: %w", ErrCorrupt, clean, err)
		}
		if rec.Seq <= lastSeq {
			return lastSeq, clean, fmt.Errorf("%w: record at offset %d: sequence %d not above %d", ErrCorrupt, clean, rec.Seq, lastSeq)
		}
		end := clean + headerSize + ln
		if fn != nil {
			if err := fn(&rec, end); err != nil {
				return lastSeq, clean, err
			}
		}
		lastSeq = rec.Seq
		clean = end
	}
}

// Scan reads every intact record of the segment at path without opening it
// for writing. fn receives each record and the byte offset just past its
// frame. Returns the last sequence number and the clean prefix length.
func Scan(path string, fn func(rec *Record, end int64) error) (lastSeq uint64, clean int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	return scan(f, fn)
}

// Append encodes v as the data of a framed record of the given kind and
// buffers it, returning the assigned sequence number. The record is NOT
// durable until a Commit covering the sequence number returns (or, in
// ModeAsync, until the background flush lands). The kind must be printable
// ASCII other than '"', '\', '<', '>' and '&' — bytes JSON writes
// verbatim — and the payload at most maxRecordBytes long; a record that
// fails either, or whose value does not encode, is refused and nothing is
// written.
func (l *Log) Append(kind string, v any) (uint64, error) {
	if !plainKind(kind) {
		return 0, fmt.Errorf("wal: record kind %q needs JSON escaping", kind)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	l.fr.begin(l.seq+1, kind)
	if err := l.enc.Encode(v); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: encoding %s record: %w", kind, err)
	}
	n, err := l.fr.n, l.fr.err
	if err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: appending %s record to %s: %w", kind, l.path, err)
	}
	l.seq++
	l.size += int64(n)
	l.records++
	seq := l.seq
	l.mu.Unlock()
	if l.met.Records != nil {
		l.met.Records.Add(1)
	}
	if l.met.Bytes != nil {
		l.met.Bytes.Add(uint64(n))
	}
	return seq, nil
}

// plainKind reports whether JSON writes kind verbatim between its quotes,
// which is what lets framer hand-write the record prefix.
func plainKind(kind string) bool {
	for i := 0; i < len(kind); i++ {
		switch c := kind[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// framer is the writer under a Log's json.Encoder. Encode hands it the
// encoded value, newline-terminated, in a single Write; the framer makes
// that value the data of a Record —
//
//	{"seq":N,"kind":"K","data":VALUE}
//
// byte for byte what json.Marshal writes for the Record — and writes the
// frame header, the prefix, the value and the closing brace into the log's
// buffer, checksumming the pieces with crc32.Update. Only the short prefix
// is built here; the value itself is never copied. Used under the log
// mutex.
type framer struct {
	w      *bufio.Writer
	prefix []byte // {"seq":N,"kind":"K","data": of the record being framed
	n      int    // frame bytes written by the last Write
	err    error  // why the last Write wrote no frame, or a buffered-write error
}

// closing ends every record payload.
var closing = []byte{'}'}

// begin readies the framer for the record with sequence number seq.
func (fr *framer) begin(seq uint64, kind string) {
	fr.prefix = append(fr.prefix[:0], `{"seq":`...)
	fr.prefix = strconv.AppendUint(fr.prefix, seq, 10)
	fr.prefix = append(fr.prefix, `,"kind":"`...)
	fr.prefix = append(fr.prefix, kind...)
	fr.prefix = append(fr.prefix, `","data":`...)
	fr.n, fr.err = 0, nil
}

// Write frames one encoded value. It never returns an error — the Encoder
// would keep it for every later record — and reports through fr.err
// instead.
func (fr *framer) Write(p []byte) (int, error) {
	value := p[:len(p)-1] // drop Encode's newline
	ln := len(fr.prefix) + len(value) + len(closing)
	if ln > maxRecordBytes {
		fr.err = fmt.Errorf("%d-byte record exceeds the %d-byte bound", ln, maxRecordBytes)
		return len(p), nil
	}
	sum := crc32.Update(0, crc32.IEEETable, fr.prefix)
	sum = crc32.Update(sum, crc32.IEEETable, value)
	sum = crc32.Update(sum, crc32.IEEETable, closing)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ln))
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	// bufio.Writer errors are sticky: the last write reports any earlier
	// failure.
	fr.w.Write(hdr[:])
	fr.w.Write(fr.prefix)
	fr.w.Write(value)
	_, fr.err = fr.w.Write(closing)
	fr.n = headerSize + ln
	return len(p), nil
}

// Commit makes the record at seq durable according to the log's mode:
// ModeSync flushes and fsyncs inline, ModeGroup waits for the syncer's next
// covering fsync, ModeAsync schedules a background flush and returns
// immediately. An fsync failure is sticky — once the log has failed to make
// data durable, every subsequent Commit reports it.
func (l *Log) Commit(seq uint64) error {
	switch l.mode {
	case ModeSync:
		return l.syncNow()
	case ModeAsync:
		l.kick()
		return nil
	default:
		l.kick()
		return l.waitSynced(seq)
	}
}

// kick schedules one syncer pass; a pass already pending covers this
// request too.
func (l *Log) kick() {
	select {
	case l.syncReq <- struct{}{}:
	default:
	}
}

// waitSynced blocks until the durability watermark covers seq or the log
// fails.
func (l *Log) waitSynced(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.synced < seq && l.syncErr == nil {
		l.syncCond.Wait()
	}
	if l.synced >= seq {
		return nil
	}
	return l.syncErr
}

// syncNow flushes the buffer and fsyncs, then advances the watermark to
// every sequence number the barrier covered.
func (l *Log) syncNow() error {
	l.mu.Lock()
	target := l.seq
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()
	if err == nil {
		t0 := time.Now()
		err = f.Sync()
		if l.met.Fsync != nil {
			l.met.Fsync.Observe(time.Since(t0))
		}
		if l.met.Fsyncs != nil {
			l.met.Fsyncs.Add(1)
		}
	}
	l.finishSync(target, err)
	return err
}

// finishSync publishes a completed barrier: on success the watermark
// advances to target and every waiting Commit at or below it is released;
// on failure the error is recorded sticky.
func (l *Log) finishSync(target uint64, err error) {
	l.syncMu.Lock()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.synced {
		if l.met.BatchMax != nil {
			l.met.BatchMax.SetMax(int64(target - l.synced))
		}
		l.synced = target
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// syncLoop is the group-commit syncer: each requested pass fsyncs once,
// covering every record appended before the flush — concurrent committers
// share the barrier.
func (l *Log) syncLoop() {
	defer close(l.stopped)
	for {
		select {
		case <-l.stop:
			return
		case <-l.syncReq:
			l.syncNow() // failure is recorded sticky by finishSync
		}
	}
}

// Reset truncates the log. Call only after a durable snapshot captures
// every record up to LastSeq — compaction. Waiting committers are released:
// the snapshot that justified the reset covers them. Sequence numbers keep
// climbing; they are never reused.
func (l *Log) Reset() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Buffered-but-unflushed records are superseded by the snapshot too;
	// drop them with the file contents.
	l.w.Reset(l.f)
	err := l.f.Truncate(0)
	if err == nil {
		_, err = l.f.Seek(0, io.SeekStart)
	}
	if err == nil {
		err = l.f.Sync()
	}
	l.size, l.records = 0, 0
	target := l.seq
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: resetting %s: %w", l.path, err)
	}
	l.finishSync(target, nil)
	return nil
}

// Close stops the syncer, flushes and fsyncs any buffered records, and
// closes the file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.stopped
	err := l.syncNow()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastSeq returns the most recently assigned sequence number (or the MinSeq
// floor if nothing has been appended).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the byte length of the log's record prefix, buffered writes
// included.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of records in the current segment (since the
// last Reset), buffered writes included.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

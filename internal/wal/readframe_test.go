package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestReadFrameFlushesBufferedRecord: a record Append buffered but no
// Commit flushed reads back from its frame, and the frames replay reports
// are the ones Append did.
func TestReadFrameFlushesBufferedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	l := openT(t, path, Options{Mode: ModeGroup})
	var frames []Frame
	for i := 0; i < 3; i++ {
		seq, fr, err := l.Append("p", payload{N: i, S: "x"})
		if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() >= fr.Off+int64(fr.Len) {
			t.Fatalf("record %d is already in the file (%v): the read would not come from the buffer", seq, err)
		}
		rec, err := l.ReadFrame(fr)
		if err != nil {
			t.Fatalf("reading buffered record %d: %v", seq, err)
		}
		var got payload
		if err := json.Unmarshal(rec.Data, &got); err != nil || rec.Seq != seq || rec.Kind != "p" || got.N != i {
			t.Fatalf("record %d read back as %d %q %s (%v)", seq, rec.Seq, rec.Kind, rec.Data, err)
		}
		frames = append(frames, fr)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed log reads its segment file.
	if rec, err := l.ReadFrame(frames[1]); err != nil || rec.Seq != 2 {
		t.Fatalf("reading a closed log: %v", err)
	}
	i := 0
	l2 := openT(t, path, Options{Replay: func(rec *Record) error {
		if rec.Frame != frames[i] {
			t.Errorf("replay reports record %d at %+v, Append at %+v", rec.Seq, rec.Frame, frames[i])
		}
		i++
		return nil
	}})
	if i != len(frames) {
		t.Fatalf("replayed %d records, want %d", i, len(frames))
	}
	// Frames the segment no longer holds, or never held, are ErrNoFrame.
	if err := l2.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, fr := range []Frame{frames[1], {Off: 0, Len: 3}, {Off: -1, Len: 40}, {Off: 0, Len: headerSize + maxRecordBytes + 1}} {
		if _, err := l2.ReadFrame(fr); !errors.Is(err, ErrNoFrame) {
			t.Errorf("frame %+v: %v, want ErrNoFrame", fr, err)
		}
	}
	seq, _, err := l2.Append("q", payload{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A later record over an old frame's bytes fails its length or CRC check.
	if rec, err := l2.ReadFrame(frames[0]); err == nil && rec.Seq != seq {
		t.Errorf("an old frame read back record %d", rec.Seq)
	}
}

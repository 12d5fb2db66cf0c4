package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"share/internal/obs"
)

// The testdata files were captured from a share-server that served 60
// trades and 60 quotes: /proc/<pid>/stat, /debug/pprof/heap?gc=1&debug=1
// (profile records trimmed, MemStats block kept) and /v1/metrics.

func TestParseProcStat(t *testing.T) {
	raw, err := os.ReadFile("testdata/proc_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	u, s, err := parseProcStat(raw)
	if err != nil || u != 12 || s != 3 {
		t.Fatalf("captured stat: utime %d stime %d err %v, want 12 3", u, s, err)
	}
	// A command name may hold spaces and parentheses; fields count from
	// the last ')'.
	odd := []byte("77 (a) (b c) S 1 77 1 0 -1 4194304 9 0 0 0 250 40 0 0 20 0 3 0 5\n")
	if u, s, err := parseProcStat(odd); err != nil || u != 250 || s != 40 {
		t.Fatalf("odd command: utime %d stime %d err %v, want 250 40", u, s, err)
	}
	for _, bad := range []string{"", "77 share-server S 1", "77 (x) S 1 2 3"} {
		if _, _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
}

func TestParseHeapMemStats(t *testing.T) {
	raw, err := os.ReadFile("testdata/heap_debug1.txt")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := parseHeapMemStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{HeapAlloc: 558600, TotalAlloc: 14829224, Mallocs: 72124, NumGC: 6, NumForcedGC: 1}
	if ms != want {
		t.Fatalf("got %+v, want %+v", ms, want)
	}
	if _, err := parseHeapMemStats([]byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n# HeapAlloc = 5\n")); err == nil {
		t.Error("profile without a MemStats block: no error")
	}
}

func TestParseMetrics(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseMetrics(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["wal/records"]; got != 124 {
		t.Errorf("wal/records = %d, want 124", got)
	}
	if got := snap.Endpoints["POST /v1/trades"].Count; got != 60 {
		t.Errorf("POST /v1/trades count = %d, want 60", got)
	}
	if got := snap.Endpoints["wal/fsync"].Latency.MeanSeconds; got != 0.000697 {
		t.Errorf("wal/fsync mean = %g, want 0.000697", got)
	}
	if _, err := parseMetrics([]byte(`{"uptime_seconds":1}`)); err == nil {
		t.Error("snapshot without endpoints: no error")
	}
	if _, err := parseMetrics([]byte(`{`)); err == nil {
		t.Error("truncated snapshot: no error")
	}
}

// TestSnapshotDiffs pins the phase arithmetic on registry snapshots: a
// counter's growth, and the mean of only the samples observed between two
// snapshots of an Observe-only series.
func TestSnapshotDiffs(t *testing.T) {
	snap := func(fsyncs uint64, mean float64) obs.Snapshot {
		return obs.Snapshot{
			Endpoints: map[string]obs.EndpointStats{"wal/fsync": {Latency: obs.LatencyStats{MeanSeconds: mean}}},
			Counters:  map[string]uint64{"wal/fsyncs": fsyncs},
		}
	}
	// 10 fsyncs averaging 1 ms, then 30 more averaging 2 ms: the overall
	// mean is 1.75 ms and the phase mean 2 ms.
	a, b := snap(10, 0.001), snap(40, 0.00175)
	if got := counterDelta(a, b, "wal/fsyncs"); got != 30 {
		t.Errorf("counterDelta = %g, want 30", got)
	}
	if got := meanOver(a, b, "wal/fsync", 10, 40); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("meanOver = %g, want 0.002", got)
	}
	if got := meanOver(a, a, "wal/fsync", 10, 10); got != 0 {
		t.Errorf("meanOver with no new samples = %g, want 0", got)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to what the generator
// prints: workloads it can run and every metric's name and unit, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, err := makeScript(w.Name, 1, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, c := range []struct {
		name string
		json []named
		prog []struct{ Name, Unit string }
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the generator", c.name, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i].Name != c.prog[i].Name || c.json[i].Unit != c.prog[i].Unit {
				t.Errorf("%s %d: %+v vs %+v", c.name, i, c.json[i], c.prog[i])
			}
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"share/internal/obs"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat returns a process's user and system CPU ticks from the
// contents of /proc/<pid>/stat. The command name (field 2) is parenthesised
// and may hold spaces, so fields are counted from the last ')'.
func parseProcStat(raw []byte) (utime, stime int64, err error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", raw)
	}
	f := strings.Fields(string(raw[end+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// memStats is the part of runtime.MemStats the benchmark reads from a
// server's heap profile.
type memStats struct {
	HeapAlloc   uint64
	TotalAlloc  uint64
	Mallocs     uint64
	NumGC       uint64
	NumForcedGC uint64
}

// parseHeapMemStats reads the "# runtime.MemStats" block that
// /debug/pprof/heap?debug=1 appends to the text profile: lines of the form
// "# Name = value".
func parseHeapMemStats(raw []byte) (memStats, error) {
	var ms memStats
	fields := map[string]*uint64{
		"HeapAlloc":   &ms.HeapAlloc,
		"TotalAlloc":  &ms.TotalAlloc,
		"Mallocs":     &ms.Mallocs,
		"NumGC":       &ms.NumGC,
		"NumForcedGC": &ms.NumForcedGC,
	}
	seen := 0
	in := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			in = true
			continue
		}
		if !in {
			continue
		}
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if dst := fields[name]; dst != nil {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return ms, fmt.Errorf("heap profile %s: %w", name, err)
			}
			*dst = v
			seen++
		}
	}
	if err := sc.Err(); err != nil {
		return ms, fmt.Errorf("heap profile: %w", err)
	}
	if seen != len(fields) {
		return ms, fmt.Errorf("heap profile: found %d of %d MemStats fields", seen, len(fields))
	}
	return ms, nil
}

// parseMetrics decodes a /v1/metrics body.
func parseMetrics(raw []byte) (obs.Snapshot, error) {
	var s obs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("metrics snapshot: %w", err)
	}
	if s.Endpoints == nil {
		return s, fmt.Errorf("metrics snapshot: no endpoints")
	}
	return s, nil
}

// counterDelta is a registry counter's growth between two snapshots.
func counterDelta(before, after obs.Snapshot, name string) float64 {
	return float64(after.Counters[name]) - float64(before.Counters[name])
}

// meanOver is the mean latency, in seconds, of the samples an endpoint
// observed between two snapshots, given how many there were. Observe-only
// series export their mean but no count, so the caller supplies it.
func meanOver(before, after obs.Snapshot, name string, nBefore, nAfter float64) float64 {
	if nAfter <= nBefore {
		return 0
	}
	sum := after.Endpoints[name].Latency.MeanSeconds*nAfter - before.Endpoints[name].Latency.MeanSeconds*nBefore
	return sum / (nAfter - nBefore)
}

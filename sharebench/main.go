// Command sharebench is the benchmark of the served Share market. It runs
// share-server as a child process on a fresh snapshot directory, drives one
// workload's seed-generated request script at it over loopback HTTP, checks
// every output against an in-process replay of the same script, and prints
// the workload's metrics. With -trace 1 the replay records spans around the
// calls each HTTP handler makes and the per-layer metrics are printed
// instead. See README.md for the workloads and metrics.
//
// Usage (from the repository root, after building both binaries; run.sh
// does all of it):
//
//	sharebench -server BIN -work DIR -workload quote|trade -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sharebench: ")
	// The generator's own collections should seldom delay a request; its
	// live heap is small, so a larger multiplier costs little memory.
	debug.SetGCPercent(400)
	ok, err := run()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run() (bool, error) {
	workload := flag.String("workload", "", "workload: quote or trade")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; sizes the script")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	bin := flag.String("server", "", "share-server binary")
	workRoot := flag.String("work", "", "directory for server data, logs and spans")
	flag.Parse()
	if *bin == "" || *workRoot == "" {
		return false, errors.New("-server and -work are required")
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	s, err := makeScript(*workload, *seed, *seconds)
	if err != nil {
		return false, err
	}
	work := filepath.Join(*workRoot, fmt.Sprintf("%s-seed%d-%d", s.Workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)

	sr, err := runServed(*bin, work, s)
	if err != nil {
		return false, err
	}

	// The replays run with the server's parallelism, not the generator's.
	runtime.GOMAXPROCS(runtime.NumCPU())
	traced := *trace == 1
	ref, err := replayOnce(s, filepath.Join(work, "replay"), false)
	if err != nil {
		return false, fmt.Errorf("replay: %w", err)
	}
	checks := gate(s, sr, ref)
	if s.Workload == "quote" {
		if err := ref.checkSNE(); err != nil {
			checks = append(checks, fmt.Sprintf("served quote is not a Stackelberg-Nash equilibrium: %v", err))
		}
	}
	ref.close()

	var metrics []metric
	if traced {
		// The first replay in a process runs cold; trace overhead compares
		// the traced replay with a second, warm, untraced one run just
		// before it.
		base, err := replayOnce(s, filepath.Join(work, "baseline"), false)
		if err != nil {
			return false, fmt.Errorf("baseline replay: %w", err)
		}
		base.close()
		tr, err := replayOnce(s, filepath.Join(work, "traced"), true)
		if err != nil {
			return false, fmt.Errorf("traced replay: %w", err)
		}
		if err := sameStates("traced replay vs replay", ref.states, tr.states); err != nil {
			checks = append(checks, err.Error())
		}
		checks = append(checks, sameOutcome("traced replay vs replay", s, ref.out, tr.out)...)
		pr, err := tr.runProbes(work, sr.killedDir)
		if err != nil {
			tr.close()
			return false, fmt.Errorf("probes: %w", err)
		}
		spans := filepath.Join(*workRoot, fmt.Sprintf("spans-%s-seed%d.csv", s.Workload, *seed))
		if err := tr.writeSpans(spans); err != nil {
			tr.close()
			return false, fmt.Errorf("writing spans: %w", err)
		}
		tr.close()
		fmt.Printf("spans: %s\n", spans)
		metrics = layerMetrics(s, sr, base, tr, pr)
	} else {
		metrics = e2eMetrics(sr)
	}

	report(s, *seed, *trace, sr)
	if len(checks) > 0 {
		for _, c := range checks {
			log.Printf("check failed: %s", c)
		}
		metrics = nil
	}
	printResult(len(checks) == 0, sr.attempted, sr.failed, metrics)
	return len(checks) == 0, nil
}

// replayOnce replays the script in process.
func replayOnce(s *script, dir string, traced bool) (*replay, error) {
	rp, err := newReplay(s, dir, traced)
	if err != nil {
		return nil, err
	}
	if err := rp.run(); err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

// gate checks the served run against the replay: every response body, the
// acknowledged final state of every market and the state after each
// reboot.
func gate(s *script, sr *served, ref *replay) []string {
	checks := append([]string(nil), sr.checks...)
	for _, f := range sr.failures {
		checks = append(checks, "request failed: "+f)
	}
	checks = append(checks, sameOutcome("served vs replay", s, sr.out, ref.out)...)
	if err := sameStates("served vs replay", sr.acked, ref.states); err != nil {
		checks = append(checks, err.Error())
	}
	return checks
}

// sameOutcome compares two executions' response bodies: non-trade
// responses by script position, trades by market and round.
func sameOutcome(label string, s *script, a, b *outcome) []string {
	var out []string
	mismatch := 0
	for i, o := range s.Closed {
		if o.Kind == kTrade {
			continue
		}
		ha, oka := a.hashes[i]
		hb, okb := b.hashes[i]
		if !oka || !okb || ha != hb {
			if mismatch == 0 {
				out = append(out, fmt.Sprintf("%s: %s %d response differs (present %t/%t)", label, o.Kind, i, oka, okb))
			}
			mismatch++
		}
	}
	if len(a.trades) != len(b.trades) {
		out = append(out, fmt.Sprintf("%s: %d committed trades vs %d", label, len(a.trades), len(b.trades)))
	}
	for k, ha := range a.trades {
		if hb, ok := b.trades[k]; !ok || ha != hb {
			out = append(out, fmt.Sprintf("%s: market %s round %d trade response differs", label, s.Markets[k.market].ID, k.round))
			break
		}
	}
	if mismatch > 1 {
		out = append(out, fmt.Sprintf("%s: %d responses differ in all", label, mismatch))
	}
	return out
}

// sameStates compares two readings of every market's state bit for bit.
func sameStates(label string, a, b []marketState) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d markets vs %d", label, len(a), len(b))
	}
	for i := range a {
		switch {
		case !reflect.DeepEqual(a[i].Info, b[i].Info):
			return fmt.Errorf("%s: market %s info %+v vs %+v", label, a[i].Info.ID, a[i].Info, b[i].Info)
		case !slices.Equal(a[i].Weights, b[i].Weights):
			return fmt.Errorf("%s: market %s weights differ", label, a[i].Info.ID)
		case !reflect.DeepEqual(a[i].Sellers, b[i].Sellers):
			return fmt.Errorf("%s: market %s sellers (weights, ε spent) differ", label, a[i].Info.ID)
		}
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func printResult(correct bool, attempted, failed int, metrics []metric) {
	res := resultJSON{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricJSON, len(metrics))}
	for _, m := range metrics {
		res.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		log.Fatalf("encoding result: %v", err)
	}
	fmt.Println(string(raw))
}

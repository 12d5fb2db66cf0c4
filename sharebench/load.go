package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"share/internal/httpapi"
	"share/internal/obs"
	"share/internal/pool"
)

// reps is how many set-ups and how many kill -9 + reboots a served run
// times; medians are reported.
const reps = 7

// bodySeed keys the body hashes that pair served responses with the
// in-process replay's; both sides hash in this process.
var bodySeed = maphash.MakeSeed()

func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
}

// conn is one HTTP/1.1 connection to the server: a client whose transport
// holds at most one socket.
type conn struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{c: &http.Client{Transport: newTransport(), Timeout: 2 * time.Minute}, base: base}
}

// do sends one request; the returned body is valid until the next call.
func (c *conn) do(r request) (int, []byte, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, c.base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// wantStatus is the success status of each request kind.
func wantStatus(k kind) int {
	if k == kTrade || k == kRegister {
		return http.StatusCreated
	}
	return http.StatusOK
}

// sample is one measured request.
type sample struct {
	kind kind
	lat  time.Duration
}

// tradeKey names one committed round: market index and round number.
type tradeKey struct {
	market int
	round  int
}

// outcome pairs the responses of one script execution with the replay's.
type outcome struct {
	hashes map[int]uint64      // script index → body hash (non-trade ops)
	trades map[tradeKey]uint64 // committed round → stable body hash
}

func newOutcome() *outcome {
	return &outcome{hashes: make(map[int]uint64), trades: make(map[tradeKey]uint64)}
}

// parseRound reads the round number that leads a trade response body.
func parseRound(body []byte) (int, error) {
	const prefix = `{"round":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, fmt.Errorf("trade body does not start with %s", prefix)
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, fmt.Errorf("trade body: unterminated round")
	}
	return strconv.Atoi(string(rest[:end]))
}

// marketState is what the correctness gate compares between the served
// run, its reboots and the in-process replay.
type marketState struct {
	Info    pool.Info
	Weights []float64
	Sellers []httpapi.SellerInfo
}

// served is everything the timed run against the real server measured.
type served struct {
	setupS    []float64
	samples   []sample
	done      int // requests completed
	attempted int
	failed    int
	failures  []string // failed requests (the first few)
	checks    []string // failed correctness checks
	out       *outcome
	wall      time.Duration // measured phase
	serverCPU time.Duration
	benchCPU  time.Duration
	mem0      memStats
	mem1      memStats
	met0      obs.Snapshot // server registry at the phase boundaries
	met1      obs.Snapshot
	acked     []marketState
	recoveryS []float64
	killedDir string // copy of the directory as the first kill -9 left it
}

func (r *served) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runServed sets up the server and measures its phase in reps blocks,
// then kills and reboots it reps times. Between blocks a fresh server is
// set up on its own directory beside the idle measured one and killed, so
// the set-up samples and the phase spread over the whole run: on a shared
// machine a slow stretch lasting seconds would move several back-to-back
// samples together.
func runServed(bin, work string, s *script) (*served, error) {
	// One P is enough to drive two connections, and it leaves the server
	// at least one CPU on a two-CPU machine.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	r := &served{out: newOutcome()}
	dir := filepath.Join(work, "server-0")
	sv, err := r.setUp(bin, dir, s)
	if err != nil {
		return nil, err
	}
	defer func() { sv.kill() }()

	sideSetUp := func(block int) error {
		fresh, err := r.setUp(bin, filepath.Join(work, fmt.Sprintf("server-%d", block)), s)
		if err != nil {
			return err
		}
		fresh.kill()
		return nil
	}
	if err := r.measure(sv, s, sideSetUp); err != nil {
		return nil, err
	}
	if r.acked, err = readStates(sv, s); err != nil {
		return nil, fmt.Errorf("reading final state: %w", err)
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		sv.kill()
		killed := time.Since(t0)
		if rep == 0 {
			// The copy feeds the in-process restore probe; it is not part
			// of recovery.
			r.killedDir = filepath.Join(work, "killed")
			if err := copyDir(dir, r.killedDir); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		if err := sv.start(); err != nil {
			return nil, err
		}
		if err := sv.waitHealthy(time.Minute); err != nil {
			return nil, fmt.Errorf("reboot %d: %w", rep+1, err)
		}
		r.recoveryS = append(r.recoveryS, (killed + time.Since(t1)).Seconds())
		got, err := readStates(sv, s)
		if err != nil {
			return nil, fmt.Errorf("reboot %d: reading state: %w", rep+1, err)
		}
		if err := sameStates("after kill -9 and reboot", r.acked, got); err != nil {
			r.checks = append(r.checks, fmt.Sprintf("reboot %d: %v", rep+1, err))
		}
	}
	return r, nil
}

// setUp boots a server on a fresh directory and runs the script's set-up,
// recording its time in r.setupS. The server is left running.
func (r *served) setUp(bin, dir string, s *script) (*server, error) {
	sv, err := newServer(bin, dir, s)
	if err != nil {
		return nil, err
	}
	d, err := runSetUp(sv, s)
	if err != nil {
		sv.kill()
		return nil, fmt.Errorf("set-up %d: %w", len(r.setupS)+1, err)
	}
	r.setupS = append(r.setupS, d.Seconds())
	return sv, nil
}

// runSetUp boots the server and runs the script's set-up: market creation,
// registrations and warm-up. It returns the time from exec to the end of
// warm-up.
func runSetUp(sv *server, s *script) (time.Duration, error) {
	t0 := time.Now()
	if err := sv.start(); err != nil {
		return 0, err
	}
	if err := sv.waitHealthy(time.Minute); err != nil {
		return 0, err
	}
	conns := make([]*conn, s.Conns)
	for i := range conns {
		conns[i] = newConn(sv.api)
		defer conns[i].close()
	}
	for _, m := range s.Markets {
		if m.ID == defaultMarket {
			continue
		}
		st, body, err := conns[0].do(request{"POST", "/v2/markets", m.createBody()})
		if err != nil || st != http.StatusCreated {
			return 0, fmt.Errorf("creating market %s: %d %s %v", m.ID, st, body, err)
		}
	}
	for _, phase := range [][]op{s.Register, s.Warmup} {
		if err := sendByMarket(conns, s, phase); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// sendByMarket sends ops over the connections in script order, connection
// c taking the ops of every market whose index is c modulo the connection
// count. Each market's requests keep their order, so the state set-up
// reaches does not depend on how the connections interleave; with two
// connections the server always has a request to work on, instead of
// every fsync and wake-up adding to the time.
func sendByMarket(conns []*conn, s *script, ops []op) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for i, o := range ops {
				if o.Market%len(conns) != ci {
					continue
				}
				st, body, err := c.do(s.render(o))
				if err != nil || st != wantStatus(o.Kind) {
					errs[ci] = fmt.Errorf("%s %d: %d %s %v", o.Kind, i, st, body, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the timed phase: Conns closed-loop connections over the
// shared script, in reps blocks of consecutive ops. Before every block but
// the first it calls between with the block's number; the server idles
// meanwhile, and only the blocks are timed.
func (r *served) measure(sv *server, s *script, between func(block int) error) error {
	reqs := make([]request, len(s.Closed))
	for i, o := range s.Closed {
		reqs[i] = s.render(o)
	}
	conns := make([]*conn, s.Conns)
	for i := range conns {
		conns[i] = newConn(sv.api)
		defer conns[i].close()
	}
	// Open (or reopen) each connection before a block's clock starts.
	prime := func() error {
		for _, c := range conns {
			if st, _, err := c.do(request{"GET", "/v1/health", nil}); err != nil || st != http.StatusOK {
				return fmt.Errorf("priming connection: %d %v", st, err)
			}
		}
		return nil
	}
	if err := prime(); err != nil {
		return err
	}

	var err error
	if r.mem0, err = sv.memStats(); err != nil {
		return err
	}
	if r.met0, err = sv.metrics(); err != nil {
		return err
	}

	results := make([]connResult, len(conns))
	for ci := range results {
		results[ci].hashes = make(map[int]uint64)
		results[ci].trades = make(map[tradeKey]uint64)
	}
	for b := 0; b < reps; b++ {
		if b > 0 {
			if err := between(b); err != nil {
				return err
			}
			if err := prime(); err != nil {
				return err
			}
		}
		lo, hi := b*len(reqs)/reps, (b+1)*len(reqs)/reps
		ticks0, err := sv.cpuTicks()
		if err != nil {
			return err
		}
		bench0 := cpuTime()
		start := time.Now()
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for ci := range conns {
			wg.Add(1)
			go func(res *connResult, c *conn) {
				defer wg.Done()
				res.run(s, reqs, &next, hi, c)
			}(&results[ci], conns[ci])
		}
		wg.Wait()
		r.wall += time.Since(start)
		r.benchCPU += cpuTime() - bench0
		ticks1, err := sv.cpuTicks()
		if err != nil {
			return err
		}
		r.serverCPU += time.Duration(ticks1-ticks0) * time.Second / clockTicks
	}
	if r.mem1, err = sv.memStats(); err != nil {
		return err
	}
	if r.met1, err = sv.metrics(); err != nil {
		return err
	}

	r.attempted = len(s.Closed)
	for _, res := range results {
		r.samples = append(r.samples, res.samples...)
		for i, h := range res.hashes {
			r.out.hashes[i] = h
		}
		for k, h := range res.trades {
			r.out.trades[k] = h
		}
		for _, f := range res.failures {
			r.fail("%s", f)
		}
	}
	r.done = len(r.samples)
	return nil
}

// connResult is what one closed-loop connection saw in the phase.
type connResult struct {
	samples  []sample
	hashes   map[int]uint64
	trades   map[tradeKey]uint64
	failures []string
}

// run sends the script's requests from the shared cursor next until the
// cursor reaches end, timing each and hashing its body.
func (res *connResult) run(s *script, reqs []request, next *atomic.Int64, end int, c *conn) {
	for {
		i := int(next.Add(1) - 1)
		if i >= end {
			return
		}
		o := s.Closed[i]
		t := time.Now()
		st, body, err := c.do(reqs[i])
		lat := time.Since(t)
		if err != nil || st != wantStatus(o.Kind) {
			res.failures = append(res.failures, fmt.Sprintf("%s %d: %d %.200s %v", o.Kind, i, st, body, err))
			continue
		}
		res.samples = append(res.samples, sample{kind: o.Kind, lat: lat})
		if o.Kind == kTrade {
			round, err := parseRound(body)
			if err != nil {
				res.failures = append(res.failures, fmt.Sprintf("trade %d: %v", i, err))
				continue
			}
			res.trades[tradeKey{o.Market, round}] = maphash.Bytes(bodySeed, stableBody(kTrade, body))
		} else {
			res.hashes[i] = maphash.Bytes(bodySeed, body)
		}
	}
}

// readStates reads every scripted market's state over the control client.
func readStates(sv *server, s *script) ([]marketState, error) {
	out := make([]marketState, len(s.Markets))
	for i, m := range s.Markets {
		base := sv.api + "/v2/markets/" + m.ID
		for _, part := range []struct {
			path string
			dst  any
		}{{"", &out[i].Info}, {"/weights", &out[i].Weights}, {"/sellers", &out[i].Sellers}} {
			raw, err := sv.get(base + part.path)
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(raw, part.dst); err != nil {
				return nil, fmt.Errorf("decoding %s%s: %w", base, part.path, err)
			}
		}
	}
	return out, nil
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

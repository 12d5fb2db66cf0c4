package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"share/internal/obs"
)

// server is one share-server child process.
type server struct {
	bin   string
	args  []string
	api   string // base URL of the API listener
	pprof string // base URL of the pprof side listener
	cmd   *exec.Cmd
	done  chan struct{} // closed once the child has exited and been reaped
	ctl   *http.Client  // control requests outside measured phases
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newServer prepares (but does not start) a server over dir.
func newServer(bin, dir string, s *script) (*server, error) {
	apiPort, err := freePort()
	if err != nil {
		return nil, err
	}
	pprofPort, err := freePort()
	if err != nil {
		return nil, err
	}
	api := "127.0.0.1:" + strconv.Itoa(apiPort)
	pp := "127.0.0.1:" + strconv.Itoa(pprofPort)
	args := []string{
		"-addr", api,
		"-seed", strconv.FormatInt(s.ServerSeed, 10),
		"-snapshot-dir", dir,
		"-durability", "group",
		"-pprof", pp,
	}
	if s.ServerBudget > 0 {
		args = append(args, "-epsilon-budget", strconv.FormatFloat(s.ServerBudget, 'g', -1, 64))
	}
	return &server{
		bin: bin, args: args,
		api: "http://" + api, pprof: "http://" + pp,
		ctl: &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// serverEnv is the generator's environment minus any runtime tuning, so the
// server runs with Go's defaults.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOGC", "GODEBUG", "GOMAXPROCS", "GOMEMLIMIT":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// start execs the server with its output on /dev/null: never a pipe the
// generator would have to drain, and no log file whose writes would share
// the journal with the WAL's fsyncs.
func (sv *server) start() error {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	cmd := exec.Command(sv.bin, sv.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Env = serverEnv()
	// If the generator dies, the kernel takes the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting share-server: %w", err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // a killed child always reports its signal
		close(done)
	}()
	sv.cmd, sv.done = cmd, done
	return nil
}

// waitHealthy polls the health endpoint until the server answers 200. The
// server restores its directory before it listens, so the first answer
// marks a finished restore.
func (sv *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := sv.ctl.Get(sv.api + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("share-server not healthy after %s (last error: %v)", timeout, err)
		}
		if sv.exited() {
			return fmt.Errorf("share-server exited during boot; run it by hand with %v to see why", sv.args)
		}
		time.Sleep(time.Millisecond)
	}
}

// exited reports whether the child has exited.
func (sv *server) exited() bool {
	select {
	case <-sv.done:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits until the child is reaped.
func (sv *server) kill() {
	if sv.cmd == nil {
		return
	}
	_ = sv.cmd.Process.Kill() // fails only if the child already exited
	<-sv.done
	sv.cmd = nil
	sv.ctl.CloseIdleConnections()
}

// cpuTicks reads the server's user+system CPU time in clock ticks.
func (sv *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(sv.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStat(raw)
	return u + s, err
}

// memStats forces two GCs in the server and reads its MemStats. The
// second collection empties the sync.Pool victim caches the first one
// leaves behind (encoding/json keeps its last, possibly snapshot-sized,
// buffer there), so HeapAlloc counts live data only.
func (sv *server) memStats() (memStats, error) {
	if _, err := sv.get(sv.pprof + "/debug/pprof/heap?gc=1"); err != nil {
		return memStats{}, err
	}
	raw, err := sv.get(sv.pprof + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return memStats{}, err
	}
	return parseHeapMemStats(raw)
}

// metrics reads the server's /v1/metrics registry snapshot.
func (sv *server) metrics() (obs.Snapshot, error) {
	raw, err := sv.get(sv.api + "/v1/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	return parseMetrics(raw)
}

// get fetches a URL on the control client, failing on non-200.
func (sv *server) get(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := sv.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return raw, nil
}

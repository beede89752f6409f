package experiments

import (
	"net"
	"net/http"
	"os"

	"autotune/internal/server"
)

// service.go boots the real autotuned server (real store, real fsync
// barriers) on a loopback listener for experiments that need a daemon in
// the loop (DeepHistoryService). Service throughput and latency are not
// measured from here — client and daemon would share a process — but by
// the repo benchmark (benchmark/, BENCHMARK.json), which runs the daemon
// as a subprocess.

// serviceSpec is a small mixed space, so wire payloads look like real
// tuning traffic.
func serviceSpec(opt string, seed int64) server.StudySpec {
	return server.StudySpec{
		Optimizer: opt,
		Seed:      seed,
		Space: []server.ParamSpec{
			{Name: "cache_mb", Kind: "int", Min: 64, Max: 8192, Log: true},
			{Name: "flush_interval", Kind: "float", Min: 0.01, Max: 30, Log: true},
			{Name: "policy", Kind: "categorical", Values: []string{"lru", "fifo", "arc", "clock"}},
			{Name: "direct_io", Kind: "bool"},
		},
	}
}

// serviceEnv is a booted daemon on a loopback listener plus a client
// pointed at it. Close tears all of it down, store directory included.
type serviceEnv struct {
	srv    *server.Server
	hs     *http.Server
	dir    string
	client *server.Client
}

// startService boots the real daemon (real store, real fsync barriers) in a
// temp directory on an ephemeral loopback port.
func startService(opts server.Options) (*serviceEnv, error) {
	dir, err := os.MkdirTemp("", "autotuned-bench")
	if err != nil {
		return nil, err
	}
	if opts.StoreDir == "" {
		opts.StoreDir = dir
	}
	srv, err := server.New(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		//autolint:ignore droppederr best-effort cleanup; the listen error is what the caller needs
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	//autolint:ignore goleak Serve exits when serviceEnv.Close releases the listener
	go hs.Serve(ln) //autolint:ignore nakedgo http.Server guards each connection itself; Serve only returns on Close
	return &serviceEnv{
		srv: srv, hs: hs, dir: dir,
		client: server.NewClient("http://" + ln.Addr().String()),
	}, nil
}

func (e *serviceEnv) Close() error {
	err := e.hs.Close()
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// Package server is the tuning-as-a-service front door: a stdlib net/http
// daemon that multiplexes thousands of concurrent studies over the
// framework's optimizers and persists every acknowledged observation
// through the crash-safe study store before responding. The contract is
// the one the paper's service framing demands:
//
//   - Exactly-once observe: an acked observation is durable (fsynced
//     before the ack) and idempotent (deduped by study and trial ID), so
//     kill -9 plus restart loses nothing and client retries are safe.
//   - Deterministic resume: a study's suggest stream is a pure function
//     of its seed and its durable history, so restarts are reproducible.
//   - Fault isolation: a panicking strategy degrades its own study to
//     read-only behind a 500; a poisoned store degrades the server to
//     read-only behind 503s; sibling studies keep serving.
//   - Bounded overload: suggests past the admission limit shed with 429 +
//     Retry-After, and /readyz flips at a high-water mark below the limit
//     while /healthz keeps reporting the process alive.
//   - Graceful drain: SIGTERM (via ListenAndServe's context) stops
//     admissions, finishes in-flight requests, seals the study log with a
//     durable terminator, and exits clean.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autotune/internal/sched"
	"autotune/internal/studystore"
)

// Options configures a Server. The zero value serves from StoreDir with
// sensible defaults for everything else.
type Options struct {
	// StoreDir is the study-store directory (required; created if absent).
	StoreDir string
	// SegmentBytes overrides the store's segment rotation threshold.
	SegmentBytes int64
	// AdmissionLimit bounds concurrent suggest requests (default 64);
	// excess load is shed with 429 + Retry-After.
	AdmissionLimit int
	// ReadyHighWater is the suggest occupancy at which /readyz starts
	// failing, before the hard limit starts bouncing requests
	// (default 3/4 of AdmissionLimit).
	ReadyHighWater int
	// RequestTimeout is the per-request deadline derived from each
	// request's context (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain in ListenAndServe
	// (default: wait indefinitely).
	DrainTimeout time.Duration
	// MaxSuggestBatch caps `count` in one suggest call (default 512).
	MaxSuggestBatch int
	// MaxObserveBatch caps observations in one observe call (default 4096).
	MaxObserveBatch int
	// MaxStudies caps live studies (default 65536).
	MaxStudies int
	// DefaultOptimizer names the strategy used when a create omits one
	// (default "bo").
	DefaultOptimizer string
	// Shards partitions studies across independently locked shards
	// (default GOMAXPROCS): suggest/observe for studies on different
	// shards never contend on a shared mutex. Study → shard by name hash.
	Shards int
	// ShardStores gives every shard its own store directory
	// (StoreDir/shard-NNN) so shards do not even share a commit queue —
	// useful when the store directories live on independent devices. The
	// root StoreDir keeps serving any studies it already holds. Default:
	// one store shared by all shards (group commit coalesces their
	// writes into shared fsyncs).
	ShardStores bool
	// Log receives operational messages; nil means silent.
	Log *log.Logger
}

func (o Options) withDefaults() Options {
	if o.AdmissionLimit <= 0 {
		o.AdmissionLimit = 64
	}
	if o.ReadyHighWater <= 0 {
		o.ReadyHighWater = o.AdmissionLimit * 3 / 4
		if o.ReadyHighWater < 1 {
			o.ReadyHighWater = 1
		}
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxSuggestBatch <= 0 {
		o.MaxSuggestBatch = 512
	}
	if o.MaxObserveBatch <= 0 {
		o.MaxObserveBatch = 4096
	}
	if o.MaxStudies <= 0 {
		o.MaxStudies = 65536
	}
	if o.DefaultOptimizer == "" {
		o.DefaultOptimizer = "bo"
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	return o
}

// Server is the daemon. Create with New, serve with ListenAndServe (or
// mount it as an http.Handler), stop with Drain or Close.
//
// Studies are partitioned across shards by name hash: each shard owns
// its slice of the session map behind its own locks and tracks its own
// in-flight requests, so requests for studies on different shards never
// contend on a shared mutex. Drain is a barrier across every shard.
type Server struct {
	opts Options

	shards []*shard
	// stores are the distinct open study stores: the root StoreDir store
	// first, then any per-shard stores when Options.ShardStores is set.
	stores []*studystore.Store

	draining atomic.Bool
	poisoned atomic.Bool
	nstudies atomic.Int64 // live sessions across all shards

	adm *admission
	m   counters
	mux *http.ServeMux

	sealOnce sync.Once
	sealErr  error

	// testGate, when set before serving, makes suggest handlers block
	// after admission until the channel closes — the hook the overload
	// test uses to saturate the queue deterministically.
	testGate chan struct{}
}

// shard is one partition of the study space: its own session map, its
// own creation serialization, its own in-flight tracking, and the store
// its new studies are created in.
type shard struct {
	// store is the create-target for new studies on this shard; recovered
	// sessions keep appending to whichever store their history lives in.
	store *studystore.Store

	// drainMu tracks this shard's in-flight API requests: each holds the
	// read side for its duration; Drain takes the write side of every
	// shard as a barrier. TryRLock keeps new requests from queueing
	// behind a waiting drain.
	drainMu sync.RWMutex

	mu       sync.RWMutex // guards sessions
	sessions map[string]*session

	createMu sync.Mutex // serializes study creation against the store
}

// session returns the shard's live session for a study, or nil.
func (sh *shard) session(study string) *session {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[study]
}

// shardOf routes a study name to its shard: an FNV-1a hash, stable
// across restarts for a fixed shard count. (Histories survive a changed
// count regardless — sessions append to the store they were recovered
// from, wherever the hash now routes their requests.)
func (s *Server) shardOf(study string) *shard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(study); i++ {
		h ^= uint32(study[i])
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// shardDirName renders the store subdirectory for shard i under
// Options.ShardStores.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// New opens (or creates) the study stores under opts.StoreDir and
// recovers every persisted study into a live session on its hash shard.
// Recovery is read-only on the optimizer side: each study's observations
// are replayed in trial-ID order into a freshly seeded strategy, so the
// daemon resumes exactly where the durable history says it was. With
// ShardStores, every store directory found on disk is opened — including
// shards beyond the current count — so histories survive shard-count
// changes; a recovered session keeps appending to the store it came from.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.StoreDir == "" {
		return nil, errors.New("server: Options.StoreDir is required")
	}
	stOpts := studystore.Options{SegmentBytes: opts.SegmentBytes}
	root, err := studystore.Open(opts.StoreDir, stOpts)
	if err != nil {
		return nil, fmt.Errorf("server: open store: %w", err)
	}
	s := &Server{
		opts:   opts,
		stores: []*studystore.Store{root},
		adm:    newAdmission(opts.AdmissionLimit, opts.ReadyHighWater),
	}
	closeAll := func() {
		for _, st := range s.stores {
			//autolint:ignore droppederr already failing; nothing was written through these handles
			st.Close()
		}
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{store: root, sessions: make(map[string]*session)}
	}
	if opts.ShardStores {
		// Open the store for every shard index, plus any shard directory
		// a previous (larger) configuration left behind.
		want := map[string]bool{}
		for i := range s.shards {
			want[shardDirName(i)] = true
		}
		if entries, err := os.ReadDir(opts.StoreDir); err == nil {
			for _, e := range entries {
				if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
					want[e.Name()] = true
				}
			}
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		byName := map[string]*studystore.Store{}
		for _, name := range names {
			st, err := studystore.Open(filepath.Join(opts.StoreDir, name), stOpts)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("server: open store %s: %w", name, err)
			}
			s.stores = append(s.stores, st)
			byName[name] = st
		}
		for i := range s.shards {
			s.shards[i].store = byName[shardDirName(i)]
		}
	}
	for _, st := range s.stores {
		for _, study := range st.Studies() {
			sh := s.shardOf(study)
			if _, exists := sh.sessions[study]; exists {
				s.logf("study %q exists in multiple stores; first recovery wins", study)
				continue
			}
			ss, err := recoverSession(study, st)
			if err != nil {
				s.logf("study %q replay: %v", study, err)
			}
			if why := ss.core.Degraded(); why != "" {
				s.logf("study %q recovered read-only: %s", study, why)
			}
			sh.sessions[study] = ss
			s.nstudies.Add(1)
		}
		if stats := st.Stats(); stats.TornTailBytes > 0 || stats.Quarantined > 0 {
			s.logf("store repair: %d torn-tail bytes truncated, %d ranges quarantined", stats.TornTailBytes, stats.Quarantined)
		}
	}
	s.mux = s.routes()
	return s, nil
}

// ServeHTTP implements http.Handler: probes bypass the drain gate, API
// requests get a deadline derived from the request context and run under
// a panic guard so one bad request cannot take down the process. Study
// handlers additionally register in-flight on their study's shard (see
// enter), which is what Drain's barrier waits on.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.handleHealthz(w, r)
		return
	case "/readyz":
		s.handleReadyz(w, r)
		return
	case "/metrics":
		s.handleMetrics(w, r)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	s.m.requests.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	if err := sched.Guard(func() error {
		s.mux.ServeHTTP(w, r.WithContext(ctx))
		return nil
	}); err != nil {
		s.m.panics.Add(1)
		s.logf("request %s %s: %v", r.Method, r.URL.Path, err)
		s.writeError(w, http.StatusInternalServerError, "panic", "internal panic recovered")
	}
}

// enter registers a request in-flight on the study's shard by taking the
// read side of the shard's drain lock; the caller must sh.drainMu.RUnlock
// when done. A nil return means the server is draining and a 503 was
// already written — TryRLock keeps late requests from queueing behind the
// drain barrier's pending write lock.
func (s *Server) enter(w http.ResponseWriter, study string) *shard {
	sh := s.shardOf(study)
	if s.draining.Load() || !sh.drainMu.TryRLock() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return nil
	}
	return sh
}

// session returns the live session for a study, or nil.
func (s *Server) session(study string) *session {
	sh := s.shardOf(study)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[study]
}

// Drain stops admitting API requests, waits for in-flight ones to finish
// on every shard, then seals each study store so the logs end on durable
// terminators. It is idempotent; the seal happens once and later calls
// return the same result. If ctx expires the drain gate stays shut but
// the stores are left unsealed (every acked observation is already
// durable regardless).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	//autolint:ignore goleak the loop is bounded by the fixed shard count and each Lock returns once that shard's readers finish; request deadlines bound the readers, so the goroutine cannot outlive the drain
	go func() { //autolint:ignore nakedgo drain barrier: Lock/Unlock on held-out RWMutexes cannot panic, and the goroutine exits once in-flight requests finish
		// The critical sections are empty on purpose: each Lock is purely
		// a barrier that returns once that shard's in-flight readers are
		// gone. Taken one shard at a time — with draining already set no
		// new reader gets in, so the walk is a full barrier, not a
		// deadlock-prone all-shards hold.
		for _, sh := range s.shards {
			sh.drainMu.Lock()
			//lint:ignore SA2001 empty critical section is the barrier
			sh.drainMu.Unlock()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.sealOnce.Do(func() {
		var errs []error
		for _, st := range s.stores {
			if err := st.Seal(); err != nil {
				errs = append(errs, err)
			}
		}
		s.sealErr = errors.Join(errs...)
	})
	return s.sealErr
}

// Close drains with no deadline and releases the stores: the teardown
// for tests and defers. Servers that need a bounded drain call Drain.
func (s *Server) Close() error {
	//autolint:ignore ctxpass Close is the one legitimate server-lifetime root: final teardown has no request context to inherit, and Drain is the ctx-aware form
	return s.Drain(context.Background())
}

// crashClose releases every store handle without draining or sealing —
// the test hook that simulates kill -9 at the store layer.
func (s *Server) crashClose() error {
	var errs []error
	for _, st := range s.stores {
		if err := st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ListenAndServe serves on addr until ctx is cancelled (the caller wires
// SIGTERM to that), then drains gracefully: stop admitting, let in-flight
// requests and connections finish (bounded by Options.DrainTimeout), seal
// the store, and return nil on a clean exit. If ready is non-nil it is
// called once with the bound address, after the listener exists.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	hs := &http.Server{Handler: s, ErrorLog: s.opts.Log}
	errc := make(chan error, 1)
	//autolint:ignore nakedgo http.Server recovers per-connection panics itself; this goroutine only forwards Serve's exit error into the buffered channel
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
		// The listener died under us; drain anyway so state is sealed.
	case <-ctx.Done():
	}

	dctx := context.WithoutCancel(ctx)
	cancel := context.CancelFunc(func() {})
	if s.opts.DrainTimeout > 0 {
		dctx, cancel = context.WithTimeout(dctx, s.opts.DrainTimeout)
	}
	defer cancel()
	s.draining.Store(true) // shut the gate before Shutdown waits on conns
	if err := hs.Shutdown(dctx); err != nil && serveErr == nil {
		serveErr = fmt.Errorf("server: shutdown: %w", err)
	}
	if err := s.Drain(dctx); err != nil && serveErr == nil {
		serveErr = err
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	return serveErr
}

// StoreStats exposes the underlying stores' counters, summed, for
// operational tooling (the /metrics page and the load harness). Max-type
// fields take the max across stores; Poisoned is true if any store is.
func (s *Server) StoreStats() studystore.Stats {
	var agg studystore.Stats
	for i, st := range s.stores {
		stats := st.Stats()
		if i == 0 {
			agg = stats
			continue
		}
		agg.Records += stats.Records
		agg.Studies += stats.Studies
		agg.Segments += stats.Segments
		agg.Appended += stats.Appended
		agg.Rotations += stats.Rotations
		agg.Compactions += stats.Compactions
		agg.TornTailBytes += stats.TornTailBytes
		agg.Quarantined += stats.Quarantined
		agg.Fsyncs += stats.Fsyncs
		agg.Groups += stats.Groups
		agg.GroupBatches += stats.GroupBatches
		if stats.MaxGroup > agg.MaxGroup {
			agg.MaxGroup = stats.MaxGroup
		}
		agg.AppendedBytes += stats.AppendedBytes
		agg.Poisoned = agg.Poisoned || stats.Poisoned
		if stats.ActiveSeq > agg.ActiveSeq {
			agg.ActiveSeq = stats.ActiveSeq
		}
		if stats.SnapshotSeq > agg.SnapshotSeq {
			agg.SnapshotSeq = stats.SnapshotSeq
		}
	}
	return agg
}

// failStore records that the durable layer failed: the server degrades to
// read-only (suggest/best/pareto keep working, writes get 503s) instead
// of crashing, because every previously acked observation is still safe.
func (s *Server) failStore(err error) {
	if s.poisoned.CompareAndSwap(false, true) {
		s.logf("store failed, degrading to read-only: %v", err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

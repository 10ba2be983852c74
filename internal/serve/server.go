package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
)

// Options configure a daemon.
type Options struct {
	// SpoolDir is the crash-safe job store (required).
	SpoolDir string
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// running). 0 = 8.
	QueueDepth int
	// JobWorkers is the number of jobs executed concurrently. 0 = 1 —
	// jobs are CPU-bound, and intra-job parallelism (JobRequest.Workers)
	// is usually the better lever on a small host.
	JobWorkers int
	// RetryAfter is the hint returned with 429/503 responses. 0 = 1s.
	RetryAfter time.Duration
	// DrainGrace bounds how long Close waits for in-flight jobs before
	// giving up on them (they stay resumable in the spool). 0 = 60s.
	DrainGrace time.Duration
	// MaxBodyBytes bounds a submitted request body. 0 = 64 MiB.
	MaxBodyBytes int64
	// Obs is the server-wide telemetry sink, also mounted at /metrics,
	// /healthz, /trace and /debug/pprof. May be nil.
	Obs *obs.Sink
	// Fault is the deterministic fault injector (nil in production).
	Fault *fault.Injector
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.QueueDepth <= 0 {
		out.QueueDepth = 8
	}
	if out.JobWorkers <= 0 {
		out.JobWorkers = 1
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = 60 * time.Second
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 64 << 20
	}
	return out
}

// jobEntry is one admitted request and its in-memory lifecycle. state/err/
// result/attempts are guarded by the server mutex; done is closed exactly
// once, on reaching a state no worker will touch again (terminal or
// interrupted).
type jobEntry struct {
	req  *JobRequest
	seq  int
	done chan struct{}

	state    string
	errMsg   string
	attempts int
	result   *JobResult
}

// Server is the tsteinerd daemon: spool + registry + bounded queue +
// workers + HTTP surface.
type Server struct {
	opt    Options
	spool  *Spool
	runner *Runner
	sink   *obs.Sink

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	seq      int
	draining bool

	queue  chan *jobEntry
	stop   chan struct{}
	wg     sync.WaitGroup // workers + recovery feeder
	httpWG sync.WaitGroup
	ln     net.Listener
	srv    *http.Server
}

// New builds a server over its spool, recovers every non-terminal spooled
// job, and starts the workers — but does not listen; call Serve (or use
// Handler with an external listener) for the HTTP surface. Recovery is
// deterministic: survivors are re-enqueued in sorted ID order, terminal
// jobs are loaded with their CRC-checked results, and a job whose spooled
// request is torn is marked failed rather than guessed at.
func New(opt Options) (*Server, error) {
	sp, err := OpenSpool(opt.SpoolDir)
	if err != nil {
		return nil, err
	}
	o := opt.withDefaults()
	s := &Server{
		opt:    o,
		spool:  sp,
		runner: NewRunner(sp, o.Obs, o.Fault),
		sink:   o.Obs,
		jobs:   map[string]*jobEntry{},
		queue:  make(chan *jobEntry, o.QueueDepth),
		stop:   make(chan struct{}),
	}
	pending, err := s.scan()
	if err != nil {
		return nil, err
	}
	// Feed survivors from a goroutine: there may be more of them than
	// the queue holds, and workers only start draining it below.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, jb := range pending {
			select {
			case s.queue <- jb:
			case <-s.stop:
				return
			}
		}
	}()
	for i := 0; i < o.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// scan rebuilds the registry from the spool. Trust order: a CRC-valid
// result.json means done; a status of "failed" means failed; anything
// else — including a torn status or a job killed while "running" — is a
// survivor to re-run. Re-running a finished job whose status was lost is
// byte-identical; trusting a torn record would not be.
func (s *Server) scan() ([]*jobEntry, error) {
	ids, err := s.spool.ListJobs()
	if err != nil {
		return nil, err
	}
	var pending []*jobEntry
	for _, id := range ids {
		req, err := s.spool.ReadRequest(id)
		if err != nil {
			s.sink.Add("serve.spool_corrupt", 1)
			jb := s.register(&JobRequest{ID: id})
			s.finish(jb, nil, fmt.Errorf("serve: job %s: spooled request unreadable: %w", id, err))
			continue
		}
		if req == nil {
			// A directory without a request record: admission crashed
			// before the CRC envelope landed. Nothing trustworthy to run.
			s.spool.Remove(id)
			continue
		}
		jb := s.register(req)
		if res, err := s.spool.ReadResult(id); err == nil && res != nil {
			st, _ := s.spool.ReadStatus(id)
			jb.state = StateDone
			jb.attempts = st.Attempts
			jb.result = res
			close(jb.done)
			continue
		}
		if st, ok := s.spool.ReadStatus(id); ok && st.State == StateFailed {
			jb.state = StateFailed
			jb.errMsg = st.Error
			jb.attempts = st.Attempts
			close(jb.done)
			continue
		}
		st, _ := s.spool.ReadStatus(id)
		jb.attempts = st.Attempts
		jb.state = StateQueued
		s.spool.WriteStatus(id, statusRecord{State: StateQueued, Attempts: jb.attempts})
		s.sink.Add("serve.resumed", 1)
		pending = append(pending, jb)
	}
	return pending, nil
}

// register adds a job to the registry (caller need not hold the lock).
func (s *Server) register(req *JobRequest) *jobEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	jb := &jobEntry{req: req, seq: s.seq, done: make(chan struct{}), state: StateQueued}
	s.jobs[req.ID] = jb
	return jb
}

// worker drains the queue until drain. One job failing, panicking or
// stalling never takes the worker down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case jb := <-s.queue:
			s.runOne(jb)
		}
	}
}

// runOne executes one job with panic containment and persists every state
// transition before it is visible in memory, so a kill between any two
// statements leaves the spool recoverable.
func (s *Server) runOne(jb *jobEntry) {
	s.mu.Lock()
	jb.state = StateRunning
	jb.attempts++
	attempts := jb.attempts
	s.mu.Unlock()
	s.spool.WriteStatus(jb.req.ID, statusRecord{State: StateRunning, Attempts: attempts})
	s.sink.Gauge("serve.queue_depth", float64(len(s.queue)))

	res, err := s.runContained(jb)
	s.finish(jb, res, err)
}

// runContained is the containment boundary: a panicking job comes back as
// a *par.PanicError, in the same shape the parallel substrate uses.
func (s *Server) runContained(jb *jobEntry) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.sink.Add("serve.panics", 1)
			err = &par.PanicError{Index: jb.seq, Value: r, Stack: debug.Stack()}
		}
	}()
	return s.runner.Run(jb.req)
}

// finish persists a job's terminal (or interrupted) state and wakes
// waiters. Interrupted jobs keep their done channel open on a live
// server only until finish marks them — they resume on the next server
// start, so for THIS process they are final: close done so waiters see
// the state instead of hanging.
func (s *Server) finish(jb *jobEntry, res *JobResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		jb.state = StateDone
		jb.result = res
		s.sink.Add("serve.jobs_done", 1)
	case errors.Is(err, ErrInterrupted):
		jb.state = StateInterrupted
		jb.errMsg = err.Error()
		s.sink.Add("serve.jobs_interrupted", 1)
	default:
		jb.state = StateFailed
		jb.errMsg = err.Error()
		s.sink.Add("serve.jobs_failed", 1)
	}
	s.spool.WriteStatus(jb.req.ID, statusRecord{State: jb.state, Error: jb.errMsg, Attempts: jb.attempts})
	select {
	case <-jb.done:
	default:
		close(jb.done)
	}
}

// status snapshots a job's public view under the lock.
func (s *Server) status(jb *jobEntry) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobStatus{
		ID:       jb.req.ID,
		Kind:     jb.req.Kind,
		State:    jb.state,
		Error:    jb.errMsg,
		Attempts: jb.attempts,
		Result:   jb.result,
	}
}

// Handler returns the daemon's HTTP surface:
//
//	POST /jobs            submit (202; 200 on idempotent resubmit;
//	                      409 same ID, different payload; 429 queue
//	                      full + Retry-After; 503 draining + Retry-After)
//	GET  /jobs            all job statuses, sorted by ID
//	GET  /jobs/{id}       one status; ?wait=DUR long-polls for a
//	                      terminal state, bounded by a guard.Budget
//	GET  /jobs/{id}/forest  the Steiner-forest artifact (designio JSON)
//	GET  /jobs/{id}/trace   the job's NDJSON obs trace
//	/metrics /healthz /trace /debug/pprof/*  the obs surface
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/forest", s.handleForest)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTraceFile)
	mux.Handle("/", obs.Handler(s.sink))
	return mux
}

func (s *Server) retryAfterSeconds() string {
	secs := int(s.opt.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	req := new(JobRequest)
	if err := json.NewDecoder(body).Decode(req); err != nil {
		http.Error(w, "serve: bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.sink.Add("serve.submits", 1)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.sink.Add("serve.rejected_draining", 1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, "serve: draining", http.StatusServiceUnavailable)
		return
	}
	if existing, ok := s.jobs[req.ID]; ok {
		same := sameRequest(existing.req, req)
		s.mu.Unlock()
		if !same {
			http.Error(w, fmt.Sprintf("serve: job %s already exists with a different request", req.ID), http.StatusConflict)
			return
		}
		// Idempotent resubmit: report the existing job, run nothing.
		s.sink.Add("serve.deduped", 1)
		s.writeStatus(w, http.StatusOK, s.statusByID(req.ID))
		return
	}

	// Admission: spool first (crash-safe), then a non-blocking enqueue;
	// a full queue un-spools and turns the request away with a hint.
	if err := s.spool.WriteRequest(req, s.opt.Fault); err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.seq++
	jb := &jobEntry{req: req, seq: s.seq, done: make(chan struct{}), state: StateQueued}
	select {
	case s.queue <- jb:
		s.jobs[req.ID] = jb
		s.spool.WriteStatus(req.ID, statusRecord{State: StateQueued})
		s.mu.Unlock()
		s.sink.Add("serve.admitted", 1)
		s.writeStatus(w, http.StatusAccepted, JobStatus{ID: req.ID, Kind: req.Kind, State: StateQueued})
	default:
		s.spool.Remove(req.ID)
		s.mu.Unlock()
		s.sink.Add("serve.rejected_full", 1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		http.Error(w, fmt.Sprintf("serve: queue full (%d jobs)", s.opt.QueueDepth), http.StatusTooManyRequests)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		jb := s.jobs[id]
		out = append(out, JobStatus{
			ID: jb.req.ID, Kind: jb.req.Kind, State: jb.state,
			Error: jb.errMsg, Attempts: jb.attempts, Result: jb.result,
		})
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	if wq := r.URL.Query().Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil || d < 0 {
			http.Error(w, "serve: wait must be a non-negative duration", http.StatusBadRequest)
			return
		}
		// The long-poll is bounded by a per-request budget bridged to
		// context cancellation — the handler can never hang past it.
		b := &guard.Budget{Wall: d}
		ctx, cancel := b.Context(r.Context())
		defer cancel()
		select {
		case <-jb.done:
		case <-ctx.Done():
		}
	}
	s.writeStatus(w, http.StatusOK, s.status(jb))
}

func (s *Server) handleForest(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	st := s.status(jb)
	if st.State != StateDone {
		http.Error(w, fmt.Sprintf("serve: job %s is %s, artifact not ready", st.ID, st.State), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, s.spool.ForestPath(st.ID))
}

func (s *Server) handleTraceFile(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	if _, err := os.Stat(s.spool.TracePath(jb.req.ID)); err != nil {
		http.Error(w, "serve: no trace recorded", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	http.ServeFile(w, r, s.spool.TracePath(jb.req.ID))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobEntry {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		http.Error(w, fmt.Sprintf("serve: unknown job %q", id), http.StatusNotFound)
		return nil
	}
	return jb
}

func (s *Server) statusByID(id string) JobStatus {
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		return JobStatus{ID: id}
	}
	return s.status(jb)
}

func (s *Server) writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	s.writeJSON(w, code, st)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// sameRequest compares two requests for idempotency purposes by their
// canonical JSON bytes (both already normalized).
func sameRequest(a, b *JobRequest) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(ab) == string(bb)
}

// Serve binds addr (host:port; port 0 picks one) and serves the Handler
// in the background until Close.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	s.httpWG.Add(1)
	go func() {
		defer s.httpWG.Done()
		s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL ("" before Serve).
func (s *Server) URL() string {
	if s.ln == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close drains gracefully: new submits are turned away with 503, workers
// finish their in-flight jobs (bounded by DrainGrace), still-queued jobs
// stay spooled as queued — the next server over this spool resumes them —
// and the HTTP listener shuts down last, so /metrics answers scrapes for
// the whole drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	close(s.stop)
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var drainErr error
	select {
	case <-workersDone:
	case <-time.After(s.opt.DrainGrace):
		drainErr = fmt.Errorf("serve: drain grace %s expired with jobs still running; they remain resumable in the spool", s.opt.DrainGrace)
	}

	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
		}
		s.httpWG.Wait()
	}
	return drainErr
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tsteiner/internal/designio"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
	"tsteiner/internal/synth"
)

// designJSON generates a tiny seeded design and returns its designio
// bytes. Distinct seeds give distinct design families.
func designJSON(t *testing.T, seed int64) json.RawMessage {
	t.Helper()
	d, err := synth.Generate(synth.Spec{
		Name: fmt.Sprintf("srv%d", seed), Seed: seed,
		Cells: 30, Endpoints: 6, PIs: 3, Depth: 4, ClockNS: 1.0,
	}, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := designio.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cloneReq(r *JobRequest) *JobRequest {
	c := *r
	c.Design = append(json.RawMessage(nil), r.Design...)
	return &c
}

// matrixJobs is the job mix of the byte-identity gate: two refines of one
// family at different worker counts, a train of a second family, and a
// plain sign-off.
func matrixJobs(t *testing.T) []*JobRequest {
	dA := designJSON(t, 5)
	dB := designJSON(t, 9)
	return []*JobRequest{
		{ID: "a-refine-1", Kind: KindRefine, Design: dA, Seed: 7, Epochs: 4, Iters: 3, AugmentVariants: -1, Workers: 2},
		{ID: "a-refine-2", Kind: KindRefine, Design: dA, Seed: 7, Epochs: 4, Iters: 3, AugmentVariants: -1, Workers: 1},
		{ID: "b-train", Kind: KindTrain, Design: dB, Seed: 11, Epochs: 3, AugmentVariants: -1},
		{ID: "a-signoff", Kind: KindSignoff, Design: dA},
	}
}

// artifacts reads a job's byte-identity artifacts out of a spool.
func artifacts(t *testing.T, sp *Spool, id string) (result, forest []byte) {
	t.Helper()
	result, err := os.ReadFile(sp.resultPath(id))
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	forest, err = os.ReadFile(sp.ForestPath(id))
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	return result, forest
}

// runSerial runs the jobs one by one through a bare Runner in a fresh
// spool — the reference the concurrent server must match byte for byte.
func runSerial(t *testing.T, reqs []*JobRequest) (*Spool, map[string][2][]byte) {
	t.Helper()
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(sp, nil, nil)
	ref := map[string][2][]byte{}
	for _, r := range reqs {
		c := cloneReq(r)
		c.Normalize()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := rn.Run(c); err != nil {
			t.Fatalf("serial %s: %v", c.ID, err)
		}
		res, forest := artifacts(t, sp, c.ID)
		ref[c.ID] = [2][]byte{res, forest}
	}
	return sp, ref
}

func startServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.SpoolDir == "" {
		opt.SpoolDir = t.TempDir()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitDone(t *testing.T, c *Client, id string) *JobStatus {
	t.Helper()
	st, err := c.Wait(id, 120*time.Second)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

func counterOf(s *obs.Sink, name string) int64 {
	for _, c := range s.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestServeJobsConcurrentByteIdentical is the PR's hard gate: the same
// job mix, submitted concurrently to servers at different queue depths
// and worker counts, must produce result.json and forest.json artifacts
// byte-identical to the jobs run serially through a bare Runner.
func TestServeJobsConcurrentByteIdentical(t *testing.T) {
	reqs := matrixJobs(t)
	_, ref := runSerial(t, reqs)

	// The two refines of family A differ only in ID and worker count, so
	// their forests must already agree serially.
	if !bytes.Equal(ref["a-refine-1"][1], ref["a-refine-2"][1]) {
		t.Fatal("serial refines of one family disagree across worker counts")
	}

	for _, cfg := range []struct {
		workers, depth int
	}{
		{1, 2},
		{3, 8},
	} {
		t.Run(fmt.Sprintf("w%dq%d", cfg.workers, cfg.depth), func(t *testing.T) {
			s := startServer(t, Options{JobWorkers: cfg.workers, QueueDepth: cfg.depth})
			// Reversed submit order, all at once: arrival order and
			// scheduling must not show in the artifacts.
			var wg sync.WaitGroup
			for i := len(reqs) - 1; i >= 0; i-- {
				r := cloneReq(reqs[i])
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := &Client{Base: s.URL(), Retries: 20, BaseDelay: 20 * time.Millisecond}
					if _, err := c.Submit(r); err != nil {
						t.Errorf("submit %s: %v", r.ID, err)
					}
				}()
			}
			wg.Wait()
			c := &Client{Base: s.URL()}
			for _, r := range reqs {
				st := waitDone(t, c, r.ID)
				if st.State != StateDone {
					t.Fatalf("job %s: state %s (error %q)", r.ID, st.State, st.Error)
				}
				res, forest := artifacts(t, s.spool, r.ID)
				if !bytes.Equal(res, ref[r.ID][0]) {
					t.Errorf("job %s: result.json differs from serial run", r.ID)
				}
				if !bytes.Equal(forest, ref[r.ID][1]) {
					t.Errorf("job %s: forest.json differs from serial run", r.ID)
				}
				// The client-visible artifact must be the spooled bytes.
				got, err := c.Forest(r.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, forest) {
					t.Errorf("job %s: served forest differs from spooled artifact", r.ID)
				}
			}
		})
	}
}

// TestServeKillRestartResume kills jobs mid-train and mid-refine (the
// injected process kill: half the work done, checkpoint on disk,
// ErrInterrupted), restarts a server over the same spool, and requires
// the resumed jobs' artifacts to be byte-identical to never-interrupted
// serial runs.
func TestServeKillRestartResume(t *testing.T) {
	dA := designJSON(t, 5)
	dB := designJSON(t, 9)
	reqs := []*JobRequest{
		{ID: "kill-refine", Kind: KindRefine, Design: dA, Seed: 7, Epochs: 4, Iters: 3, AugmentVariants: -1},
		{ID: "kill-train", Kind: KindTrain, Design: dB, Seed: 11, Epochs: 4, AugmentVariants: -1},
	}
	_, ref := runSerial(t, reqs)

	spool := t.TempDir()
	inj := fault.New(1)
	inj.Arm("serve.kill.refine", 1)
	inj.Arm("serve.kill.train", 2) // consult 1 is kill-refine's own training
	sink := obs.New(io.Discard)
	s1 := startServer(t, Options{SpoolDir: spool, JobWorkers: 1, Fault: inj, Obs: sink})
	c := &Client{Base: s1.URL()}
	for _, r := range reqs {
		if _, err := c.Submit(cloneReq(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs {
		st := waitDone(t, c, r.ID)
		if st.State != StateInterrupted {
			t.Fatalf("job %s: want interrupted, got %s (error %q)", r.ID, st.State, st.Error)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same spool, faults gone: the scan re-enqueues both
	// survivors and they resume from their checkpoints.
	sink2 := obs.New(io.Discard)
	s2 := startServer(t, Options{SpoolDir: spool, JobWorkers: 1, Obs: sink2})
	c2 := &Client{Base: s2.URL()}
	for _, r := range reqs {
		st := waitDone(t, c2, r.ID)
		if st.State != StateDone {
			t.Fatalf("resumed job %s: state %s (error %q)", r.ID, st.State, st.Error)
		}
		if st.Attempts < 2 {
			t.Errorf("resumed job %s: want >= 2 attempts, got %d", r.ID, st.Attempts)
		}
		res, forest := artifacts(t, s2.spool, r.ID)
		if !bytes.Equal(res, ref[r.ID][0]) {
			t.Errorf("job %s: resumed result.json differs from uninterrupted run", r.ID)
		}
		if !bytes.Equal(forest, ref[r.ID][1]) {
			t.Errorf("job %s: resumed forest.json differs from uninterrupted run", r.ID)
		}
	}
	if got := counterOf(sink2, "serve.resumed"); got != 2 {
		t.Errorf("serve.resumed = %d, want 2", got)
	}
}

// TestServeResumeCorruptCheckpoint truncates an interrupted job's
// refinement checkpoint before the restart: the server must detect the
// torn bytes (CRC), discard them, re-run the job from scratch and still
// produce byte-identical artifacts — a corrupt checkpoint costs work,
// never correctness.
func TestServeResumeCorruptCheckpoint(t *testing.T) {
	req := &JobRequest{ID: "corrupt-ckpt", Kind: KindRefine, Design: designJSON(t, 5),
		Seed: 7, Epochs: 3, Iters: 3, AugmentVariants: -1}
	_, ref := runSerial(t, []*JobRequest{req})

	spool := t.TempDir()
	inj := fault.New(1)
	inj.Arm("serve.kill.refine", 1)
	s1 := startServer(t, Options{SpoolDir: spool, Fault: inj})
	c := &Client{Base: s1.URL()}
	if _, err := c.Submit(cloneReq(req)); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, c, req.ID); st.State != StateInterrupted {
		t.Fatalf("want interrupted, got %s (%s)", st.State, st.Error)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := s1.spool.RefineCkptPath(req.ID)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no refine checkpoint after interrupt: %v", err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	sink := obs.New(io.Discard)
	s2 := startServer(t, Options{SpoolDir: spool, Obs: sink})
	c2 := &Client{Base: s2.URL()}
	st := waitDone(t, c2, req.ID)
	if st.State != StateDone {
		t.Fatalf("want done, got %s (%s)", st.State, st.Error)
	}
	if got := counterOf(sink, "serve.ckpt_corrupt"); got == 0 {
		t.Error("corrupt checkpoint was not counted")
	}
	res, forest := artifacts(t, s2.spool, req.ID)
	if !bytes.Equal(res, ref[req.ID][0]) || !bytes.Equal(forest, ref[req.ID][1]) {
		t.Error("artifacts after corrupt-checkpoint recovery differ from clean run")
	}
}

// TestServeJobDeadlineDegrades stalls one refinement iteration past the
// job's budget: the job must come back done — best-so-far forest, Cutoff
// recorded — never failed.
func TestServeJobDeadlineDegrades(t *testing.T) {
	inj := fault.New(1)
	inj.ArmStall("core.stall", 2, 3*time.Second)
	s := startServer(t, Options{Fault: inj})
	c := &Client{Base: s.URL()}
	req := &JobRequest{ID: "deadline", Kind: KindRefine, Design: designJSON(t, 5),
		Seed: 7, Epochs: 2, Iters: 6, AugmentVariants: -1, DeadlineMS: 2000}
	if _, err := c.Submit(req); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, c, req.ID)
	if st.State != StateDone {
		t.Fatalf("deadline job: want done (degraded), got %s (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Cutoff == "" {
		t.Fatalf("deadline job: no cutoff recorded: %+v", st.Result)
	}
	if st.Result.Iterations >= req.Iters {
		t.Errorf("deadline job ran all %d iterations despite the stall", st.Result.Iterations)
	}
	if st.Result.Refined == nil {
		t.Error("deadline job has no best-so-far sign-off")
	}
	if _, err := c.Forest(req.ID); err != nil {
		t.Errorf("best-so-far forest not served: %v", err)
	}
}

// TestServeJobQueueSaturation saturates a depth-1 queue behind a stalled
// worker: the direct submit must see 429 with Retry-After, and a client
// retrying with backoff must eventually land the job without double-
// running anything.
func TestServeJobQueueSaturation(t *testing.T) {
	inj := fault.New(1)
	inj.ArmStall("serve.stall", 1, 600*time.Millisecond)
	sink := obs.New(io.Discard)
	s := startServer(t, Options{QueueDepth: 1, JobWorkers: 1, Fault: inj, Obs: sink})
	d := designJSON(t, 5)

	c := &Client{Base: s.URL()}
	if _, err := c.Submit(&JobRequest{ID: "sat-1", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick up sat-1 (which then stalls),
	// freeing the queue slot for sat-2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status("sat-1")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sat-1 never started running (state %s)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Submit(&JobRequest{ID: "sat-2", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}

	// Queue full: a raw POST is turned away with the protocol headers.
	body, _ := json.Marshal(&JobRequest{ID: "sat-3", Kind: KindSignoff, Design: d})
	resp, err := http.Post(s.URL()+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}

	// A retrying client waits out the saturation. The Sleep seam records
	// the backoff schedule (and sleeps a bounded real amount so the
	// stalled worker can drain meanwhile).
	var mu sync.Mutex
	var delays []time.Duration
	rc := &Client{
		Base: s.URL(), Retries: 60, BaseDelay: 20 * time.Millisecond, JitterSeed: 42,
		Sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
			if d > 50*time.Millisecond {
				d = 50 * time.Millisecond
			}
			time.Sleep(d)
		},
	}
	if _, err := rc.Submit(&JobRequest{ID: "sat-3", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatalf("retrying submit never landed: %v", err)
	}
	mu.Lock()
	if len(delays) == 0 {
		t.Error("retrying client recorded no backoff sleeps")
	}
	// The server hints Retry-After: 1s; with ±25% jitter every recorded
	// delay must be at least 750ms — the client honored the hint instead
	// of hammering.
	for _, d := range delays {
		if d < 750*time.Millisecond {
			t.Errorf("backoff %v shorter than the jittered Retry-After floor", d)
		}
	}
	mu.Unlock()

	for _, id := range []string{"sat-1", "sat-2", "sat-3"} {
		if st := waitDone(t, c, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if got := counterOf(sink, "serve.rejected_full"); got == 0 {
		t.Error("429s were not counted")
	}
	for _, id := range []string{"sat-1", "sat-2", "sat-3"} {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Attempts != 1 {
			t.Errorf("job %s ran %d times, want exactly once", id, st.Attempts)
		}
	}
}

// TestServeJobRetryStormIdempotent fires many concurrent submits of one
// job ID: every submit succeeds, the job runs exactly once, and a
// same-ID submit with a different payload is refused with 409.
func TestServeJobRetryStormIdempotent(t *testing.T) {
	s := startServer(t, Options{QueueDepth: 4, JobWorkers: 2})
	d := designJSON(t, 5)
	req := &JobRequest{ID: "storm", Kind: KindSignoff, Design: d}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Base: s.URL(), Retries: 30, BaseDelay: 10 * time.Millisecond}
			if _, err := c.Submit(cloneReq(req)); err != nil {
				t.Errorf("storm submit: %v", err)
			}
		}()
	}
	wg.Wait()

	c := &Client{Base: s.URL()}
	st := waitDone(t, c, "storm")
	if st.State != StateDone {
		t.Fatalf("storm job: %s (%s)", st.State, st.Error)
	}
	if st.Attempts != 1 {
		t.Errorf("storm job ran %d times, want exactly once", st.Attempts)
	}

	// Same ID, different payload: a conflict, not a dedupe.
	conflict := cloneReq(req)
	conflict.Kind = KindTrain
	if _, err := c.Submit(conflict); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("conflicting resubmit: want 409, got %v", err)
	}
}

// TestServeJobPanicContained injects a panic into the first job: it must
// come back failed with the panic recorded, and the worker must survive
// to run the next job.
func TestServeJobPanicContained(t *testing.T) {
	inj := fault.New(1)
	inj.Arm("serve.panic", 1)
	sink := obs.New(io.Discard)
	s := startServer(t, Options{JobWorkers: 1, Fault: inj, Obs: sink})
	c := &Client{Base: s.URL()}
	d := designJSON(t, 5)

	if _, err := c.Submit(&JobRequest{ID: "boom", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, c, "boom")
	if st.State != StateFailed {
		t.Fatalf("panicking job: want failed, got %s", st.State)
	}
	if !strings.Contains(st.Error, "panic") {
		t.Errorf("failure does not carry the panic: %q", st.Error)
	}
	if got := counterOf(sink, "serve.panics"); got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}

	if _, err := c.Submit(&JobRequest{ID: "after-boom", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, c, "after-boom"); st.State != StateDone {
		t.Fatalf("job after panic: %s (%s)", st.State, st.Error)
	}
}

// TestServeJobValidation exercises the protocol's refusal paths without
// running any job.
func TestServeJobValidation(t *testing.T) {
	s, err := New(Options{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/jobs", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec
	}
	for name, body := range map[string]string{
		"garbage":      "{not json",
		"no id":        `{"Kind":"signoff","Design":{}}`,
		"dotdot id":    `{"ID":"..","Kind":"signoff","Design":{}}`,
		"slash id":     `{"ID":"a/b","Kind":"signoff","Design":{}}`,
		"bad kind":     `{"ID":"x","Kind":"nope","Design":{}}`,
		"no design":    `{"ID":"x","Kind":"signoff"}`,
		"design file":  `{"ID":"x","Kind":"signoff","Design":{},"DesignFile":"/etc/passwd"}`,
		"huge epochs":  `{"ID":"x","Kind":"signoff","Design":{},"Epochs":99999999}`,
		"huge lanes":   `{"ID":"lanes","Kind":"refine","Design":{},"Lanes":16777216}`,
		"huge workers": `{"ID":"workers","Kind":"refine","Design":{},"Workers":16777216}`,
		"huge augment": `{"ID":"augment","Kind":"refine","Design":{},"AugmentVariants":1048576}`,
		"huge corner":  `{"ID":"corner","Kind":"signoff","Design":{},"Corners":[{"Name":"huge","DelayScale":1e308,"SlewScale":1,"ClockScale":1}]}`,
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("list: HTTP %d, want 200", rec.Code)
	}

	// A draining server turns submits away with 503 + Retry-After.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	rec = post(`{"ID":"x","Kind":"signoff","Design":{}}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining submit: HTTP %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After hint")
	}
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
}

// TestServeDrainKeepsQueuedJobsResumable closes a server while a job is
// still queued behind a stalled worker: the queued job must survive in
// the spool and run to completion on the next server.
func TestServeDrainKeepsQueuedJobsResumable(t *testing.T) {
	spool := t.TempDir()
	inj := fault.New(1)
	inj.ArmStall("serve.stall", 1, 400*time.Millisecond)
	s1 := startServer(t, Options{SpoolDir: spool, QueueDepth: 2, JobWorkers: 1, Fault: inj})
	c := &Client{Base: s1.URL()}
	d := designJSON(t, 5)
	if _, err := c.Submit(&JobRequest{ID: "drain-1", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(&JobRequest{ID: "drain-2", Kind: KindSignoff, Design: d}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, Options{SpoolDir: spool})
	c2 := &Client{Base: s2.URL()}
	for _, id := range []string{"drain-1", "drain-2"} {
		if st := waitDone(t, c2, id); st.State != StateDone {
			t.Fatalf("job %s after drain+restart: %s (%s)", id, st.State, st.Error)
		}
	}
}

// TestServeModelCacheTrainsOnce runs two refine jobs of one family on a
// two-worker server: the family's evaluator must be trained exactly once
// (singleflight), and both jobs must still match their serial reference.
func TestServeModelCacheTrainsOnce(t *testing.T) {
	dA := designJSON(t, 5)
	reqs := []*JobRequest{
		{ID: "fam-1", Kind: KindRefine, Design: dA, Seed: 7, Epochs: 3, Iters: 2, AugmentVariants: -1},
		{ID: "fam-2", Kind: KindRefine, Design: dA, Seed: 7, Epochs: 3, Iters: 2, AugmentVariants: -1},
	}
	_, ref := runSerial(t, reqs)

	sink := obs.New(io.Discard)
	s := startServer(t, Options{JobWorkers: 2, QueueDepth: 4, Obs: sink})
	c := &Client{Base: s.URL()}
	for _, r := range reqs {
		if _, err := c.Submit(cloneReq(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs {
		if st := waitDone(t, c, r.ID); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", r.ID, st.State, st.Error)
		}
		res, forest := artifacts(t, s.spool, r.ID)
		if !bytes.Equal(res, ref[r.ID][0]) || !bytes.Equal(forest, ref[r.ID][1]) {
			t.Errorf("job %s: cache-hit artifacts differ from serial reference", r.ID)
		}
	}
	if got := counterOf(sink, "serve.model_cache_misses"); got != 1 {
		t.Errorf("model trained %d times for one family, want 1", got)
	}
	if got := counterOf(sink, "serve.model_cache_hits"); got != 1 {
		t.Errorf("model cache hits = %d, want 1", got)
	}
}

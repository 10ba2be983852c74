package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client talks to a tsteinerd. Submit retries transient failures —
// connection errors, 429 queue-full, 503 draining — with exponential
// backoff plus seeded jitter, honoring the server's Retry-After hint.
// Because job IDs are idempotency keys, a retried submit that raced a
// success is answered with the existing job's status: a retry storm never
// double-runs work.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient defaults to a fresh http.Client.
	HTTPClient *http.Client
	// Retries bounds submit attempts (0 = 8).
	Retries int
	// BaseDelay and MaxDelay shape the backoff (0 = 100ms / 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterSeed seeds the backoff jitter so tests can fix the retry
	// schedule (0 = 1).
	JitterSeed int64
	// Sleep is the wait seam (nil = time.Sleep); tests substitute a
	// recorder so retry storms run instantly.
	Sleep func(time.Duration)

	rng *rand.Rand
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c.HTTPClient
}

func (c *Client) retries() int {
	if c.Retries <= 0 {
		return 8
	}
	return c.Retries
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff computes the wait before attempt n (0-based): exponential from
// BaseDelay, capped at MaxDelay, with ±25% seeded jitter. A server
// Retry-After hint overrides the exponential part but keeps the jitter —
// if every client honored the hint exactly, they would all come back in
// the same instant they were turned away together.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base, max := c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	if retryAfter > 0 {
		d = retryAfter
		if d > max {
			d = max
		}
	}
	if c.rng == nil {
		seed := c.JitterSeed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	jitter := 1 + (c.rng.Float64()-0.5)/2 // 0.75 .. 1.25
	return time.Duration(float64(d) * jitter)
}

// retryable reports whether a submit should be retried, and the server's
// Retry-After hint if it gave one.
func retryable(resp *http.Response) (bool, time.Duration) {
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var hint time.Duration
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		return true, hint
	}
	return false, 0
}

// Submit posts a job, retrying transient rejections. It returns the
// admitted (or already-known) job's status.
func (c *Client) Submit(req *JobRequest) (*JobStatus, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: client: encode request: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < c.retries(); attempt++ {
		if attempt > 0 {
			c.sleep(c.backoff(attempt-1, retryAfterOf(lastErr)))
		}
		resp, err := c.httpClient().Post(c.Base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = &transientError{err: fmt.Errorf("serve: client: submit %s: %w", req.ID, err)}
			continue
		}
		st, err := decodeStatusResponse(resp)
		if err == nil {
			return st, nil
		}
		if retry, hint := retryable(resp); retry {
			lastErr = &transientError{err: err, retryAfter: hint}
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("serve: client: submit %s: gave up after %d attempts: %w", req.ID, c.retries(), unwrapTransient(lastErr))
}

// transientError carries a retryable failure plus the server's hint.
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func retryAfterOf(err error) time.Duration {
	if te, ok := err.(*transientError); ok {
		return te.retryAfter
	}
	return 0
}

func unwrapTransient(err error) error {
	if te, ok := err.(*transientError); ok {
		return te.err
	}
	if err == nil {
		return fmt.Errorf("no attempt made")
	}
	return err
}

// decodeStatusResponse turns a /jobs response into a JobStatus or an error
// carrying the server's message.
func decodeStatusResponse(resp *http.Response) (*JobStatus, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("serve: client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("serve: client: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	st := new(JobStatus)
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("serve: client: decode status: %w", err)
	}
	return st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(id string) (*JobStatus, error) {
	resp, err := c.httpClient().Get(c.Base + "/jobs/" + url.PathEscape(id))
	if err != nil {
		return nil, fmt.Errorf("serve: client: status %s: %w", id, err)
	}
	return decodeStatusResponse(resp)
}

// Wait long-polls until the job reaches a state no further waiting will
// change on this server (done, failed, or interrupted), or until timeout
// (0 = wait indefinitely, in server-bounded slices).
func (c *Client) Wait(id string, timeout time.Duration) (*JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		slice := 2 * time.Second
		if timeout > 0 {
			if rem := time.Until(deadline); rem <= 0 {
				st, err := c.Status(id)
				if err != nil {
					return nil, err
				}
				return st, fmt.Errorf("serve: client: wait %s: timed out in state %s", id, st.State)
			} else if rem < slice {
				slice = rem
			}
		}
		resp, err := c.httpClient().Get(c.Base + "/jobs/" + url.PathEscape(id) + "?wait=" + slice.String())
		if err != nil {
			return nil, fmt.Errorf("serve: client: wait %s: %w", id, err)
		}
		st, err := decodeStatusResponse(resp)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone, StateFailed, StateInterrupted:
			return st, nil
		}
	}
}

// Forest downloads a done job's refined-forest artifact (designio JSON
// bytes, byte-identical across equivalent runs).
func (c *Client) Forest(id string) ([]byte, error) {
	return c.fetch(id, "/forest")
}

func (c *Client) fetch(id, suffix string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.Base + "/jobs/" + url.PathEscape(id) + suffix)
	if err != nil {
		return nil, fmt.Errorf("serve: client: fetch %s%s: %w", id, suffix, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: client: fetch %s%s: %w", id, suffix, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: client: fetch %s%s: HTTP %d: %s", id, suffix, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
)

// readJSONFile decodes one JSON file into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Spool is the on-disk job store that makes jobs survive a process kill:
//
//	<root>/jobs/<id>/job.json     CRC-enveloped JobRequest (admission record)
//	<root>/jobs/<id>/status.json  lifecycle state (advisory; see Scan policy)
//	<root>/jobs/<id>/result.json  CRC-enveloped JobResult (terminal artifact)
//	<root>/jobs/<id>/forest.json  Steiner forest artifact (designio JSON)
//	<root>/jobs/<id>/train.ckpt   evaluator training checkpoint
//	<root>/jobs/<id>/refine.ckpt  refinement loop checkpoint
//	<root>/jobs/<id>/trace.ndjson per-job obs trace (side channel)
//	<root>/models/<family>.json   cached trained evaluators
//
// Every record that gates a decision (request, result) is written through
// guard.WriteCheckpoint, so a torn write is detected by CRC on read
// instead of being half-trusted; all other writes are atomic
// (temp + rename + directory fsync).
type Spool struct {
	root string
}

// OpenSpool creates (or reopens) a spool rooted at dir.
func OpenSpool(dir string) (*Spool, error) {
	for _, d := range []string{filepath.Join(dir, "jobs"), filepath.Join(dir, "models")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: spool: %w", err)
		}
	}
	return &Spool{root: dir}, nil
}

// ModelDir returns the trained-evaluator cache directory.
func (s *Spool) ModelDir() string { return filepath.Join(s.root, "models") }

// JobDir returns the directory of one job's records.
func (s *Spool) JobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

func (s *Spool) requestPath(id string) string { return filepath.Join(s.JobDir(id), "job.json") }
func (s *Spool) statusPath(id string) string  { return filepath.Join(s.JobDir(id), "status.json") }
func (s *Spool) resultPath(id string) string  { return filepath.Join(s.JobDir(id), "result.json") }

// ForestPath is the job's Steiner-forest artifact.
func (s *Spool) ForestPath(id string) string { return filepath.Join(s.JobDir(id), "forest.json") }

// TracePath is the job's NDJSON obs trace.
func (s *Spool) TracePath(id string) string { return filepath.Join(s.JobDir(id), "trace.ndjson") }

// TrainCkptPath is the job's evaluator-training checkpoint.
func (s *Spool) TrainCkptPath(id string) string { return filepath.Join(s.JobDir(id), "train.ckpt") }

// RefineCkptPath is the job's refinement-loop checkpoint.
func (s *Spool) RefineCkptPath(id string) string { return filepath.Join(s.JobDir(id), "refine.ckpt") }

// WriteRequest admits a job: its request is sealed in a CRC envelope so a
// crash mid-admission can never leave a plausible-but-torn request that a
// restart would run against the wrong inputs. inj is the deterministic
// fault injector (nil in production); the "guard.ckpt.truncate" site
// exercises the torn-write path.
func (s *Spool) WriteRequest(req *JobRequest, inj *fault.Injector) error {
	if err := os.MkdirAll(s.JobDir(req.ID), 0o755); err != nil {
		return fmt.Errorf("serve: spool job %s: %w", req.ID, err)
	}
	return guard.WriteCheckpoint(s.requestPath(req.ID), req, inj)
}

// ReadRequest loads a spooled request. A missing record returns
// (nil, nil); a torn or tampered one returns a *guard.CorruptError.
func (s *Spool) ReadRequest(id string) (*JobRequest, error) {
	req := new(JobRequest)
	ok, err := guard.ReadCheckpoint(s.requestPath(id), req)
	if err != nil || !ok {
		return nil, err
	}
	return req, nil
}

// statusRecord is the on-disk lifecycle state. It is advisory: Scan
// trusts result.json (CRC-checked) over it, and treats a missing or
// unreadable status as "non-terminal, re-run" — re-running a finished
// job is byte-identical, trusting a torn status would not be.
type statusRecord struct {
	State    string
	Error    string `json:",omitempty"`
	Attempts int
}

// WriteStatus persists a job's lifecycle state atomically.
func (s *Spool) WriteStatus(id string, st statusRecord) error {
	return guard.AtomicWriteJSON(s.statusPath(id), st)
}

// ReadStatus loads a job's lifecycle state; missing or corrupt records
// come back as a zero value with ok=false.
func (s *Spool) ReadStatus(id string) (statusRecord, bool) {
	var st statusRecord
	if err := readJSONFile(s.statusPath(id), &st); err != nil {
		return statusRecord{}, false
	}
	return st, true
}

// WriteResult seals a job's deterministic outcome in a CRC envelope. The
// result file is the byte-identity artifact: identical payloads produce
// identical envelopes.
func (s *Spool) WriteResult(res *JobResult, inj *fault.Injector) error {
	return guard.WriteCheckpoint(s.resultPath(res.ID), res, inj)
}

// ReadResult loads a job's result. Missing returns (nil, nil); torn or
// tampered returns a *guard.CorruptError — Scan then re-runs the job
// rather than serving a lie.
func (s *Spool) ReadResult(id string) (*JobResult, error) {
	res := new(JobResult)
	ok, err := guard.ReadCheckpoint(s.resultPath(id), res)
	if err != nil || !ok {
		return nil, err
	}
	return res, nil
}

// Remove deletes a job's spool directory — the un-admission path when the
// queue turns a request away after it was provisionally spooled.
func (s *Spool) Remove(id string) error {
	return os.RemoveAll(s.JobDir(id))
}

// ListJobs returns every spooled job ID in sorted order, so restart
// recovery enqueues survivors deterministically.
func (s *Spool) ListJobs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: spool scan: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

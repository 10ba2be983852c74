package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"tsteiner/internal/sta"
)

// FuzzJobRequest decodes arbitrary bytes the way the submit handler
// does, then runs Normalize and Validate. Neither may panic, Normalize
// must be idempotent (the client normalizes before sending and the
// server again on arrival), and every corner of an accepted request
// must pass the sta corner check.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"ID":"ok","Kind":"refine","Design":{},"Corners":[` +
		`{"Name":"fast","DelayScale":0.85,"SlewScale":0.9,"ClockScale":1},` +
		`{"Name":"slow","DelayScale":1.15,"SlewScale":1.1,"ClockScale":1}]}`))
	f.Add([]byte(`{"ID":"x","Kind":"signoff"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := new(JobRequest)
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(req); err != nil {
			return
		}
		req.Normalize()
		once, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("normalized request does not encode: %v", err)
		}
		req.Normalize()
		twice, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-normalized request does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("Normalize is not idempotent:\n once  %s\n twice %s", once, twice)
		}
		if err := req.Validate(); err != nil {
			return
		}
		if len(req.Corners) > 0 {
			if err := sta.ValidateCorners(req.Corners); err != nil {
				t.Fatalf("accepted request carries a bad corner list: %v", err)
			}
		}
	})
}

package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asynccycle/internal/runctl"
	"asynccycle/internal/serve"
)

// FuzzJobSpec posts arbitrary bytes to POST /jobs through Server.Handler,
// so every input meets the real DisallowUnknownFields decoder and
// validate. A rejected spec must get 400 or 429, and an accepted one must
// reach done under its clamped budget. The server caps n at 4096 and every
// job's wall clock at one second, so no input can start a large run or a
// large sharded fan-out.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []string{
		`{"kind":"run","alg":"six","n":32,"sched":"rr"}`,
		`{"kind":"check","alg":"five","n":3}`,
		`{"kind":"fuzz","alg":"fast","campaign":16}`,
		`{"kind":"run","alg":"fast","n":1500000,"engine":"big","budget":{"timeout_ms":20000}}`,
		`{"kind":"run","alg":"dp1","topology":"random:4:1","n":50,"sched":"random","crash":0.2,"seed":7}`,
		`{"kind":"run","alg":"five","topology":"torus","n":16}`,
		`{"kind":"run","alg":"six","n":8,"sched":"rr","crash":0.5,"seed":-3}`,
	} {
		f.Add([]byte(spec))
	}
	for i, tpl := range mixedSpecs {
		f.Add([]byte(fmt.Sprintf(tpl, i)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// A server per input: a long-lived one would keep every job, and
		// every recorded trace, for the rest of the fuzzing run.
		s := serve.New(serve.Options{
			Workers:   1,
			MaxN:      4096,
			MaxBudget: runctl.Budget{Timeout: time.Second},
		})
		defer s.Drain(0)
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
		var v serve.View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("POST %q: 202 without a job view: %v", body, err)
		}
		// The job is alone on its server, so it starts at once; the grace
		// past its one-second budget covers a loaded fuzzing host.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+v.ID+"?wait=1", nil).WithContext(ctx))
		var done serve.View
		if err := json.Unmarshal(rec.Body.Bytes(), &done); err != nil || done.Status != serve.StatusDone {
			t.Fatalf("POST %q: job %s not done 20 s after submission under a 1 s budget", body, v.ID)
		}
	})
}

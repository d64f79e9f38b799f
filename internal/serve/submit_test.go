package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSubmitRaceWithIdleWorkers floods Submit from several goroutines
// while idle workers drain the queue as fast as jobs land on it. A worker
// may dequeue, run, and finish a job the instant it is sent, so Submit
// must set the job up (ID, jobWG count) before the send. When it did so
// after the send, this loop panicked with "sync: negative WaitGroup
// counter" and -race reported the ID write racing the worker's read.
func TestSubmitRaceWithIdleWorkers(t *testing.T) {
	const goroutines, perG = 4, 4000
	s := New(Options{Workers: 2, QueueDepth: 64})
	spec := JobSpec{Kind: "run", Alg: "five", N: 3, Sched: "sync"}

	accepted := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := s.Submit(spec)
				switch {
				case err == nil:
					if j.view(false).ID == "" {
						t.Error("accepted job has no ID")
					}
					accepted[g]++
				case !errors.Is(err, ErrQueueFull):
					t.Errorf("submit: %v", err)
					return
				}
				runtime.Gosched()
				if i%8 == 7 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Drain(time.Minute)

	var total int64
	for _, a := range accepted {
		total += a
	}
	st := s.Stats()
	if st.Accepted != total || st.Accepted+st.Shed != goroutines*perG {
		t.Fatalf("stats accepted=%d shed=%d, want accepted=%d and %d submissions", st.Accepted, st.Shed, total, goroutines*perG)
	}
	if st.Completed+st.Partial+st.Failed != st.Accepted {
		t.Errorf("finished %d+%d+%d jobs of %d accepted", st.Completed, st.Partial, st.Failed, st.Accepted)
	}
	// Shed submissions hand their sequence number back: accepted IDs are
	// exactly j000001.. in submission order.
	for i, j := range s.Jobs() {
		if id, want := j.view(false).ID, fmt.Sprintf("j%06d", i+1); id != want {
			t.Fatalf("job %d has ID %s, want %s", i, id, want)
		}
	}
}

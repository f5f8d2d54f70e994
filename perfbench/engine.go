package main

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"
)

// flow is a sequence of requests from one simulated client: a crowd
// session, or a one-request ingest. step sends exactly one request.
type flow interface {
	step(ctx context.Context) stepResult
}

// stepResult reports one request: its route, when it was sent and when
// its last byte was read, the pause before the flow's next request,
// whether the flow is finished, and a failure.
type stepResult struct {
	route string
	// sent and recv bracket the request itself. The load generator's own
	// work in the step (labelling, preparing a delta) falls outside them
	// and is not charged to the request; a step that failed before
	// sending leaves them zero and is timed whole.
	sent, recv time.Time
	think      time.Duration
	done       bool
	// retry marks a request the protocol expects to fail and repeat (a 409
	// after a concurrent ingest); it is not a failure.
	retry bool
	err   error
}

// timed sends the step's one request, recording sent and recv around it.
func (r *stepResult) timed(send func() error) error {
	r.sent = time.Now()
	err := send()
	r.recv = time.Now()
	return err
}

// runStep runs one step and times its request; picked is when a client
// took the step up, done when the step returned.
func runStep(ctx context.Context, f flow) (r stepResult, picked, done time.Time) {
	picked = time.Now()
	r = f.step(ctx)
	done = time.Now()
	if r.sent.IsZero() {
		r.sent, r.recv = picked, done
	}
	return r, picked, done
}

// sample is one timed request. Latency runs from due (when an open loop's
// schedule said to send it, moved later by the load generator's own work
// before the send) to end (last byte read); service time from start (the
// send) to end.
type sample struct {
	route           string
	due, start, end time.Time
	failed          bool
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }
func (s sample) service() time.Duration { return s.end.Sub(s.start) }
func (s sample) lag() time.Duration     { return s.start.Sub(s.due) }

// errAbandoned marks a flow still running when an open loop's drain
// deadline passed.
var errAbandoned = errors.New("abandoned at the drain deadline")

// outcome is a finished (or abandoned) flow with its request latencies.
type outcome struct {
	f       flow
	total   time.Duration // sum of request latencies, think time excluded
	err     error
	retries int
	endedAt time.Time
}

// runResult is everything one engine run recorded.
type runResult struct {
	samples  []sample
	outcomes []outcome
	start    time.Time
}

type item struct {
	due time.Time
	f   flow
	out *outcome
	seq int
}

type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// arrival schedules a flow's first request at offset from the run start.
type arrival struct {
	at time.Duration
	f  flow
}

// runOpen drives an open loop: every flow's first request is due at its
// arrival offset, each later request at the previous one's end plus the
// think time. workers clients take due requests earliest first; when all
// are busy, requests wait and the wait counts in their latency, so a server
// stall is charged to every request queued behind it. Flows still running
// at drain past the last arrival are abandoned (errAbandoned).
func runOpen(ctx context.Context, workers int, arrivals []arrival, drain time.Duration) runResult {
	start := time.Now()
	res := runResult{start: start, outcomes: make([]outcome, len(arrivals))}
	var (
		mu      sync.Mutex
		h       itemHeap
		pending = len(arrivals)
		seq     int
	)
	for i, a := range arrivals {
		res.outcomes[i].f = a.f
		h = append(h, &item{due: start.Add(a.at), f: a.f, out: &res.outcomes[i], seq: i})
		seq = i + 1
	}
	heap.Init(&h)
	last := time.Duration(0)
	if len(arrivals) > 0 {
		last = arrivals[len(arrivals)-1].at
	}
	ctx, cancel := context.WithDeadline(ctx, start.Add(last+drain))
	defer cancel()

	wake := make(chan struct{}, 1)
	notify := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	work := make(chan *item)
	var wg sync.WaitGroup
	var samplesMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				r, picked, done := runStep(ctx, it.f)
				// The wait before a client picked the step up is queueing
				// and counts; the step's own work before the send does not.
				due := it.due.Add(r.sent.Sub(picked))
				s := sample{route: r.route, due: due, start: r.sent, end: r.recv, failed: r.err != nil}
				samplesMu.Lock()
				res.samples = append(res.samples, s)
				samplesMu.Unlock()
				it.out.total += s.latency()
				if r.retry {
					it.out.retries++
				}
				mu.Lock()
				if r.err != nil || r.done {
					it.out.err = r.err
					it.out.endedAt = r.recv
					pending--
				} else {
					it.due = done.Add(r.think)
					it.seq = seq
					seq++
					heap.Push(&h, it)
				}
				mu.Unlock()
				notify()
			}
		}()
	}

	// The dispatcher hands the earliest due request to the next free
	// client; blocking on the hand-off is how queueing delay accrues.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
dispatch:
	for {
		mu.Lock()
		if pending == 0 {
			mu.Unlock()
			break
		}
		var next *item
		var wait time.Duration
		if h.Len() > 0 {
			if wait = time.Until(h[0].due); wait <= 0 {
				next = heap.Pop(&h).(*item)
			}
		} else {
			wait = time.Hour
		}
		mu.Unlock()
		if next != nil {
			select {
			case work <- next:
				continue
			case <-ctx.Done():
				mu.Lock()
				heap.Push(&h, next)
				mu.Unlock()
				break dispatch
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	for _, it := range h {
		if it.out.err == nil {
			it.out.err = errAbandoned
			it.out.endedAt = time.Now()
		}
	}
	return res
}

// runClosed drives a closed loop: each of workers clients runs flows back
// to back, with no pause, until window has passed and at least minFlows
// flows have started; every request is due when it is sent. next builds
// the i-th flow.
func runClosed(ctx context.Context, workers int, window time.Duration, minFlows int, next func(i int) flow) runResult {
	start := time.Now()
	res := runResult{start: start}
	var (
		mu      sync.Mutex
		started int
		wg      sync.WaitGroup
	)
	deadline := start.Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				mu.Lock()
				if (time.Now().After(deadline) && started >= minFlows) || ctx.Err() != nil {
					mu.Unlock()
					break
				}
				i := started
				started++
				res.outcomes = append(res.outcomes, outcome{})
				mu.Unlock()
				f := next(i)
				out := outcome{f: f}
				for {
					r, _, _ := runStep(ctx, f)
					local = append(local, sample{route: r.route, due: r.sent, start: r.sent, end: r.recv, failed: r.err != nil})
					out.total += r.recv.Sub(r.sent)
					if r.retry {
						out.retries++
					}
					if r.err != nil || r.done {
						out.err, out.endedAt = r.err, r.recv
						break
					}
				}
				mu.Lock()
				res.outcomes[i] = out
				mu.Unlock()
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

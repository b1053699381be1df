package service

import "sync"

// Queue is the bounded admission queue between the HTTP handlers and the
// worker pool. Admission never blocks: TryPush either enqueues or reports
// the queue full, and the handler turns a full queue into 429 with a
// Retry-After estimate — explicit backpressure instead of unbounded
// buffering.
//
// The queue has two lanes. The foreground lane carries interactive
// submissions; the background lane carries speculative work (sweep-warmer
// pre-executions) that is only worth doing on otherwise-idle workers. Pop
// always prefers foreground, so speculation never costs an interactive
// request its place in line: a background job reaches a worker only when
// no foreground job waits at that moment. Whether a worker is idle is
// decided there, at Pop, and not at admission — a prediction made while
// the foreground job that triggered it still sits in the lane (no worker
// parked in Pop yet) would otherwise shed itself and never run.
type Queue struct {
	mu     sync.Mutex
	ch     chan *Job
	bg     chan *Job
	closed bool
}

// NewQueue builds a queue holding at most capacity jobs per lane.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{ch: make(chan *Job, capacity), bg: make(chan *Job, capacity)}
}

// TryPush enqueues the job on the foreground lane, or reports false when
// the lane is full or the queue is closed for draining.
func (q *Queue) TryPush(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

// TryPushBackground enqueues the job on the background lane. It reports
// false — shedding the job — when the queue is closed or the lane is full.
func (q *Queue) TryPushBackground(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.bg <- j:
		return true
	default:
		return false
	}
}

// Pop blocks for the next job, always draining the foreground lane before
// touching the background one. It reports false once the queue is closed
// and the foreground lane has drained.
func (q *Queue) Pop() (*Job, bool) {
	select {
	case j, ok := <-q.ch:
		return j, ok
	default:
	}
	select {
	case j, ok := <-q.ch:
		return j, ok
	case j, ok := <-q.bg:
		if !ok {
			// Background lane closed: the queue is draining, so wait out
			// the remaining foreground jobs.
			j2, ok2 := <-q.ch
			return j2, ok2
		}
		return j, true
	}
}

// Chan is the foreground lane's receive end; it is closed by Close after
// the remaining jobs drain.
func (q *Queue) Chan() <-chan *Job { return q.ch }

// Close stops admission on both lanes. Foreground jobs already queued
// remain receivable; the channels close once Pop drains them.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
		close(q.bg)
	}
}

// Depth returns the number of queued foreground jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// BgDepth returns the number of queued background jobs.
func (q *Queue) BgDepth() int { return len(q.bg) }

// Cap returns the per-lane queue capacity.
func (q *Queue) Cap() int { return cap(q.ch) }

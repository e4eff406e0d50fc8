// Package handoff provides Queue, the batch hand-off between many producers
// and one consumer that registry watchers, federation forward buffers and the
// runtime's ingest ready queue share, so its wake rule, retain bound and close
// semantics are stated and tested once, here.
package handoff

import "sync"

// Queue is a double-buffered queue with many producers and one consumer.
// Push appends one item; Take swaps everything pending against the batch the
// consumer spent last time, so steady traffic allocates nothing and a burst
// of any size is handed over in one call. Invariants:
//   - Every slot past len of either buffer is the zero T: append writes only
//     below the new len and Take clears the used prefix of a spent batch, so
//     no reference outlives its hand-off.
//   - Only the empty → non-empty Push wakes the consumer, which parks only
//     after seeing nothing to take under the same lock.
//   - A spent batch with capacity above retain is dropped, not reused, so a
//     burst's high-water mark is shed instead of pinned for life.
//
// The mutex is a leaf lock: Push calls out to nothing, so a producer may push
// under a lock of its own, which orders the push before a Close made under
// that lock.
type Queue[T any] struct {
	retain, bound int

	mu      sync.Mutex
	wake    sync.Cond // signalled on the empty → non-empty push and on Close
	pending []T
	queued  uint64 // pushes queued since New
	lost    bool   // a push was dropped at the bound since the last Take
	closed  bool
}

// New returns an empty queue. Take reuses a spent batch only while its
// capacity is at most retain. A positive bound caps the pending items: past
// it pushes are dropped and the next Take reports the loss; zero means
// unbounded.
func New[T any](retain, bound int) *Queue[T] {
	q := &Queue[T]{retain: retain, bound: bound}
	q.wake.L = &q.mu
	return q
}

// Push queues v and reports whether it was queued: it returns false after
// Close, and when bound items are already pending, a drop the next Take
// reports.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.bound > 0 && len(q.pending) >= q.bound {
		q.lost = true
		q.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, v)
	q.queued++
	wake := len(q.pending) == 1
	q.mu.Unlock()
	// Outside the lock, so the woken consumer does not block on it: Wait
	// joins the wake list before it unlocks, so this Signal still reaches
	// a consumer that saw the queue empty.
	if wake {
		q.wake.Signal()
	}
	return true
}

// Take blocks until items are pending, a loss is to be reported, or the
// queue is closed, and returns every pending item, oldest first. lost
// reports, once, that pushes were dropped at the bound since the previous
// call. ok is false only once the queue is closed and every item pushed
// before Close has been handed over.
//
// spent is the batch returned by the previous call, given back for reuse:
// Take clears it and keeps it as the next pending buffer unless its capacity
// exceeds retain. The returned batch is the caller's until its next call.
// Take must not be called concurrently with itself.
func (q *Queue[T]) Take(spent []T) (batch []T, lost, ok bool) {
	clear(spent)
	if cap(spent) > q.retain {
		spent = nil
	}
	spent = spent[:0]
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending) == 0 && !q.lost && !q.closed {
		q.wake.Wait()
	}
	if len(q.pending) == 0 && !q.lost {
		return spent, false, false
	}
	batch, q.pending = q.pending, spent
	lost, q.lost = q.lost, false
	return batch, lost, true
}

// Queued reports how many pushes the queue has queued since New, dropped
// ones not counted. A consumer that counts the items Take hands it knows it
// has taken every item queued before a Queued call once its count reaches
// the result.
func (q *Queue[T]) Queued() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// Close refuses further pushes and wakes a parked Take; items already pending
// are still handed over before Take reports the end. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.wake.Signal()
	q.mu.Unlock()
}

// Package jobserver poses as the job service so the lockheld scope
// applies: blocking operations under a held mutex, Cond.Wait outside a
// for loop, and inconsistent lock-acquisition order are flagged.
package jobserver

import (
	"os"
	"sync"
)

type svc struct {
	mu   sync.Mutex
	reg  sync.Mutex
	cond *sync.Cond
	jobs chan int
	n    int
}

// sendUnderLock blocks on a channel send while holding mu.
func (s *svc) sendUnderLock(v int) {
	s.mu.Lock()
	s.jobs <- v // want: lockheld
	s.mu.Unlock()
}

// recvUnderDeferredLock: defer Unlock keeps mu held to the end, so the
// receive blocks under it.
func (s *svc) recvUnderDeferredLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.jobs // want: lockheld
}

// waitNoLoop re-checks no predicate: Cond.Wait must sit in a for loop.
func (s *svc) waitNoLoop() {
	s.mu.Lock()
	if s.n == 0 {
		s.cond.Wait() // want: lockheld
	}
	s.mu.Unlock()
}

// waitLoop is the compliant pattern.
func (s *svc) waitLoop() {
	s.mu.Lock()
	for s.n == 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// lockAB and lockBA acquire the mu/reg pair in opposite orders: a
// deadlock under contention.
func (s *svc) lockAB() {
	s.mu.Lock()
	s.reg.Lock() // want: lockheld
	s.n++
	s.reg.Unlock()
	s.mu.Unlock()
}

func (s *svc) lockBA() {
	s.reg.Lock()
	s.mu.Lock() // want: lockheld
	s.n++
	s.mu.Unlock()
	s.reg.Unlock()
}

// blockingHelper reaches a channel send; holding callers are flagged
// at their call site through the static call graph.
func (s *svc) blockingHelper(v int) {
	s.jobs <- v
}

func (s *svc) indirectSend(v int) {
	s.mu.Lock()
	s.blockingHelper(v) // want: lockheld
	s.mu.Unlock()
}

// afterUnlock is compliant: the send happens after release.
func (s *svc) afterUnlock(v int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.jobs <- v
}

// callback creates a literal that sends: the literal runs on some
// other goroutine, so the creator's lock is not considered held there.
func (s *svc) callback(v int) func() {
	s.mu.Lock()
	fn := func() { s.jobs <- v }
	s.mu.Unlock()
	return fn
}

// journal mimics the write-ahead log: Commit performs file I/O
// (fsync), which must never run under the service mutex — the
// production journal discipline releases mu before every append or
// commit.
type journal struct {
	f *os.File
}

func (j *journal) commit() error {
	return j.f.Sync()
}

// flushUnderLock commits the journal while holding mu: every
// submitter and streamer stalls behind the disk.
func (s *svc) flushUnderLock(j *journal) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.commit() // want: lockheld
}

// syncUnderLock is the direct form: the fsync itself sits under mu.
func (s *svc) syncUnderLock(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.Sync() // want: lockheld
}

// flushAfterUnlock is the compliant journal discipline: mutate state
// under the lock, release, then do the I/O.
func (s *svc) flushAfterUnlock(j *journal) error {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return j.commit()
}

// future doubles for a pool future: wait blocks until a worker has
// resolved it.
type future struct {
	done chan struct{}
}

func (f *future) wait() { <-f.done }

// collectUnderLock waits for a future while holding mu. The worker
// resolving it publishes under the same mutex, so this never returns.
func (s *svc) collectUnderLock(f *future) {
	s.mu.Lock()
	f.wait() // want: lockheld
	s.n++
	s.mu.Unlock()
}

// collectAfterUnlock is the compliant order: release, wait, re-acquire
// to apply.
func (s *svc) collectAfterUnlock(f *future) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	f.wait()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

package mapreduce

// BufList is an explicit free list of byte buffers owned by one map
// attempt. Readers borrow line and carry buffers from it instead of
// allocating per record, and return them on Close so a later reader of
// the same attempt can reuse the memory.
//
// It is deliberately not a sync.Pool: pools hand buffers out in
// scheduling-dependent order, which would let pool size leak into any
// code that (even accidentally) observes buffer identity, and the
// sharedstate analyzer could no longer prove the compute plane pure.
// A BufList is plain attempt-local state — created in executeMap,
// reachable only from that attempt's reader and emitter, and dead when
// the attempt's MapOutput is materialized. The approxlint sharedstate
// analyzer flags sync.Pool inside //approx:compute closures for
// exactly this reason.
type BufList struct {
	free [][]byte
}

// Get returns a zero-length buffer with at least min capacity,
// preferring the most recently freed one that fits.
func (l *BufList) Get(min int) []byte {
	for i := len(l.free) - 1; i >= 0; i-- {
		if cap(l.free[i]) >= min {
			b := l.free[i]
			l.free = append(l.free[:i], l.free[i+1:]...)
			return b[:0]
		}
	}
	return make([]byte, 0, min)
}

// Put returns a buffer to the free list. Callers must not retain views
// into it afterwards.
func (l *BufList) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.free = append(l.free, b[:0])
}

// BufferLender is implemented by RecordReaders that can borrow their
// working buffers (the line carry) from an attempt-owned free
// list instead of allocating their own. The framework injects the
// attempt's list right after InputFormat.Open, alongside SetMeter.
//
//approx:pure
type BufferLender interface {
	SetBuffers(l *BufList)
}

package runner

import (
	"context"
	"sync"
)

// chunkSize is the fixed size of a StreamLog chunk.
const chunkSize = 64 << 10

// StreamLog is the append-only byte log a running job's event stream is
// captured in. Writers append whole JSONL lines; any number of readers
// follow from any offset, so an SSE subscriber that attaches mid-run
// replays the prefix and then tails live appends. Concatenating everything
// a reader sees reconstructs the exact bytes the writer produced — the
// byte-identity the `scalabletcc/events v1` framing promises.
//
// The log is a list of fixed chunkSize chunks. A chunk is allocated once
// and never moved, so an append never copies the log, and a reader can be
// handed a slice of a chunk's filled prefix without a copy: writers only
// ever fill bytes beyond it.
//
// Close marks the end of the stream; writes after Close are silently
// dropped (an abandoned job goroutine may still be running — same policy
// as harness and fuzz wall-clock guards).
type StreamLog struct {
	mu     sync.Mutex
	chunks [][]byte // every chunk but the last is full
	n      int      // total bytes appended
	closed bool
	// notify is closed and replaced to wake readers blocked in Wait; a
	// writer does so only when waiting says one is there.
	notify  chan struct{}
	waiting bool
}

// NewStreamLog returns an empty open log.
func NewStreamLog() *StreamLog {
	return &StreamLog{notify: make(chan struct{})}
}

// Write appends p. It never fails: after Close the bytes are discarded but
// the write still reports success, so a late writer does not error out.
func (l *StreamLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return len(p), nil
	}
	l.n += len(p)
	for rest := p; len(rest) > 0; {
		last := len(l.chunks) - 1
		if last < 0 || len(l.chunks[last]) == chunkSize {
			l.chunks = append(l.chunks, make([]byte, 0, chunkSize))
			last++
		}
		c := l.chunks[last]
		k := min(len(rest), chunkSize-len(c))
		l.chunks[last] = append(c, rest[:k]...)
		rest = rest[k:]
	}
	l.wake()
	return len(p), nil
}

// Close marks the stream complete and wakes all waiting readers.
func (l *StreamLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.wake()
	}
}

// wake broadcasts to blocked readers, if there are any; callers hold l.mu.
func (l *StreamLog) wake() {
	if l.waiting {
		l.waiting = false
		close(l.notify)
		l.notify = make(chan struct{})
	}
}

// Len returns the number of bytes appended so far.
func (l *StreamLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// ReadFrom returns a copy of the bytes from offset off onward and whether
// the stream is complete. An offset at or beyond the end returns nil data.
func (l *StreamLog) ReadFrom(off int) (data []byte, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ; off < l.n; off += len(l.chunks[off/chunkSize]) - off%chunkSize {
		data = append(data, l.chunks[off/chunkSize][off%chunkSize:]...)
	}
	return data, l.closed
}

// Wait blocks until there are bytes beyond off, the stream closes, or ctx
// is done. It returns the bytes from off to the end of off's chunk — a
// read-only view into the log, capacity-capped so appending to it copies —
// and whether the stream is closed with nothing beyond that view left.
func (l *StreamLog) Wait(ctx context.Context, off int) (data []byte, closed bool, err error) {
	for {
		l.mu.Lock()
		if off < l.n {
			c := l.chunks[off/chunkSize]
			data = c[off%chunkSize : len(c) : len(c)]
			closed = l.closed && off+len(data) == l.n
			l.mu.Unlock()
			return data, closed, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, true, nil
		}
		l.waiting = true
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

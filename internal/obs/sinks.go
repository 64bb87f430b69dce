package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ---------------------------------------------------------------------------
// JSONL stream.

const (
	// StreamSchema identifies the JSONL event-stream document type.
	StreamSchema = "scalabletcc/events"
	// StreamVersion is bumped whenever a field changes meaning or is
	// removed; additions keep the version.
	StreamVersion = 1
)

// sampleLine wraps a Sample with its "k" discriminator.
type sampleLine struct {
	K string `json:"k"`
	Sample
}

// appendEvent appends e's v1 wire form: the exact bytes json.Marshal(e)
// produces — fields in struct order, omitempty fields dropped when zero (Data
// when empty, nil or not), numbers in decimal. A Set holding anything beyond
// printable ASCII free of '"', '\\' and the HTML-escaped '<', '>', '&' falls
// back to encoding/json's own string encoding.
func appendEvent(dst []byte, e *Event) []byte {
	dst = strconv.AppendUint(append(dst, `{"c":`...), e.Cycle, 10)
	dst = appendKind(append(dst, `,"k":`...), e.Kind)
	dst = strconv.AppendInt(append(dst, `,"n":`...), int64(e.Node), 10)
	dst = strconv.AppendInt(append(dst, `,"p":`...), int64(e.Peer), 10)
	dst = appendUint(dst, `,"tid":`, e.TID)
	dst = appendUint(dst, `,"tid2":`, e.TID2)
	dst = appendUint(dst, `,"addr":`, e.Addr)
	dst = appendUint(dst, `,"words":`, e.Words)
	dst = appendUint(dst, `,"sr":`, e.SR)
	dst = appendUint(dst, `,"sm":`, e.SM)
	if e.Arg != 0 {
		dst = strconv.AppendInt(append(dst, `,"arg":`...), e.Arg, 10)
	}
	if len(e.Data) > 0 {
		dst = append(dst, `,"data":[`...)
		for i, w := range e.Data {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, w, 10)
		}
		dst = append(dst, ']')
	}
	if e.Set != "" {
		dst = appendString(append(dst, `,"set":`...), e.Set)
	}
	return append(dst, '}')
}

// appendUint appends an omitempty unsigned field.
func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendString appends s as a JSON string the way encoding/json does.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a Go string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// JSONLStream streams events (and sampler records) as JSON lines. The first
// line is a schema header; every following line carries a "k" discriminator —
// an event kind name, or "sample" for a sampler record. Output depends only
// on the event sequence, so equal-seed runs produce byte-identical streams.
//
// Each complete line is handed to w the moment it is produced, which lets a
// runner.StreamLog subscriber tail a running job. Event lines are encoded by
// appendEvent into one reused line buffer; w must not retain it (the
// io.Writer contract). Write errors are sticky and reported by Err.
type JSONLStream struct {
	w      io.Writer
	err    error
	header bool
	line   []byte
}

// NewJSONLStream returns an unbuffered line-at-a-time writer streaming to w.
func NewJSONLStream(w io.Writer) *JSONLStream {
	return &JSONLStream{w: w}
}

// ResumeJSONLStream returns a stream continuing an existing
// scalabletcc/events byte stream: the schema header is taken to be already
// emitted (it lives in the replayed prefix a resumed run writes first), so
// the next line written is an event, not a second header.
func ResumeJSONLStream(w io.Writer) *JSONLStream {
	return &JSONLStream{w: w, header: true}
}

// Event writes one event line.
func (j *JSONLStream) Event(e Event) { j.write(appendEvent(j.begin(), &e)) }

// Sample writes one sampler line, discriminated by "k":"sample". Samples are
// rare and carry floats, so they keep encoding/json.
func (j *JSONLStream) Sample(s Sample) {
	line := j.begin()
	b, err := json.Marshal(sampleLine{"sample", s})
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: marshal event: %w", err)
	}
	j.write(append(line, b...))
}

// Err returns the first write or encode error encountered.
func (j *JSONLStream) Err() error { return j.err }

// begin returns the emptied line buffer, writing the schema header
// ({"schema":"scalabletcc/events","version":1}) ahead of the first line.
func (j *JSONLStream) begin() []byte {
	if !j.header {
		j.header = true
		hdr := append(j.line[:0], `{"schema":"`+StreamSchema+`","version":`...)
		j.write(append(strconv.AppendInt(hdr, StreamVersion, 10), '}'))
	}
	return j.line[:0]
}

// write terminates line and hands it to w; after the first error nothing
// more is written.
func (j *JSONLStream) write(line []byte) {
	j.line = append(line, '\n')
	if j.err == nil {
		if _, err := j.w.Write(j.line); err != nil {
			j.err = err
		}
	}
}

// JSONLWriter is a JSONLStream over a bufio.Writer: the buffered sink for
// files. Call Flush when the run completes; it reports the first error.
type JSONLWriter struct {
	JSONLStream
	buf *bufio.Writer
}

// NewJSONL returns a buffered writer streaming to w.
func NewJSONL(w io.Writer) *JSONLWriter {
	buf := bufio.NewWriter(w)
	return &JSONLWriter{JSONLStream: JSONLStream{w: buf}, buf: buf}
}

// Flush drains the buffer and returns the first error encountered.
func (j *JSONLWriter) Flush() error {
	if err := j.buf.Flush(); j.err == nil {
		j.err = err
	}
	return j.err
}

// ---------------------------------------------------------------------------
// Bounded ring buffer.

// RingBuffer retains the most recent events, overwriting the oldest once
// capacity is reached — a crash-dump tail for debugging wedged or misbehaving
// runs without the cost of a full stream.
type RingBuffer struct {
	buf  []Event
	next int
	seen uint64
}

// NewRing returns a buffer retaining the last capacity events.
func NewRing(capacity int) *RingBuffer {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &RingBuffer{buf: make([]Event, 0, capacity)}
}

// Event records e, evicting the oldest retained event when full.
func (r *RingBuffer) Event(e Event) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Events returns the retained events, oldest first.
func (r *RingBuffer) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Seen returns the total number of events observed.
func (r *RingBuffer) Seen() uint64 { return r.seen }

// Dropped returns how many events were evicted to stay within capacity.
func (r *RingBuffer) Dropped() uint64 { return r.seen - uint64(len(r.buf)) }

// ---------------------------------------------------------------------------
// Counting aggregator.

// Counter tallies events by kind. Its totals reconcile with a run's Results
// counters (commits, violations, per-kind message counts), which makes it
// the cheap always-on aggregation sink for sweeps.
type Counter struct {
	counts [NumKinds]uint64
}

// NewCounter returns an empty aggregator.
func NewCounter() *Counter { return &Counter{} }

// Event tallies e.
func (c *Counter) Event(e Event) { c.counts[e.Kind]++ }

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) uint64 { return c.counts[k] }

// Total returns the tally across all kinds.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Counts returns the per-kind tallies indexed by Kind.
func (c *Counter) Counts() [NumKinds]uint64 { return c.counts }

// ByName returns the non-zero tallies keyed by kind wire name (the form the
// tccbench JSON cells embed).
func (c *Counter) ByName() map[string]uint64 {
	out := make(map[string]uint64)
	for k, n := range c.counts {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Fan-out.

type tee struct {
	obs []Observer
}

// Tee fans events (and samples, for sinks that take them) out to every
// observer in order. A nil entry is skipped; Tee() with no live observers
// returns nil so the emitters' nil-check disables observation entirely.
func Tee(list ...Observer) Observer {
	var live []Observer
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{obs: live}
}

func (t *tee) Event(e Event) {
	for _, o := range t.obs {
		o.Event(e)
	}
}

func (t *tee) Sample(s Sample) {
	for _, o := range t.obs {
		if so, ok := o.(SampleObserver); ok {
			so.Sample(s)
		}
	}
}

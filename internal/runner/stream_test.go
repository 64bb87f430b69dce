package runner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// readAll follows l from off with Wait until the stream is closed and
// returns the concatenation of every view it was handed.
func readAll(t *testing.T, l *StreamLog, off int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []byte
	for {
		data, closed, err := l.Wait(ctx, off)
		if err != nil {
			t.Errorf("Wait(%d): %v", off, err)
			return out
		}
		if len(data) != cap(data) {
			t.Errorf("Wait(%d) view has len %d cap %d: appending to it would write into the log", off, len(data), cap(data))
		}
		if len(data) > chunkSize-off%chunkSize {
			t.Errorf("Wait(%d) returned %d bytes, past the end of its chunk", off, len(data))
		}
		out = append(out, data...)
		off += len(data)
		if closed {
			return out
		}
	}
}

func filler(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + (seed+byte(i))%26
	}
	return b
}

// Writes that end exactly on a chunk boundary, writes that straddle one,
// and one write spanning several chunks (the resumed-run prefix replay)
// all read back byte for byte, and a view handed out earlier is never
// disturbed by later appends.
func TestStreamLogChunkEdges(t *testing.T) {
	l := NewStreamLog()
	var want []byte
	write := func(p []byte) {
		t.Helper()
		if n, err := l.Write(p); n != len(p) || err != nil {
			t.Fatalf("Write: n=%d err=%v", n, err)
		}
		want = append(want, p...)
	}

	write(filler(chunkSize, 0)) // ends exactly on the first boundary
	first, closed, err := l.Wait(context.Background(), 0)
	if err != nil || closed || !bytes.Equal(first, want) {
		t.Fatalf("first chunk: %d bytes closed=%v err=%v", len(first), closed, err)
	}
	snapshot := append([]byte(nil), first...)

	write(filler(chunkSize-10, 1))  // leaves 10 bytes in chunk 1
	write(filler(25, 2))            // straddles the 1/2 boundary
	write(filler(3*chunkSize+7, 3)) // one write larger than a chunk
	write(filler(chunkSize-7-(len(want)+chunkSize-7)%chunkSize, 4))
	if len(want)%chunkSize != 0 {
		t.Fatalf("setup: log should end on a boundary, is %d bytes", len(want))
	}
	write([]byte("x\n"))

	if !bytes.Equal(first, snapshot) {
		t.Fatal("a view returned by Wait changed under later appends")
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	// A view starting mid-chunk ends at its chunk's end.
	mid, _, _ := l.Wait(context.Background(), chunkSize+chunkSize-10)
	if !bytes.Equal(mid, want[2*chunkSize-10:2*chunkSize]) {
		t.Fatalf("mid-chunk view: %d bytes", len(mid))
	}
	for _, off := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3 * chunkSize, len(want) - 1} {
		data, closed := l.ReadFrom(off)
		if closed || !bytes.Equal(data, want[off:]) {
			t.Fatalf("ReadFrom(%d): %d bytes closed=%v, want %d", off, len(data), closed, len(want)-off)
		}
	}
	l.Close()
	for _, off := range []int{0, chunkSize - 3, 2 * chunkSize, len(want)} {
		if got := readAll(t, l, off); !bytes.Equal(got, want[off:]) {
			t.Fatalf("reader from %d reconstructed %d bytes, want %d", off, len(got), len(want)-off)
		}
	}
}

// Close with chunks still unread must not report closed until the reader
// has been handed the last byte.
func TestStreamLogCloseReportedAtEnd(t *testing.T) {
	l := NewStreamLog()
	l.Write(filler(2*chunkSize+100, 0))
	l.Close()
	off := 0
	for i, wantLen := range []int{chunkSize, chunkSize, 100} {
		data, closed, err := l.Wait(context.Background(), off)
		if err != nil || len(data) != wantLen {
			t.Fatalf("view %d: %d bytes err=%v, want %d", i, len(data), err, wantLen)
		}
		if last := i == 2; closed != last {
			t.Fatalf("view %d: closed=%v with %d bytes still unread", i, closed, l.Len()-off-len(data))
		}
		off += len(data)
	}
	if data, closed, err := l.Wait(context.Background(), off); data != nil || !closed || err != nil {
		t.Fatalf("Wait at the end of a closed log: %d bytes closed=%v err=%v", len(data), closed, err)
	}
}

// A writer with no blocked reader leaves notify alone: one channel per
// reader wake, not one per line.
func TestStreamLogWakesOnlyWaiters(t *testing.T) {
	l := NewStreamLog()
	ch := l.notify
	for i := 0; i < 100; i++ {
		l.Write([]byte("line\n"))
	}
	if l.notify != ch {
		t.Fatal("writes with no waiting reader replaced the notify channel")
	}

	got := make(chan []byte)
	go func() {
		data, _, err := l.Wait(context.Background(), l.Len())
		if err != nil {
			t.Error(err)
		}
		got <- data
	}()
	for {
		l.mu.Lock()
		waiting := l.waiting
		l.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Write([]byte("wake\n"))
	if data := <-got; string(data) != "wake\n" {
		t.Fatalf("woken reader saw %q", data)
	}
	if l.notify == ch {
		t.Fatal("a write with a waiting reader must wake it")
	}
}

// Readers attaching at random offsets while a writer appends each
// reconstruct exactly the bytes written from their offset on. Run under
// -race: views are read while later bytes of the same chunk are written.
func TestStreamLogConcurrentReaders(t *testing.T) {
	l := NewStreamLog()
	r := rand.New(rand.NewSource(1))
	var writes [][]byte
	total := 0
	for total < 6*chunkSize {
		n := 1 + r.Intn(300)
		if r.Intn(50) == 0 {
			n = chunkSize + r.Intn(chunkSize) // a prefix-replay sized write
		}
		writes = append(writes, filler(n, byte(len(writes))))
		total += n
	}
	want := bytes.Join(writes, nil)

	const readers = 8
	offs := make(chan int, readers)
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		for i, w := range writes {
			l.Write(w)
			if i%(len(writes)/readers) == 0 && len(offs) < readers {
				offs <- r.Intn(l.Len() + 1)
			}
		}
		for len(offs) < readers {
			offs <- r.Intn(l.Len() + 1)
		}
		l.Close()
	}()
	for i := 0; i < readers; i++ {
		go func() {
			defer wg.Done()
			off := <-offs
			if got := readAll(t, l, off); !bytes.Equal(got, want[off:]) {
				t.Errorf("reader from %d reconstructed %d bytes, want %d", off, len(got), len(want)-off)
			}
		}()
	}
	wg.Wait()
}

// An SSE subscriber reconstructs the job's stream byte for byte when lines
// straddle chunk boundaries, span a whole chunk, arrive in one write larger
// than a chunk, or end exactly on a boundary; the frames are
// `data: <line>\n\n` and the stream ends with the done frame.
func TestServeEventsReconstructsAcrossChunks(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	line := func(n int) string {
		return fmt.Sprintf(`{"k":"x","pad":"%s"}`, filler(n, byte(r.Intn(26))))
	}
	var prefix, live []string
	size := 0
	for size < chunkSize+chunkSize/2 { // replayed in one write
		prefix = append(prefix, line(r.Intn(2000)))
		size += len(prefix[len(prefix)-1]) + 1
	}
	live = append(live, line(2*chunkSize)) // no newline in a whole chunk
	size += len(live[0]) + 1
	for size < 4*chunkSize-6000 {
		live = append(live, line(r.Intn(5000)))
		size += len(live[len(live)-1]) + 1
	}
	// End the live part exactly on a chunk boundary.
	live = append(live, line(4*chunkSize-size-len(line(0))-1))

	release := make(chan struct{})
	started := make(chan struct{})
	exec := func(ctx context.Context, spec *JobSpec, jc *JobContext) (*JobResult, error) {
		io.WriteString(jc.Log, strings.Join(prefix, "\n")+"\n")
		close(started)
		<-release
		for _, s := range live {
			io.WriteString(jc.Log, s+"\n")
		}
		return &JobResult{Kind: spec.Kind}, nil
	}
	q := NewQueue(Config{Capacity: 1, Workers: 1}, exec)
	defer q.Shutdown()
	srv := httptest.NewServer(NewServer(q))
	defer srv.Close()

	st := decodeStatus(t, postSpec(t, srv.URL, runSpec("sse")))
	<-started
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if log, _ := q.Events(st.ID); log.Len() != 4*chunkSize {
		t.Fatalf("setup: stream is %d bytes, want it to end on a boundary at %d", log.Len(), 4*chunkSize)
	}

	var want strings.Builder
	for _, s := range append(prefix, live...) {
		fmt.Fprintf(&want, "data: %s\n\n", s)
	}
	want.WriteString("event: done\ndata: {\"k\":\"job-done\",\"state\":\"done\"}\n\n")
	if string(body) != want.String() {
		t.Fatalf("SSE body differs: got %d bytes, want %d", len(body), want.Len())
	}
}

// BenchmarkStreamLogWrite appends 100-byte lines. A chunk is allocated once
// per ~650 lines, so the amortised cost must report 0 allocs/op; the log is
// replaced every 8 MiB to keep the benchmark's footprint bounded.
func BenchmarkStreamLogWrite(b *testing.B) {
	line := append(bytes.Repeat([]byte("x"), 99), '\n')
	l := NewStreamLog()
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if l.n >= 8<<20 {
			l = NewStreamLog()
		}
		l.Write(line)
	}
}

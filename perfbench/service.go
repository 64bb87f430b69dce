package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

// serviceWorkload drives an in-process tccd — the daemon's job queue and
// HTTP API on a loopback listener, with no state directory — from a closed
// loop of clients. Each client submits a run job, reads its event stream to
// the done frame, fetches the result, and only then submits the next job.
type serviceWorkload struct {
	clients, workers int
	procs            int
	scale            float64
	apps             []string
	// protocols lists tcc twice so half the jobs run the paper's design.
	protocols []string
	// seedsPerSlot spreads each app/protocol slot over several programs, so
	// the latency tail does not hang on one generated program.
	seedsPerSlot int
}

// jobSpec is one job of the mix and the result it must produce.
type jobSpec struct {
	label   string
	body    []byte // the encoded scalabletcc/job document
	summary []byte // the reference summary, compact JSON
}

// jobRec is one completed job's timeline: client-side instants and the
// daemon's own status timestamps.
type jobRec struct {
	submit, accepted, streamed, resulted time.Time
	created, started, finished           time.Time
	scale                                float64 // raw to reference seconds
	eventBytes                           int
	cycles                               uint64
}

// ms is the interval from..to in reference milliseconds.
func (r jobRec) ms(from, to time.Time) float64 { return to.Sub(from).Seconds() * r.scale * 1e3 }

func (r jobRec) latencyMS() float64 { return r.ms(r.submit, r.resulted) }

var errRefused = errors.New("queue full (429)")

func (w serviceWorkload) run(b *bench) error {
	specs, err := w.jobMix(b)
	if err != nil || b.failed > 0 {
		return err
	}

	// Set-up: start the queue and the HTTP server and wait until it answers.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}}
	defer hc.CloseIdleConnections()
	var (
		q      *runner.Queue
		srv    *httptest.Server
		setups []float64
	)
	ref0 := b.sampleRef()
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.Close()
			q.Shutdown()
		}
		runtime.GC()
		t0 := time.Now()
		q = runner.NewQueue(runner.Config{
			Capacity: 64, Workers: w.workers, Validate: tcc.ValidateJobSpec,
		}, tcc.ExecuteJob)
		srv = httptest.NewServer(runner.NewServer(q))
		if err := getOK(hc, srv.URL+"/healthz"); err != nil {
			srv.Close()
			q.Shutdown()
			return fmt.Errorf("daemon health check: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		srv.Close()
		q.Shutdown()
	}()
	b.e2e("setup_s", median(setups)*speedScale(ref0, b.sampleRef()))

	if !b.trace {
		jobs, window, m := w.measure(b, hc, srv.URL, specs, b.seconds, nil)
		w.report(b, jobs, window, m)
		return nil
	}
	plain, window, m := w.measure(b, hc, srv.URL, specs, b.seconds/2, nil)
	rec := newSpanRecorder()
	var traced []jobRec
	lp, err := b.profile(func() { traced, _, _ = w.measure(b, hc, srv.URL, specs, b.seconds/2, rec) })
	if err != nil {
		return err
	}
	if err := b.writeSpans(rec); err != nil {
		return err
	}
	w.report(b, plain, window, m)
	w.layers(b, plain, traced, lp)
	return nil
}

// jobMix builds the job documents — every app under every protocol slot,
// seedsPerSlot times with its own input seed — and fixes each job's
// reference summary by running it directly (not through the daemon) with
// the serializability oracle on. The direct runs use every CPU.
func (w serviceWorkload) jobMix(b *bench) ([]jobSpec, error) {
	type entry struct {
		spec *tcc.JobSpec
		txs  uint64
		res  *tcc.JobResult
		err  error
	}
	var entries []*entry
	for _, app := range w.apps {
		prof, err := tcc.ProfileByNameErr(app)
		if err != nil {
			return nil, err
		}
		for _, proto := range w.protocols {
			for i := 0; i < w.seedsPerSlot; i++ {
				seed := derive(b.inputSeed(), uint64(len(entries)))
				spec := tcc.NewJobSpec(tcc.JobKindRun)
				spec.Run = &tcc.RunSpec{Protocol: proto, App: app, Procs: w.procs, Scale: w.scale, Seed: seed}
				txs := programTxs(prof.Scale(w.scale).Build(w.procs, seed))
				entries = append(entries, &entry{spec: spec, txs: txs})
			}
		}
	}

	next := make(chan *entry)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range next {
				check := *e.spec.Run
				check.Verify = true
				vspec := *e.spec
				vspec.Run = &check
				e.res, e.err = tcc.ExecuteJob(context.Background(), &vspec, nil)
			}
		}()
	}
	for _, e := range entries {
		next <- e
	}
	close(next)
	wg.Wait()

	var specs []jobSpec
	for i, e := range entries {
		r := e.spec.Run
		label := fmt.Sprintf("j%02d %s/%s", i, r.App, r.Protocol)
		b.attempted++
		if e.err != nil {
			b.fail("%s: direct run: %v", label, e.err)
			continue
		}
		if e.res.Serializable == nil || !*e.res.Serializable {
			b.fail("%s: not serializable (%d violations)", label, e.res.Violations)
		}
		var sum tcc.Summary
		if err := json.Unmarshal(e.res.Summary, &sum); err != nil {
			return nil, fmt.Errorf("%s: decode summary: %w", label, err)
		}
		if sum.Commits != e.txs {
			b.fail("%s: %d of %d transactions committed", label, sum.Commits, e.txs)
		}
		sum.Protocol = r.Protocol
		b.checkPinned(label, sum)
		body, err := e.spec.Encode()
		if err != nil {
			return nil, err
		}
		specs = append(specs, jobSpec{label: label, body: body, summary: compactJSON(e.res.Summary)})
	}
	return specs, nil
}

func compactJSON(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

func getOK(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// sliceS is how long the closed loop runs between two samples of the
// reference loop. Clients finish their job in flight at the end of a slice,
// so the daemon is idle while the reference loop runs.
const sliceS = 1.0

// peakHeapJobs is the job count at which the service's heap is read: the
// daemon keeps every job's event log, so its heap grows with the jobs it
// has run, and a fixed count makes runs comparable.
const peakHeapJobs = 128

// measure runs the closed loop for seconds, in slices, and returns the
// completed jobs, the window's length in reference seconds, and the heap
// statistics over the window.
func (w serviceWorkload) measure(b *bench, hc *http.Client, base string, specs []jobSpec,
	seconds float64, rec *spanRecorder) ([]jobRec, float64, memDelta) {
	runtime.GC()
	var m0, mPeak runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref := b.sampleRef()
	var (
		mu     sync.Mutex
		jobs   []jobRec
		window float64
	)
	cursor := make([]int, w.clients) // each client's next job in the mix
	for c := range cursor {
		// Clients start at opposite ends of the mix so the jobs in flight
		// are usually different.
		cursor[c] = c * len(specs) / w.clients
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for slice := 0; slice == 0 || time.Now().Before(deadline); slice++ {
		start := time.Now()
		sliceEnd := start.Add(time.Duration(sliceS * float64(time.Second)))
		first := len(jobs)
		last := start
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(sliceEnd) {
					s := specs[cursor[c]%len(specs)]
					cursor[c]++
					r, err := runJob(hc, base, s)
					mu.Lock()
					b.attempted++
					switch {
					case errors.Is(err, errRefused):
						b.refused++
						b.fail("%s: %v", s.label, err)
					case err != nil:
						b.fail("%s: %v", s.label, err)
					default:
						jobs = append(jobs, r)
						if r.resulted.After(last) {
							last = r.resulted
						}
						if len(jobs) == peakHeapJobs {
							runtime.ReadMemStats(&mPeak)
						}
					}
					mu.Unlock()
					if errors.Is(err, errRefused) {
						time.Sleep(10 * time.Millisecond)
					}
				}
			}(c)
		}
		wg.Wait()
		next := b.sampleRef()
		scale := speedScale(ref, next)
		ref = next
		window += last.Sub(start).Seconds() * scale
		for i := first; i < len(jobs); i++ {
			jobs[i].scale = scale
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if len(jobs) < peakHeapJobs {
		mPeak = m1
	}
	if rec != nil {
		for _, r := range jobs {
			root := rec.add(0, "job", r.submit, r.resulted)
			rec.add(root, "submit", r.submit, r.accepted)
			rec.add(root, "queue", r.created, r.started)
			rec.add(root, "exec", r.started, r.finished)
			rec.add(root, "stream", r.accepted, r.streamed)
			rec.add(root, "result", r.streamed, r.resulted)
		}
	}
	return jobs, window, memDelta{
		allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, heapSys: mPeak.HeapSys,
	}
}

type memDelta struct {
	allocs, bytes, heapSys uint64
}

// runJob submits one job, follows its event stream to the done frame, and
// fetches its result, checking each step's output.
func runJob(hc *http.Client, base string, s jobSpec) (jobRec, error) {
	var r jobRec
	r.submit = time.Now()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return r, err
	}
	var st runner.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return r, errRefused
	case resp.StatusCode != http.StatusAccepted:
		return r, fmt.Errorf("submit: %s", resp.Status)
	case err != nil:
		return r, fmt.Errorf("submit: decode status: %w", err)
	}
	r.accepted = time.Now()

	if err := readEvents(hc, base+"/v1/jobs/"+st.ID+"/events", &r); err != nil {
		return r, err
	}
	r.streamed = time.Now()

	resp, err = hc.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return r, err
	}
	var out struct {
		Status runner.JobStatus  `json:"status"`
		Result *runner.JobResult `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("result: %s (%v)", resp.Status, err)
	}
	r.resulted = time.Now()
	if out.Status.State != runner.StateDone || out.Result == nil {
		return r, fmt.Errorf("job ended %q: %s", out.Status.State, out.Status.Error)
	}
	if got := compactJSON(out.Result.Summary); !bytes.Equal(got, s.summary) {
		return r, fmt.Errorf("summary %s differs from the direct run's %s", got, s.summary)
	}
	var sum tcc.Summary
	if err := json.Unmarshal(out.Result.Summary, &sum); err != nil {
		return r, fmt.Errorf("decode summary: %w", err)
	}
	r.cycles = sum.Cycles
	r.created = out.Status.Created
	if out.Status.Started == nil || out.Status.Finished == nil {
		return r, errors.New("finished job lacks start or finish time")
	}
	r.started, r.finished = *out.Status.Started, *out.Status.Finished
	return r, nil
}

// readEvents reads a job's SSE stream. The data frames must carry an events
// stream that starts with its schema header, and the stream must end with a
// done frame reporting the state "done". The event bytes are the data
// payloads plus one newline apiece, the stream's exact size.
func readEvents(hc *http.Client, url string, r *jobRec) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	doneEvent, frames := false, 0
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.Equal(line, []byte("event: done")):
			doneEvent = true
		case bytes.HasPrefix(line, []byte("data: ")):
			payload := line[len("data: "):]
			if doneEvent {
				if !bytes.Contains(payload, []byte(`"state":"done"`)) {
					return fmt.Errorf("events: done frame %s", payload)
				}
				if frames == 0 {
					return errors.New("events: stream carried no events")
				}
				return nil
			}
			if frames == 0 && !bytes.HasPrefix(payload, []byte(`{"schema":"scalabletcc/events"`)) {
				return fmt.Errorf("events: stream starts with %.80s, not the schema header", payload)
			}
			frames++
			r.eventBytes += len(payload) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return errors.New("events: stream ended without a done frame")
}

// report emits the end-to-end metrics of the untraced jobs.
func (w serviceWorkload) report(b *bench, jobs []jobRec, window float64, m memDelta) {
	n := float64(len(jobs))
	var latMS, execS []float64
	var cycles float64
	for _, r := range jobs {
		latMS = append(latMS, r.latencyMS())
		execS = append(execS, r.ms(r.started, r.finished)/1e3)
		cycles += float64(r.cycles)
	}
	b.e2e("sim_cycles_per_s", ratio(cycles, window))
	b.e2e("run_s_p50", median(execS))
	b.e2e("jobs_per_s", ratio(n, window))
	b.e2e("job_latency_ms_p50", median(latMS))
	b.e2e("job_latency_ms_p90", quantile(latMS, 0.9))
	b.e2e("allocs_per_run", ratio(float64(m.allocs), n))
	b.e2e("alloc_mb_per_run", ratio(float64(m.bytes), n)/1e6)
	b.e2e("peak_heap_mb", float64(m.heapSys)/1e6)
	b.note("%d jobs from %d closed-loop clients on %d workers (%d latency samples, %d beyond p90)",
		len(jobs), w.clients, w.workers, len(jobs), len(jobs)/10)
}

// layers emits the per-layer metrics from the traced jobs.
func (w serviceWorkload) layers(b *bench, plain, traced []jobRec, lp *layerProfile) {
	if len(traced) == 0 {
		return // every traced job failed, which is already reported
	}
	n := float64(len(traced))
	var scales []float64
	for _, r := range traced {
		scales = append(scales, r.scale)
	}
	scale := median(scales)
	b.layerTimes(lp, n, scale)
	stage := func(interval func(jobRec) float64) float64 {
		var ms []float64
		for _, r := range traced {
			ms = append(ms, interval(r))
		}
		return median(ms)
	}
	b.layer("runner.submit_ms_p50", stage(func(r jobRec) float64 { return r.ms(r.submit, r.accepted) }))
	b.layer("runner.queue_wait_ms_p50", stage(func(r jobRec) float64 { return r.ms(r.created, r.started) }))
	b.layer("runner.exec_ms_p50", stage(func(r jobRec) float64 { return r.ms(r.started, r.finished) }))
	b.layer("runner.stream_tail_ms_p50", stage(func(r jobRec) float64 { return r.ms(r.finished, r.streamed) }))
	b.layer("runner.refused", float64(b.refused))
	var bytesPerJob float64
	for _, r := range traced {
		bytesPerJob += float64(r.eventBytes)
	}
	bytesPerJob = ratio(bytesPerJob, n)
	b.layer("obs.event_bytes_per_job", bytesPerJob)
	b.layer("obs.ns_per_byte", ratio(float64(lp.selfNS["obs"])/n*scale, bytesPerJob))
	var plainMS, tracedMS []float64
	for _, r := range plain {
		plainMS = append(plainMS, r.latencyMS())
	}
	for _, r := range traced {
		tracedMS = append(tracedMS, r.latencyMS())
	}
	over := median(tracedMS) - median(plainMS)
	b.layer("trace.overhead_ms", over)
	b.layer("trace.overhead_share", ratio(over, median(plainMS)))
}

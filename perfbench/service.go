package main

// The service workload drives a server.Server, configured with vectraced's
// shipped flag defaults, behind a real loopback listener. Two closed-loop
// clients each submit a job and then wait for its report; every report body
// must be byte-identical to the in-process analysis of the same spec.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/diag"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/server"
)

const (
	// clients is the number of closed-loop clients.
	clients = 2
	// A round is one fresh server taking roundFresh distinct specs
	// (roundAll of them on the all-regions path, instance -1, the rest on
	// instance 0) plus roundRepeats exact repeats of an earlier job of the
	// round, which the result cache answers.
	roundFresh   = 30
	roundAll     = 10
	roundRepeats = 10
	// requestTimeout bounds each HTTP request; a request that exceeds it
	// counts as a failed operation.
	requestTimeout = 60 * time.Second
)

// jobSpec is one analyze job: a kernel family with two size parameters,
// and the dynamic instance to analyze (-1 = every region).
type jobSpec struct {
	family   string
	a, b     int
	instance int
}

// kernel returns the job's MiniC program and the marker of its loop.
func (s jobSpec) kernel() (kernels.Kernel, string) {
	switch s.family {
	case "gauss-seidel":
		return kernels.GaussSeidel(s.a, s.b), "@i-loop"
	case "pde-solver":
		return kernels.PDESolver(s.a, s.b), "@grid-i"
	default:
		return kernels.Listing1(s.a), "@S2-inner"
	}
}

func (s jobSpec) filename() string { return fmt.Sprintf("%s-%d-%d.c", s.family, s.a, s.b) }

// specPool is every distinct job spec: each program once at instance 0 and
// once at instance -1. The instance-0 specs come first.
func specPool() []jobSpec {
	var progs []jobSpec
	for _, n := range []int{24, 32, 48} {
		for _, t := range []int{3, 5, 8} {
			progs = append(progs, jobSpec{family: "gauss-seidel", a: n, b: t})
		}
	}
	for _, bn := range []int{12, 16, 24} {
		for _, g := range []int{2, 3, 4} {
			progs = append(progs, jobSpec{family: "pde-solver", a: bn, b: g})
		}
	}
	for _, n := range []int{64, 128, 192, 256} {
		progs = append(progs, jobSpec{family: "listing1", a: n})
	}
	pool := append([]jobSpec(nil), progs...)
	for _, p := range progs {
		p.instance = -1
		pool = append(pool, p)
	}
	return pool
}

// roundJob is one job of a round: an index into the spec pool, and whether
// it repeats an earlier job of the same round.
type roundJob struct {
	spec   int
	repeat bool
}

// roundSequence draws round r's job sequence from the seed alone: distinct
// specs in random order, then repeats inserted after their originals.
func roundSequence(seed int64, r int, poolSize int) []roundJob {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	half := poolSize / 2
	var seq []roundJob
	for _, i := range rng.Perm(half)[:roundFresh-roundAll] {
		seq = append(seq, roundJob{spec: i})
	}
	for _, i := range rng.Perm(half)[:roundAll] {
		seq = append(seq, roundJob{spec: half + i})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for k := 0; k < roundRepeats; k++ {
		pos := 1 + rng.Intn(len(seq))
		orig := seq[rng.Intn(pos)].spec
		seq = append(seq[:pos], append([]roundJob{{spec: orig, repeat: true}}, seq[pos:]...)...)
	}
	return seq
}

// specEntry is one pool spec made ready in set-up: its request body and
// its reference report.
type specEntry struct {
	spec        jobSpec
	src         string
	line        int
	contentType string
	body        []byte
	ref         []byte // in-process AnalyzeSourceCtx + RegionsJSON
	events      int64  // region events in the reference
}

// serviceBench is the set-up service workload.
type serviceBench struct {
	seed   int64
	flags  diag.Serve
	budget core.Budget
	specs  []*specEntry
	round  int
}

// shippedServe returns vectraced's flag defaults.
func shippedServe() (diag.Serve, error) {
	var sf diag.Serve
	fs := flag.NewFlagSet("vectraced", flag.ContinueOnError)
	sf.Register(fs)
	if err := fs.Parse(nil); err != nil {
		return sf, err
	}
	return sf, sf.Validate()
}

// jobOptions mirrors the server's option mapping for a job that sets no
// knobs of its own: the server-wide budget, default workers and tiles.
func (b *serviceBench) jobOptions() (ddg.Options, core.Options) {
	return ddg.Options{}, core.Options{Budget: b.budget}
}

// setupService builds every pool spec's request body and computes its
// reference report in-process, two specs at a time.
func setupService(ctx context.Context, e env) (bench, error) {
	sf, err := shippedServe()
	if err != nil {
		return nil, err
	}
	b := &serviceBench{
		seed:   e.seed,
		flags:  sf,
		budget: core.Budget{MaxSteps: sf.MaxSteps, MaxAnalysisBytes: sf.MaxAnalysisBytes},
	}
	for _, sp := range specPool() {
		k, marker := sp.kernel()
		line, err := k.FindLine(marker)
		if err != nil {
			return nil, err
		}
		ent := &specEntry{spec: sp, src: k.Source, line: line}
		if ent.contentType, ent.body, err = jobBody(sp, k.Source, line); err != nil {
			return nil, err
		}
		b.specs = append(b.specs, ent)
	}
	errs := make([]error, len(b.specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = b.reference(ctx, b.specs[i])
			}
		}()
	}
	for i := range b.specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return b, errors.Join(errs...)
}

// reference computes one spec's expected report bytes in-process.
func (b *serviceBench) reference(ctx context.Context, ent *specEntry) error {
	js, regs, err := b.analyzeInProcess(ctx, ent)
	if err != nil {
		return fmt.Errorf("%s instance %d: %w", ent.spec.filename(), ent.spec.instance, err)
	}
	ent.ref, ent.events = js, regionEvents(regs)
	return nil
}

func (b *serviceBench) analyzeInProcess(ctx context.Context, ent *specEntry) ([]byte, []pipeline.RegionReport, error) {
	dopts, copts := b.jobOptions()
	regs, err := pipeline.AnalyzeSourceCtx(ctx, ent.spec.filename(), ent.src, ent.line, ent.spec.instance, dopts, copts, b.budget)
	if err != nil {
		return nil, nil, err
	}
	js, err := report.RegionsJSON(regs)
	return js, regs, err
}

// jobBody is the multipart submission of one spec.
func jobBody(sp jobSpec, src string, line int) (string, []byte, error) {
	cfg, err := json.Marshal(server.JobSpec{Filename: sp.filename(), Line: line, Instance: sp.instance})
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name string
		data []byte
	}{{"config", cfg}, {"source", []byte(src)}} {
		w, err := mw.CreateFormField(part.name)
		if err != nil {
			return "", nil, err
		}
		if _, err := w.Write(part.data); err != nil {
			return "", nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", nil, err
	}
	return mw.FormDataContentType(), buf.Bytes(), nil
}

func (b *serviceBench) close() {}

// Outcome kinds of a job that did not deliver the expected report.
const (
	outRefused   = "refused" // 429
	outServer    = "5xx"
	outStatus    = "status" // any other unexpected status
	outTransport = "transport"
	outTimeout   = "timeout"
	outMismatch  = "mismatch"
)

// outcome is one job as its client saw it.
type outcome struct {
	job          roundJob
	fail         string // "" when the report arrived and matched
	detail       string
	submit, wait time.Duration
	latency      time.Duration // submit start to report received
}

// roundStats are the server's own counters for one round.
type roundStats struct {
	hits, misses, depthPeak int64
}

// runRound starts a fresh server (cold cache), runs seq through the
// closed-loop clients, drains the server and returns every outcome. A
// failed job is recorded and never retried.
func (b *serviceBench) runRound(ctx context.Context, seq []roundJob) ([]outcome, roundStats, error) {
	rec := obs.New()
	srv := server.New(server.FromServeFlags(&b.flags, rec, nil, obs.NewFlightRecorder(b.flags.FlightEvents)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, roundStats{}, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: tr, Timeout: requestTimeout}

	out := make([]outcome, len(seq))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = b.doJob(ctx, client, base, seq[i])
			}
		}()
	}
	for i := range seq {
		next <- i
	}
	close(next)
	wg.Wait()

	// Every client has its answer, so no request is in flight: drop the
	// connections at once rather than let Shutdown wait out connections
	// the transport dialed but never used.
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	derr := srv.Drain(dctx)
	cancel()
	tr.CloseIdleConnections()
	serr := hs.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	st := roundStats{
		hits:      rec.Get(obs.CacheHits),
		misses:    rec.Get(obs.CacheMisses),
		depthPeak: rec.Get(obs.QueueDepthPeak),
	}
	return out, st, errors.Join(derr, serr)
}

// doJob is one closed-loop round trip: submit, then GET the report with
// wait=1, and compare the body with the reference bytes.
func (b *serviceBench) doJob(ctx context.Context, client *http.Client, base string, j roundJob) outcome {
	ent := b.specs[j.spec]
	o := outcome{job: j}
	t0 := time.Now()
	status, body, err := request(ctx, client, http.MethodPost, base+"/v1/jobs", ent.contentType, ent.body)
	o.submit = time.Since(t0)
	if o.fail, o.detail = classify(status, http.StatusAccepted, body, err); o.fail != "" {
		return o
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
		o.fail, o.detail = outStatus, fmt.Sprintf("submit answer %.120q", body)
		return o
	}
	t1 := time.Now()
	status, body, err = request(ctx, client, http.MethodGet, base+"/v1/jobs/"+doc.ID+"/report?wait=1", "", nil)
	o.wait = time.Since(t1)
	o.latency = time.Since(t0)
	if o.fail, o.detail = classify(status, http.StatusOK, body, err); o.fail != "" {
		return o
	}
	if !bytes.Equal(body, ent.ref) {
		o.fail = outMismatch
		o.detail = fmt.Sprintf("%s instance %d: report bytes differ from the in-process reference",
			ent.spec.filename(), ent.spec.instance)
	}
	return o
}

// request performs one HTTP request and reads the whole response body.
func request(ctx context.Context, client *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// classify names why a response is not the expected one ("" when it is).
func classify(status, want int, body []byte, err error) (string, string) {
	var ne net.Error
	switch {
	case err != nil && (errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout())):
		return outTimeout, err.Error()
	case err != nil:
		return outTransport, err.Error()
	case status == want:
		return "", ""
	case status == http.StatusTooManyRequests:
		return outRefused, fmt.Sprintf("%d %.120s", status, body)
	case status >= 500:
		return outServer, fmt.Sprintf("%d %.120s", status, body)
	default:
		return outStatus, fmt.Sprintf("%d %.120s", status, body)
	}
}

// nextRound draws and runs the next round of the seed's sequence and folds
// its outcomes into a pass result.
func (b *serviceBench) nextRound(ctx context.Context) ([]outcome, roundStats, passResult) {
	seq := roundSequence(b.seed, b.round, len(b.specs))
	b.round++
	var p passResult
	out, st, err := b.runRound(ctx, seq)
	if err != nil {
		p.mismatches = append(p.mismatches, fmt.Errorf("service round: %w", err))
	}
	for _, o := range out {
		p.attempted++
		switch o.fail {
		case "":
			p.latencies = append(p.latencies, o.latency)
			p.events += b.specs[o.job.spec].events
		case outMismatch:
			p.failed++
			p.mismatches = append(p.mismatches, errors.New(o.detail))
		default:
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: service job failed (%s): %s\n", o.fail, o.detail)
		}
	}
	return out, st, p
}

// pass is one round: a fresh server and one job sequence.
func (b *serviceBench) pass(ctx context.Context) passResult {
	_, _, p := b.nextRound(ctx)
	return p
}

// tracedPass runs a round with the client-side split of each job (submit
// versus report wait), then replays the round's distinct specs in-process,
// call by call, to time the layers below the server, and once more through
// AnalyzeSourceCtx to measure what the server adds per job.
func (b *serviceBench) tracedPass(ctx context.Context) (layerSample, passResult) {
	ls := layerSample{}
	out, st, p := b.nextRound(ctx)
	var submit, wait, hit []float64
	refused := 0
	for _, o := range out {
		if o.fail == outRefused {
			refused++
		}
		if o.fail != "" {
			continue
		}
		submit = append(submit, ms(o.submit))
		wait = append(wait, ms(o.wait))
		if o.job.repeat {
			hit = append(hit, ms(o.latency))
		}
	}
	ls["server.submit_ms_p50"] = median(submit)
	ls["server.report_wait_ms_p50"] = median(wait)
	ls["server.hit_rtt_ms_p50"] = median(hit)
	ls["server.refused"] = float64(refused)
	ls["server.queue_depth_peak"] = float64(st.depthPeak)
	if n := st.hits + st.misses; n > 0 {
		ls["server.cache_hit_ratio"] = float64(st.hits) / float64(n)
	}

	inproc := map[int]float64{}
	for _, o := range out {
		if o.job.repeat {
			continue
		}
		if _, done := inproc[o.job.spec]; done {
			continue
		}
		ent := b.specs[o.job.spec]
		if err := b.decompose(ctx, ent, ls); err != nil {
			p.mismatches = append(p.mismatches, fmt.Errorf("%s instance %d: %w", ent.spec.filename(), ent.spec.instance, err))
			continue
		}
		t := time.Now()
		js, _, err := b.analyzeInProcess(ctx, ent)
		inproc[o.job.spec] = ms(time.Since(t))
		if err == nil && !bytes.Equal(js, ent.ref) {
			err = errors.New("in-process report differs from the set-up reference")
		}
		if err != nil {
			p.mismatches = append(p.mismatches, fmt.Errorf("%s instance %d: %w", ent.spec.filename(), ent.spec.instance, err))
		}
	}
	var over []float64
	for _, o := range out {
		if o.fail == "" && !o.job.repeat {
			over = append(over, ms(o.latency)-inproc[o.job.spec])
		}
	}
	ls["server.overhead_ms_p50"] = median(over)
	ls.finish()
	return ls, p
}

// decompose runs one spec through the calls AnalyzeSourceCtx makes, timing
// each, and checks the result against the reference. Instance-0 jobs take
// the materialized path (untraced run for interp, traced run, region split,
// one region analysis); all-regions jobs take the live path, timed whole.
func (b *serviceBench) decompose(ctx context.Context, ent *specEntry, ls layerSample) error {
	dopts, copts := b.jobOptions()
	name := ent.spec.filename()
	t := time.Now()
	prog, err := parser.Parse(name, ent.src)
	ls["parser.ms"] += ms(time.Since(t))
	if err != nil {
		return err
	}
	t = time.Now()
	info, err := sema.Check(prog)
	ls["sema.ms"] += ms(time.Since(t))
	if err != nil {
		return err
	}
	t = time.Now()
	mod, err := lower.Lower(prog, info)
	ls["lower.ms"] += ms(time.Since(t))
	if err != nil {
		return err
	}
	t = time.Now()
	plain, err := pipeline.RunCtx(ctx, mod, true, b.budget)
	interpMs := ms(time.Since(t))
	if err != nil {
		return err
	}
	ls["interp.ms"] += interpMs
	ls["interp.steps"] += float64(plain.Steps)

	var regs []pipeline.RegionReport
	if ent.spec.instance < 0 {
		t = time.Now()
		_, regs, err = pipeline.AnalyzeLoopRegionsLiveCtx(ctx, mod, ent.line, dopts, copts, b.budget)
		ls["pipeline.live_ms"] += ms(time.Since(t))
		if err != nil {
			return err
		}
		for _, r := range regs {
			addReport(ls, r.Report)
		}
	} else {
		a0 := allocNow()
		t = time.Now()
		_, tr, err := pipeline.TraceCtxOpts(ctx, mod, b.budget, copts)
		ls["trace.emit_ms"] += ms(time.Since(t)) - interpMs
		ls[sumAllocBytes] += float64(allocNow() - a0)
		if err != nil {
			return err
		}
		ls["trace.events"] += float64(len(tr.Events))
		lm := mod.LoopByLine(ent.line)
		if lm == nil {
			return fmt.Errorf("no loop on line %d", ent.line)
		}
		t = time.Now()
		regions := tr.Regions(lm.ID)
		ls["trace.regions_ms"] += ms(time.Since(t))
		if ent.spec.instance >= len(regions) {
			return fmt.Errorf("loop has %d regions, want index %d", len(regions), ent.spec.instance)
		}
		sub := tr.Slice(regions[ent.spec.instance])
		t = time.Now()
		rep, err := pipeline.AnalyzeRegion(ctx, sub, dopts, copts)
		ls["core.ms"] += ms(time.Since(t))
		if err != nil {
			return err
		}
		addReport(ls, rep)
		ls[sumCoreEvents] += float64(sub.Len())
		regs = []pipeline.RegionReport{{Index: ent.spec.instance, Events: sub.Len(), Report: rep}}
	}
	t = time.Now()
	js, err := report.RegionsJSON(regs)
	ls["report.render_ms"] += ms(time.Since(t))
	if err != nil {
		return err
	}
	if !bytes.Equal(js, ent.ref) {
		return errors.New("decomposed report differs from the set-up reference")
	}
	return nil
}

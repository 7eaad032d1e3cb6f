package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	learnrisk "repro"
	"repro/perfbench/loadgen"
	"repro/perfbench/trace"
)

// The serving workloads run cmd/serve, built from the checkout, as a child
// process and drive it through its flags and HTTP API only. The served model
// is trained and saved by the benchmark on the AB profile at scale 0.05.
// Its training data has a fixed seed: the model is the system under test,
// like the weights of a served network, and a per-seed model would swing
// the cost of every score with its rule count (6 to 49 rules over seeds
// 1-6). The workload seed draws the requests and the record pool.
const (
	artifactProfile = "AB"
	artifactScale   = 0.05
	artifactSeed    = 1
	// Load shape: one generator, at most two senders, each on its own
	// keep-alive connection (sized for a two-core host).
	senders = 2
	warmup  = time.Second
)

// Operation kinds.
const (
	kindScore = iota
	kindResolve
	kindIngest
)

var kindNames = []string{"score", "resolve", "ingest"}

// traffic is what one serving workload sends.
type traffic interface {
	// prepare generates the workload's inputs (after the artifact exists)
	// and returns the server flags beyond -addr and -model.
	prepare(rc runCtx, art *artifact, dataDir string) ([]string, error)
	rate() float64
	// limited are the kinds whose p99 must stay within limit.
	limited() []int
	limit() time.Duration
	primary() int
	// op sends operation i of the current phase.
	op(ctx context.Context, c *client, i int) (int, error)
	// beginPhase starts a phase: operation contents are drawn from the
	// seed, the phase number and the operation index, and the responses of
	// a checked phase are kept for check.
	beginPhase(checked bool)
	// check verifies the recorded responses of the checked phases.
	check(art *artifact, out *outcome)
	// ladderPairs are the phase's own pairs for the score ladder.
	ladderPairs(max int) []learnrisk.Pair
	// replay adds the counts only an in-process replay yields (traced).
	replay(rc runCtx, art *artifact, values map[string]float64) error
}

func runScoreSingle(rc runCtx) (*outcome, error) {
	return runServing(rc, &scoreTraffic{seed: rc.seed})
}

func runResolveIngest(rc runCtx) (*outcome, error) {
	return runServing(rc, &resolveTraffic{seed: rc.seed})
}

// artifact is the model the server is started with.
type artifact struct {
	path   string
	model  *learnrisk.Model // learnrisk.LoadFile(path): the in-process reference
	auroc  float64
	traced *trace.Model       // traced runs: the composition's layers
	layers map[string]float64 // traced runs: batch layer metrics of training
}

// trainArtifact trains the served model (LoadCSV, RunCtx, Save) and loads
// it back. Traced, it also runs the layer composition on the same tables.
func trainArtifact(ctx context.Context, rc runCtx, dir string) (*artifact, error) {
	tb, err := writeTables(dir, artifactProfile, artifactScale, artifactSeed)
	if err != nil {
		return nil, err
	}
	w, err := learnrisk.LoadCSV(tb.name, tb.left, tb.right, "", tb.attrs)
	if err != nil {
		return nil, err
	}
	rep, err := learnrisk.RunCtx(ctx, w, learnrisk.Options{})
	if err != nil {
		return nil, err
	}
	art := &artifact{path: filepath.Join(dir, "model.json"), auroc: rep.AUROC}
	f, err := os.Create(art.path)
	if err != nil {
		return nil, err
	}
	if err := rep.Model().Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if art.model, err = learnrisk.LoadFile(art.path); err != nil {
		return nil, err
	}
	if problems := checkReport(rep); len(problems) > 0 {
		return nil, fmt.Errorf("artifact training report: %v", problems)
	}
	if rc.trace {
		rec := trace.NewRecorder()
		got, model, layers, err := trace.Batch(ctx, rec, tb.name, tb.left, tb.right, tb.attrs)
		if err != nil {
			return nil, err
		}
		if d := trace.Diff(got, trace.FromFacade(rep)); d != "" {
			return nil, fmt.Errorf("traced composition differs from the facade report: %s", d)
		}
		art.traced, art.layers = model, layers
		if err := rec.WriteSpans(filepath.Join(rc.root, buildDir, fmt.Sprintf("spans-serving-setup-seed%d.jsonl", rc.seed))); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// serverProc is a running cmd/serve child.
type serverProc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

// buildServe compiles cmd/serve from the checkout.
func buildServe(rc runCtx) (string, error) {
	bin := filepath.Join(rc.root, buildDir, "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = rc.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/serve: %w", err)
	}
	return bin, nil
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startServer(bin, logPath string, args []string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the server to drain and exit, killing it if it does not, and
// returns once it has ended.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitReady polls GET /readyz until it answers 200.
func (p *serverProc) waitReady(ctx context.Context, c *client) error {
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("server exited before ready:\n%s", p.logTail())
		default:
		}
		if status, err := c.call(ctx, http.MethodGet, "/readyz", nil, nil); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after 90s:\n%s", p.logTail())
}

// client speaks the server's JSON API over at most `senders` keep-alive
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	return &client{base: "http://" + addr, http: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		},
	}}
}

// call sends one request; a non-2xx status is an error.
func (c *client) call(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// phase is one open-loop step's outcome, split by operation kind.
type phase struct {
	res    loadgen.Result
	lat    map[int][]float64 // latency from due time, ms
	svc    map[int][]float64 // send to completion, ms
	late   []float64         // generator lateness, ms
	queued []float64         // send minus due time of the last quarter, ms
}

func runPhase(ctx context.Context, t traffic, c *client, rate float64, warm, measure time.Duration, checked bool) phase {
	t.beginPhase(checked)
	defer t.beginPhase(false)
	res := loadgen.Run(ctx, loadgen.Config{Rate: rate, Warmup: warm, Measure: measure, Senders: senders, Drain: t.limit()},
		func(ctx context.Context, i int) (int, error) { return t.op(ctx, c, i) })
	ph := phase{res: res, lat: map[int][]float64{}, svc: map[int][]float64{}}
	for k, s := range res.Samples {
		if s.Err != nil {
			continue
		}
		ph.lat[s.Kind] = append(ph.lat[s.Kind], ms(s.Latency))
		ph.svc[s.Kind] = append(ph.svc[s.Kind], ms(s.Due+s.Latency-s.Send))
		ph.late = append(ph.late, ms(s.Late))
		if k >= len(res.Samples)*3/4 {
			ph.queued = append(ph.queued, ms(s.Send-s.Due))
		}
	}
	return ph
}

// meets reports whether a step met the workload's latency limits with no
// failure, nothing left unsent and no growing backlog.
func (ph phase) meets(t traffic) bool {
	if ph.res.Failed > 0 || ph.res.Missed > 0 || len(ph.res.Samples) == 0 {
		return false
	}
	lim := ms(t.limit())
	for _, k := range t.limited() {
		if percentile(ph.lat[k], 99) > lim {
			return false
		}
	}
	return mean(ph.queued) <= lim/2
}

func runServing(rc runCtx, t traffic) (*outcome, error) {
	ctx := rc.ctx
	bin, err := buildServe(rc)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}}

	// Set up several times; the last server is the one measured.
	repeats := servingSetups
	if rc.trace {
		repeats = 1
	}
	var setups []float64
	var srv *serverProc
	var c *client
	var art *artifact
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dir := filepath.Join(rc.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if art, err = trainArtifact(ctx, rc, dir); err != nil {
			return nil, err
		}
		flags, err := t.prepare(rc, art, filepath.Join(dir, "data"))
		if err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(bin, filepath.Join(dir, "serve.log"), append([]string{"-addr", addr, "-model", art.path}, flags...)); err != nil {
			return nil, err
		}
		c = newClient(addr)
		if err := srv.waitReady(ctx, c); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)
	out.values["auroc"] = art.auroc

	count := func(ph phase) {
		out.attempted += ph.res.Sent
		for i := 0; i < ph.res.Failed; i++ {
			out.fail("%v", firstErr(ph.res))
		}
	}
	pid := srv.cmd.Process.Pid
	count(runPhase(ctx, t, c, t.rate(), 0, warmup, false))

	if !rc.trace {
		// The nominal rate for the whole measured time: latency and server
		// CPU per op.
		cpu0, err := processCPU(pid)
		if err != nil {
			return nil, err
		}
		nominal := runPhase(ctx, t, c, t.rate(), 0, rc.seconds, true)
		cpu1, err := processCPU(pid)
		if err != nil {
			return nil, err
		}
		count(nominal)
		p := t.primary()
		out.values["latency_p50_ms"] = quietestMedian(nominal.lat[p])
		out.values["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(len(nominal.res.Samples))
		clientLayers(out.values, t, nominal)
		if out.values["peak_rss_mib"], err = peakRSSMiB(strconv.Itoa(pid)); err != nil {
			return nil, err
		}
		t.check(art, out)
		return out, nil
	}

	// Traced: an untraced phase, the traced one between two scrapes, then
	// the capacity search.
	untraced := runPhase(ctx, t, c, t.rate(), 0, rc.seconds/5, false)
	count(untraced)
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	traced := runPhase(ctx, t, c, t.rate(), 0, rc.seconds*2/5, true)
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	count(traced)
	p := t.primary()
	for k, v := range serverLayers(before, after, float64(len(traced.res.Samples))) {
		out.values[k] = v
	}
	out.values["server.http_ms"] = mean(traced.svc[p]) - out.values["server."+kindNames[p]+"_ms"]
	out.values["obs.overhead_frac"] = percentile(traced.lat[p], 50)/percentile(untraced.lat[p], 50) - 1
	clientLayers(out.values, t, traced)
	out.values["client.capacity_ops_s"] = capacity(ctx, t, c, rc.seconds*2/5, traced.meets(t), count)
	for k, v := range art.layers {
		out.values[k] = v
	}
	ladder, err := trace.Ladder(art.traced, art.model, t.ladderPairs(ladderPairs))
	if err != nil {
		out.fail("%v", err)
	}
	for k, v := range ladder {
		out.values[k] = v
	}
	if err := t.replay(rc, art, out.values); err != nil {
		return nil, err
	}
	t.check(art, out)
	zeroServingLayers(out.values)
	return out, nil
}

// clientLayers records what the client saw at the nominal rate beyond the
// primary median: the tail, the writes, and the generator's own lateness.
func clientLayers(values map[string]float64, t traffic, ph phase) {
	p := t.primary()
	values["client.p50_ms"] = percentile(ph.lat[p], 50)
	values["client.p99_ms"] = windowedP99(ph.lat[p])
	values["client.ingest_p50_ms"] = percentile(ph.lat[kindIngest], 50)
	values["client.ingest_p99_ms"] = percentile(ph.lat[kindIngest], 99)
	values["gen.late_p99_ms"] = percentile(ph.late, 99)
	fmt.Fprintf(os.Stderr, "nominal %.0f/s: %d ops, %s p50 %.3f p99 %.3f ms, generator late p99 %.3f ms\n",
		t.rate(), len(ph.res.Samples), kindNames[p], values["client.p50_ms"], values["client.p99_ms"], values["gen.late_p99_ms"])
}

// capacity is the highest offered rate that meets the workload's limits.
// No rate above what the senders complete back to back can be sustained,
// so open-loop steps at falling fractions of that throughput look for the
// highest one that passes; the nominal rate, when it passed, is the floor.
func capacity(ctx context.Context, t traffic, c *client, budget time.Duration, nominalMet bool, count func(phase)) float64 {
	probe := budget / 4
	sat := saturation(ctx, t, c, probe)
	count(sat)
	peak := float64(sat.res.Sent) / probe.Seconds()
	lo := 0.0
	if nominalMet {
		lo = t.rate()
	}
	step := budget / 4
	for _, f := range []float64{0.95, 0.85, 0.7} {
		rate := f * peak
		if rate <= lo {
			break
		}
		ph := runPhase(ctx, t, c, rate, step/5, step*4/5, false)
		count(ph)
		ok := ph.meets(t)
		fmt.Fprintf(os.Stderr, "capacity step %.1f/s (%.2f of %.1f/s closed-loop): %v (%d ops, %d missed, p99 %.3f ms)\n",
			rate, f, peak, ok, len(ph.res.Samples), ph.res.Missed, percentile(ph.lat[t.primary()], 99))
		if ok {
			return rate
		}
	}
	return lo
}

// saturation keeps every sender busy back to back for d: a closed loop,
// whose completed operations per second bound the sustainable rate.
func saturation(ctx context.Context, t traffic, c *client, d time.Duration) phase {
	t.beginPhase(false)
	var mu sync.Mutex
	var ph phase
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; time.Now().Before(end); i += senders {
				_, err := t.op(ctx, c, i)
				mu.Lock()
				ph.res.Sent++
				if err != nil {
					ph.res.Failed++
					ph.res.Samples = append(ph.res.Samples, loadgen.Sample{Op: i, Err: err})
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return ph
}

// quietestMedian is the lowest of the medians of ten consecutive, equal
// windows of latencies. On a small shared VM the host steals CPU in bursts,
// and stolen time only ever adds latency, so the least disturbed window is
// the steadiest estimate of the program's own median (the minimum of
// repeated timings, as in Chen and Revels, "Robust benchmarking in noisy
// environments"). A regression that slows every request moves every
// window, the quietest included.
func quietestMedian(lat []float64) float64 {
	const windows = 10
	low := math.Inf(1)
	for w := 0; w < windows; w++ {
		low = min(low, percentile(lat[w*len(lat)/windows:(w+1)*len(lat)/windows], 50))
	}
	return low
}

// windowedP99 is the median, over consecutive windows of at least 1,000
// latencies each, of each window's p99: a burst of interference in one
// window does not set the figure, and every p99 has ten samples beyond it.
func windowedP99(lat []float64) float64 {
	n := max(1, len(lat)/1000)
	var p99s []float64
	for w := 0; w < n; w++ {
		p99s = append(p99s, percentile(lat[w*len(lat)/n:(w+1)*len(lat)/n], 99))
	}
	return median(p99s)
}

// firstErr is the first measured error, for the failure report.
func firstErr(r loadgen.Result) error {
	for _, s := range r.Samples {
		if s.Err != nil {
			return s.Err
		}
	}
	return errors.New("a warm-up operation failed")
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// verdictProblem compares a served verdict with the in-process Score.
func verdictProblem(got learnrisk.PairScore, want learnrisk.PairScore) string {
	if !sameBits(got.Prob, want.Prob) || got.Match != want.Match || !sameBits(got.Risk, want.Risk) ||
		!sameBits(got.Mu, want.Mu) || !sameBits(got.Sigma, want.Sigma) {
		return fmt.Sprintf("served %+v, in-process Score %+v", got, want)
	}
	return ""
}

// scoreTraffic is score-single: one seeded-random AB candidate pair per
// POST /v1/score against the default batcher.
type scoreTraffic struct {
	seed  uint64
	w     *learnrisk.Workload
	mu    sync.Mutex
	on    bool
	phase int
	seen  []scored
}

type scored struct {
	pair learnrisk.Pair
	resp scoreResponse
}

type scoreResponse struct {
	Prob             float64 `json:"prob"`
	Match            bool    `json:"match"`
	Risk             float64 `json:"risk"`
	Mu               float64 `json:"mu"`
	Sigma            float64 `json:"sigma"`
	ModelFingerprint string  `json:"model_fingerprint"`
}

// prepare draws the request pairs from AB candidate pairs generated with
// the workload seed: fresh pairs the model was not trained on.
func (t *scoreTraffic) prepare(rc runCtx, art *artifact, dataDir string) ([]string, error) {
	var err error
	t.w, err = learnrisk.Generate(artifactProfile, artifactScale, rc.seed+1<<20)
	t.seen = nil
	return nil, err
}
func (t *scoreTraffic) rate() float64        { return 200 }
func (t *scoreTraffic) limited() []int       { return []int{kindScore} }
func (t *scoreTraffic) limit() time.Duration { return 25 * time.Millisecond }
func (t *scoreTraffic) primary() int         { return kindScore }
func (t *scoreTraffic) beginPhase(check bool) {
	t.mu.Lock()
	t.on = check
	t.phase++
	t.mu.Unlock()
}

func (t *scoreTraffic) op(ctx context.Context, c *client, i int) (int, error) {
	t.mu.Lock()
	phase, on := t.phase, t.on
	t.mu.Unlock()
	r := mix64(t.seed^uint64(phase)<<32, uint64(i))
	l, rt := t.w.PairValues(int(r % uint64(t.w.Size())))
	var resp scoreResponse
	if _, err := c.call(ctx, http.MethodPost, "/v1/score", map[string][]string{"left": l, "right": rt}, &resp); err != nil {
		return kindScore, err
	}
	// A seeded one in four of the checked phases' responses is kept.
	if on && (r>>40)%4 == 0 {
		t.mu.Lock()
		t.seen = append(t.seen, scored{learnrisk.Pair{Left: l, Right: rt}, resp})
		t.mu.Unlock()
	}
	return kindScore, nil
}

func (t *scoreTraffic) check(art *artifact, out *outcome) {
	fp := art.model.Fingerprint()
	for _, s := range t.seen {
		want, err := art.model.Score(s.pair)
		if err != nil {
			out.fail("in-process Score: %v", err)
			continue
		}
		got := learnrisk.PairScore{Prob: s.resp.Prob, Match: s.resp.Match, Risk: s.resp.Risk, Mu: s.resp.Mu, Sigma: s.resp.Sigma}
		if p := verdictProblem(got, want); p != "" {
			out.fail("score: %s", p)
		} else if s.resp.ModelFingerprint != fp {
			out.fail("score: fingerprint %s, artifact %s", s.resp.ModelFingerprint, fp)
		}
	}
	if len(t.seen) == 0 {
		out.fail("score: no responses were sampled for checking")
	}
}

func (t *scoreTraffic) ladderPairs(n int) []learnrisk.Pair {
	var ps []learnrisk.Pair
	for _, s := range t.seen {
		if len(ps) == n {
			break
		}
		ps = append(ps, s.pair)
	}
	return ps
}

func (t *scoreTraffic) replay(rc runCtx, art *artifact, values map[string]float64) error { return nil }

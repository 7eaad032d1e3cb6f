// Command loadgen turns "the resolve path holds up under heavy traffic"
// into a measured curve: a closed-loop driver steps client concurrency
// over a mixed add/delete/resolve workload against the serving HTTP API
// and records throughput and p50/p95/p99 resolve latency per step as
// JSON — the same per-label section schema cmd/bench writes, so runs at
// different partition counts diff with the same tooling.
//
// Self-hosted (trains a model on a synthetic workload, serves it
// in-process on a loopback listener, then drives it):
//
//	loadgen -partitions 4 -steps 1,2,4,8,16 -out BENCH_PR9.json -label parts-4
//
// Or drive an already-running server (the payload records still come from
// the synthetic profile, which must match the served schema):
//
//	loadgen -addr http://localhost:8080 -steps 4,8 -label remote
//
// Closed loop means each of the C virtual clients keeps exactly one
// request in flight: offered load rises with C, and the latency curve's
// knee — where p99 turns up while throughput flattens — is the serving
// capacity. 429 back-pressure refusals are counted separately (throttled
// mutations are the bounded ingest queue working, not errors).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	learnrisk "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "", "base URL of a running server (e.g. http://localhost:8080); empty self-hosts one in-process")
		partitions = flag.Int("partitions", 1, "self-host: partition the match store across this many partitions (0 means 1)")
		maxPending = flag.Int("max-pending", 0, "self-host: bounded ingest queue (0 = default 256, negative disables)")
		profile    = flag.String("profile", "AB", "synthetic profile for the model and payload records: DS|AB|AG|SG|DA")
		scale      = flag.Float64("scale", 0.05, "synthetic dataset scale")
		seed       = flag.Uint64("seed", 11, "seed for training, payloads and the op mix")
		stepsFlag  = flag.String("steps", "1,2,4,8,16", "comma-separated client concurrency steps")
		stepDur    = flag.Duration("step-duration", 2*time.Second, "measured duration per concurrency step")
		k          = flag.Int("k", 5, "matches requested per resolve")
		addFrac    = flag.Float64("add-frac", 0.10, "fraction of operations that add a record")
		delFrac    = flag.Float64("delete-frac", 0.05, "fraction of operations that delete one")
		preload    = flag.Int("preload", 400, "records ingested before the measured steps")
		out        = flag.String("out", "BENCH_PR9.json", "output JSON file (updated in place, cmd/bench schema)")
		label      = flag.String("label", "current", "section to write (e.g. parts-1, parts-4)")
	)
	flag.Parse()

	steps, err := parseSteps(*stepsFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *addFrac < 0 || *delFrac < 0 || *addFrac+*delFrac >= 1 {
		log.Fatalf("op mix add=%g delete=%g leaves no resolves", *addFrac, *delFrac)
	}

	w, err := learnrisk.Generate(*profile, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	base := *addr
	if base == "" {
		m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(m, server.Config{
			Partitions: *partitions,
			MaxPending: *maxPending,
			Obs:        obs.NewRegistry(),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		log.Printf("self-hosted %s server on %s (partitions=%d)", *profile, base, *partitions)
	}

	cfg := loadConfig{
		Base:    base,
		Pay:     newPayloads(w),
		Steps:   steps,
		StepDur: *stepDur,
		K:       *k,
		AddFrac: *addFrac,
		DelFrac: *delFrac,
		Preload: *preload,
		Seed:    int64(*seed),
	}
	results, err := runLoad(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("c=%-3d  %8.0f ops/s  %8.0f resolves/s  p50 %8s  p95 %8s  p99 %8s  throttled %d\n",
			r.Concurrency, r.OpsPerSec(), r.ResolvesPerSec(), r.P50, r.P95, r.P99, r.Throttled)
	}
	flags := fmt.Sprintf("loadgen -steps %s -step-duration %s -k %d -add-frac %g -delete-frac %g -preload %d (profile %s, partitions %d)",
		*stepsFlag, *stepDur, *k, *addFrac, *delFrac, *preload, *profile, *partitions)
	if err := writeResults(*out, *label, flags, results); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote section %q to %s", *label, *out)
}

// parseSteps parses the -steps list into ascending positive ints.
func parseSteps(s string) ([]int, error) {
	var steps []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("loadgen: bad concurrency step %q", part)
		}
		steps = append(steps, n)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("loadgen: no concurrency steps")
	}
	return steps, nil
}

// loadConfig is one load run: the target, the payload source and the shape
// of the offered load.
type loadConfig struct {
	Base    string
	Pay     *payloads
	Steps   []int
	StepDur time.Duration
	K       int
	AddFrac float64
	DelFrac float64
	Preload int
	Seed    int64
}

// stepResult is one concurrency step's measurement.
type stepResult struct {
	Concurrency int
	Ops         int64 // completed operations (all kinds)
	Resolves    int64
	Adds        int64
	Deletes     int64
	Throttled   int64 // 429 back-pressure refusals (counted, not errors)
	Failed      int64 // non-2xx answers that are not 429 or delete-404
	Elapsed     time.Duration
	P50         time.Duration // resolve latency percentiles
	P95         time.Duration
	P99         time.Duration
	MeanResolve time.Duration
	// Server holds the server-side stage latencies scraped from GET
	// /metrics after the step — where inside the server the client-visible
	// latency above was spent. Empty when the target has no /metrics.
	Server map[string]float64
}

func (r stepResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

func (r stepResult) ResolvesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Resolves) / r.Elapsed.Seconds()
}

// runLoad preloads the store, then walks the concurrency steps: C workers
// per step, each a closed loop (one request in flight), latencies of the
// resolve leg recorded per worker and merged.
func runLoad(cfg loadConfig) ([]stepResult, error) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
	payload := cfg.Pay

	// Preload so resolves rank against a populated index from step one.
	// Back-pressure refusals here just pace the loop — the queue asked us
	// to slow down, so we do.
	var maxID atomic.Uint64
	for i := 0; i < cfg.Preload; i++ {
		for {
			id, status, err := postRecord(client, cfg.Base, payload.record(i))
			if err != nil {
				return nil, fmt.Errorf("preload record %d: %w", i, err)
			}
			if status == http.StatusTooManyRequests {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("preload record %d: HTTP %d", i, status)
			}
			maxID.Store(id + 1)
			break
		}
	}

	results := make([]stepResult, 0, len(cfg.Steps))
	for _, c := range cfg.Steps {
		res := stepResult{Concurrency: c}
		var (
			wg        sync.WaitGroup
			lats      = make([][]time.Duration, c)
			stop      = make(chan struct{})
			workerErr atomic.Pointer[error]
		)
		start := time.Now()
		for wi := 0; wi < c; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(wi)*7919 + int64(c)*104729))
				lat := make([]time.Duration, 0, 4096)
				for {
					select {
					case <-stop:
						lats[wi] = lat
						return
					default:
					}
					switch p := rng.Float64(); {
					case p < cfg.AddFrac:
						id, status, err := postRecord(client, cfg.Base, payload.record(rng.Intn(payload.n)))
						if err != nil {
							workerErr.CompareAndSwap(nil, &err)
							lats[wi] = lat
							return
						}
						switch status {
						case http.StatusOK:
							atomic.AddInt64(&res.Adds, 1)
							for {
								cur := maxID.Load()
								if id < cur || maxID.CompareAndSwap(cur, id+1) {
									break
								}
							}
						case http.StatusTooManyRequests:
							atomic.AddInt64(&res.Throttled, 1)
						default:
							atomic.AddInt64(&res.Failed, 1)
						}
					case p < cfg.AddFrac+cfg.DelFrac:
						status, err := deleteRecord(client, cfg.Base, rng.Uint64()%(maxID.Load()+1))
						if err != nil {
							workerErr.CompareAndSwap(nil, &err)
							lats[wi] = lat
							return
						}
						switch status {
						case http.StatusOK:
							atomic.AddInt64(&res.Deletes, 1)
						case http.StatusNotFound: // already gone: still a served op
							atomic.AddInt64(&res.Deletes, 1)
						case http.StatusTooManyRequests:
							atomic.AddInt64(&res.Throttled, 1)
						default:
							atomic.AddInt64(&res.Failed, 1)
						}
					default:
						t0 := time.Now()
						status, err := postResolve(client, cfg.Base, payload.probe(rng.Intn(payload.n)), cfg.K)
						if err != nil {
							workerErr.CompareAndSwap(nil, &err)
							lats[wi] = lat
							return
						}
						if status != http.StatusOK {
							atomic.AddInt64(&res.Failed, 1)
							continue
						}
						lat = append(lat, time.Since(t0))
						atomic.AddInt64(&res.Resolves, 1)
					}
				}
			}(wi)
		}
		time.Sleep(cfg.StepDur)
		close(stop)
		wg.Wait()
		res.Elapsed = time.Since(start)
		if errp := workerErr.Load(); errp != nil {
			return nil, fmt.Errorf("c=%d worker: %w", c, *errp)
		}
		all := mergeLatencies(lats)
		res.P50, res.P95, res.P99 = percentile(all, 50), percentile(all, 95), percentile(all, 99)
		res.MeanResolve = meanDuration(all)
		res.Ops = res.Resolves + res.Adds + res.Deletes + res.Throttled
		res.Server = scrapeServerStages(client, cfg.Base)
		results = append(results, res)
	}
	return results, nil
}

// payloads cycles record values and probes out of the synthetic workload's
// right table, so adds index realistic token distributions and probes do
// real candidate work.
type payloads struct {
	vals [][]string
	n    int
}

func newPayloads(w *learnrisk.Workload) *payloads {
	n := w.NumRightRecords()
	p := &payloads{vals: make([][]string, n), n: n}
	for i := 0; i < n; i++ {
		p.vals[i], _ = w.RightRecordAt(i)
	}
	return p
}

func (p *payloads) record(i int) []string { return p.vals[i%p.n] }
func (p *payloads) probe(i int) []string  { return p.vals[i%p.n] }

func postRecord(client *http.Client, base string, values []string) (uint64, int, error) {
	var resp server.RecordResponse
	status, err := doJSON(client, http.MethodPost, base+"/v1/records", server.RecordRequest{Values: values}, &resp)
	return resp.ID, status, err
}

func deleteRecord(client *http.Client, base string, id uint64) (int, error) {
	return doJSON(client, http.MethodDelete, fmt.Sprintf("%s/v1/records/%d", base, id), nil, nil)
}

func postResolve(client *http.Client, base string, probe []string, k int) (int, error) {
	return doJSON(client, http.MethodPost, base+"/v1/resolve", server.ResolveRequest{Values: probe, K: k}, nil)
}

// doJSON issues one request; out, when non-nil and the answer is 200, is
// decoded from the body. The body is always drained so connections reuse.
func doJSON(client *http.Client, method, url string, body, out any) (int, error) {
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else {
		var sink [512]byte
		for {
			if _, err := resp.Body.Read(sink[:]); err != nil {
				break
			}
		}
	}
	return resp.StatusCode, nil
}

// srvStages selects the server-side stage samples worth carrying into the
// bench JSON, mapping Prometheus sample keys (name plus rendered labels)
// to the metric names the section's Metrics map uses.
var srvStages = map[string]string{
	`stage_scatter_ns{quantile="0.99"}`:         "srv_scatter_p99_ns",
	`stage_scatter_slowest_ns{quantile="0.99"}`: "srv_scatter_slowest_p99_ns",
	`stage_topk_merge_ns{quantile="0.99"}`:      "srv_topk_merge_p99_ns",
	`stage_probe_tokenize_ns{quantile="0.99"}`:  "srv_probe_tokenize_p99_ns",
	`request_resolve_ns{quantile="0.99"}`:       "srv_request_resolve_p99_ns",
	`request_resolve_ns{quantile="0.5"}`:        "srv_request_resolve_p50_ns",
}

// scrapeServerStages pulls GET /metrics after a step and picks the
// srvStages samples out of it. The histograms are cumulative over the
// whole run (quantiles cannot be windowed server-side), so each step's
// scrape reflects the load applied up to and including that step. A
// target without /metrics (an older server) just yields nil — the
// client-side percentiles stand alone.
func scrapeServerStages(client *http.Client, base string) map[string]float64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	samples, err := parsePromText(resp.Body)
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for key, name := range srvStages {
		if v, ok := samples[key]; ok {
			out[name] = v
		}
	}
	return out
}

// parsePromText reads Prometheus text exposition into a flat sample map
// keyed by the sample's name plus its label block verbatim — exactly the
// subset of the format the repo's own registry emits (no escaping inside
// label values, one sample per line).
func parsePromText(r io.Reader) (map[string]float64, error) {
	samples := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		samples[line[:sp]] = v
	}
	return samples, sc.Err()
}

func mergeLatencies(lats [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile takes the nearest-rank percentile of an ascending-sorted
// sample; zero on an empty one.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100 // ceil(n*p/100)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// benchResult and benchSection mirror cmd/bench's JSON schema, so one
// BENCH file can carry go-test benchmarks and loadgen curves side by side
// and `cmd/bench -compare`-style tooling reads both.
type benchResult struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type benchSection struct {
	Go         string                 `json:"go"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	BenchFlags string                 `json:"bench_flags"`
	Results    map[string]benchResult `json:"results"`
}

// sectionFor shapes the measured steps into one cmd/bench-schema section:
// each step becomes a result named loadgen/resolve/c=N whose ns_per_op is
// the mean resolve latency, with the percentiles and throughput riding as
// custom metrics.
func sectionFor(flags string, results []stepResult) benchSection {
	sec := benchSection{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchFlags: flags,
		Results:    make(map[string]benchResult, len(results)),
	}
	for _, r := range results {
		sec.Results[fmt.Sprintf("loadgen/resolve/c=%d", r.Concurrency)] = benchResult{
			Iterations: r.Resolves,
			NsPerOp:    float64(r.MeanResolve.Nanoseconds()),
			Metrics: map[string]float64{
				"p50_ns":        float64(r.P50.Nanoseconds()),
				"p95_ns":        float64(r.P95.Nanoseconds()),
				"p99_ns":        float64(r.P99.Nanoseconds()),
				"ops_per_s":     r.OpsPerSec(),
				"resolve_per_s": r.ResolvesPerSec(),
				"throttled_429": float64(r.Throttled),
				"failed":        float64(r.Failed),
			},
		}
	}
	for _, r := range results {
		for k, v := range r.Server {
			sec.Results[fmt.Sprintf("loadgen/resolve/c=%d", r.Concurrency)].Metrics[k] = v
		}
	}
	return sec
}

// writeResults merges one label's section into the output file, preserving
// every other label — the same update-in-place contract as cmd/bench, so
// runs at different partition counts accumulate into one comparable
// document.
func writeResults(path, label, flags string, results []stepResult) error {
	doc := map[string]json.RawMessage{}
	if existing, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(existing, &doc); err != nil {
			return fmt.Errorf("%s exists but is not JSON: %w", path, err)
		}
	}
	enc, err := json.MarshalIndent(sectionFor(flags, results), "", "  ")
	if err != nil {
		return err
	}
	doc[label] = enc
	final, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(final, '\n'), 0o644)
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	learnrisk "repro"
)

// trainedModel trains one small model per seed and caches it across tests
// (training dominates test wall-clock otherwise).
var modelCache sync.Map // seed -> *learnrisk.Model

func trainedModel(t testing.TB, seed uint64) (*learnrisk.Workload, *learnrisk.Model) {
	t.Helper()
	w, err := learnrisk.Generate("DS", 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := modelCache.Load(seed); ok {
		return w, m.(*learnrisk.Model)
	}
	m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{
		RiskEpochs: 120, ClassifierEpochs: 12, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelCache.Store(seed, m)
	return w, m
}

func freshPair(w *learnrisk.Workload, i int) learnrisk.Pair {
	l, r := w.PairValues(i % w.Size())
	return learnrisk.Pair{Left: l, Right: r}
}

// abOnce trains one model with a different schema (AB: 3 attributes) for
// fingerprint-mismatch tests.
var abOnce struct {
	sync.Once
	w *learnrisk.Workload
	m *learnrisk.Model
}

func trainedModelAB(t testing.TB) (*learnrisk.Workload, *learnrisk.Model) {
	t.Helper()
	abOnce.Do(func() {
		w, err := learnrisk.Generate("AB", 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := learnrisk.Train(context.Background(), w, learnrisk.Options{
			RiskEpochs: 120, ClassifierEpochs: 12, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		abOnce.w, abOnce.m = w, m
	})
	if abOnce.m == nil {
		t.Fatal("AB model training failed earlier")
	}
	return abOnce.w, abOnce.m
}

// newTestServer stands the full HTTP stack up around a trained model.
func newTestServer(t *testing.T, cfg Config) (*learnrisk.Workload, *learnrisk.Model, *Server, *httptest.Server) {
	t.Helper()
	w, m := trainedModel(t, 7)
	srv := New(m, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return w, m, srv, ts
}

// postJSON posts body and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestBatcherEquivalence pins single-vs-batch equivalence on the serving
// path: pairs hammered from many goroutines through Server.Score and
// client-assembled Server.ScoreBatch calls each get exactly one verdict,
// bit-identical to calling Model.Score directly and stamped with the
// served fingerprint, and Served counts every pair exactly once. Run under
// -race by `make race`.
func TestBatcherEquivalence(t *testing.T) {
	w, m := trainedModel(t, 7)
	srv := New(m, Config{})

	const goroutines = 16
	const perG = 40
	const batch = 8
	var wg sync.WaitGroup
	var responses atomic.Int64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs := make([]learnrisk.Pair, perG)
			for i := range pairs {
				pairs[i] = freshPair(w, g*perG+i)
			}
			var got []learnrisk.PairScore
			if g%2 == 0 {
				for _, p := range pairs {
					sc, fp, err := srv.Score(p)
					if err != nil {
						errs <- err
						return
					}
					if fp != m.Fingerprint() {
						errs <- fmt.Errorf("fingerprint %.12s, want %.12s", fp, m.Fingerprint())
						return
					}
					got = append(got, sc)
				}
			} else {
				for lo := 0; lo < perG; lo += batch {
					scs, fp, err := srv.ScoreBatch(pairs[lo : lo+batch])
					if err != nil {
						errs <- err
						return
					}
					if fp != m.Fingerprint() {
						errs <- fmt.Errorf("fingerprint %.12s, want %.12s", fp, m.Fingerprint())
						return
					}
					got = append(got, scs...)
				}
			}
			if len(got) != perG {
				errs <- fmt.Errorf("goroutine %d: %d verdicts for %d pairs", g, len(got), perG)
				return
			}
			for i, p := range pairs {
				want, err := m.Score(p)
				if err != nil {
					errs <- err
					return
				}
				if got[i] != want {
					errs <- fmt.Errorf("served score %+v != direct %+v", got[i], want)
					return
				}
			}
			responses.Add(int64(len(got)))
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := responses.Load(); got != goroutines*perG {
		t.Fatalf("%d responses for %d requests", got, goroutines*perG)
	}
	if got := srv.Served(); got != goroutines*perG {
		t.Fatalf("Served = %d, want %d", got, goroutines*perG)
	}
}

func TestHTTPScoreMatchesDirect(t *testing.T) {
	w, m, _, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		l, r := w.PairValues(i * 3 % w.Size())
		var got ScoreResponse
		if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, &got); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		want, err := m.Score(learnrisk.Pair{Left: l, Right: r})
		if err != nil {
			t.Fatal(err)
		}
		if got.Prob != want.Prob || got.Risk != want.Risk || got.Match != want.Match ||
			got.Mu != want.Mu || got.Sigma != want.Sigma {
			t.Fatalf("wire score %+v != direct %+v", got, want)
		}
		if got.ModelFingerprint != m.Fingerprint() {
			t.Fatalf("fingerprint %.12s, want %.12s", got.ModelFingerprint, m.Fingerprint())
		}
	}
}

func TestHTTPScoreBatch(t *testing.T) {
	w, m, _, ts := newTestServer(t, Config{})
	req := BatchRequest{}
	var pairs []learnrisk.Pair
	for i := 0; i < 12; i++ {
		l, r := w.PairValues(i)
		req.Pairs = append(req.Pairs, PairRequest{Left: l, Right: r})
		pairs = append(pairs, learnrisk.Pair{Left: l, Right: r})
	}
	var got BatchResponse
	if code := postJSON(t, ts.URL+"/v1/score/batch", req, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := m.ScoreBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scores) != len(want) {
		t.Fatalf("%d scores, want %d", len(got.Scores), len(want))
	}
	for i := range want {
		if got.Scores[i].Risk != want[i].Risk || got.Scores[i].Prob != want[i].Prob {
			t.Fatalf("score %d differs: %+v vs %+v", i, got.Scores[i], want[i])
		}
	}

	// An empty batch is a client error.
	var e errorResponse
	if code := postJSON(t, ts.URL+"/v1/score/batch", BatchRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
}

func TestHTTPExplain(t *testing.T) {
	w, m, _, ts := newTestServer(t, Config{})
	l, r := w.PairValues(0)
	var got ExplainResponse
	if code := postJSON(t, ts.URL+"/v1/explain", PairRequest{Left: l, Right: r}, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Explanation) == 0 {
		t.Fatal("explanation is empty; the classifier-output feature always contributes")
	}
	why, err := m.ExplainPair(learnrisk.Pair{Left: l, Right: r})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Explanation) != len(why) || got.Explanation[0] != why[0] {
		t.Fatalf("wire explanation differs from direct:\n%v\nvs\n%v", got.Explanation, why)
	}
}

func TestHTTPModelAndHealthz(t *testing.T) {
	_, m, _, ts := newTestServer(t, Config{})
	var info ModelResponse
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != m.Fingerprint() {
		t.Errorf("fingerprint %.12s, want %.12s", info.Fingerprint, m.Fingerprint())
	}
	if info.EnvelopeVersion != m.EnvelopeVersion() {
		t.Errorf("envelope version %d, want %d", info.EnvelopeVersion, m.EnvelopeVersion())
	}
	if info.NumFeatures != m.NumFeatures() {
		t.Errorf("num features %d, want %d", info.NumFeatures, m.NumFeatures())
	}
	if len(info.Schema) != len(m.Schema()) {
		t.Errorf("schema arity %d, want %d", len(info.Schema), len(m.Schema()))
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, _, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed json", "/v1/score", `{"left": [`},
		{"unknown field", "/v1/score", `{"lefty": ["a"]}`},
		{"trailing garbage", "/v1/score", `{"left": [], "right": []} trailing`},
		{"wrong arity", "/v1/score", `{"left": ["only-one"], "right": ["x"]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", c.name, resp.StatusCode, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: error body is empty", c.name)
		}
	}

	// Wrong method on a valid route.
	resp, err := http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/score: status %d, want 405", resp.StatusCode)
	}
}

// saveArtifactIn writes a model envelope into dir and returns the path.
func saveArtifactIn(t *testing.T, dir, name string, m *learnrisk.Model) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHTTPReload(t *testing.T) {
	dir := t.TempDir()
	w, m := trainedModel(t, 7)
	_, m2 := trainedModel(t, 11) // same DS schema, different weights
	base := saveArtifactIn(t, dir, "base.json", m)
	path := saveArtifactIn(t, dir, "next.json", m2)
	srv := New(m, Config{ModelPath: base})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var rel ReloadResponse
	if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: path}, &rel); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if rel.OldFingerprint != m.Fingerprint() || rel.NewFingerprint != m2.Fingerprint() {
		t.Fatalf("reload fingerprints %+v", rel)
	}
	if srv.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", srv.Swaps())
	}

	// The swapped-in model serves: scores now match m2 (bit-identical to
	// its direct Score; m and m2 share the fingerprint but not weights).
	l, r := w.PairValues(1)
	var got ScoreResponse
	if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, &got); code != http.StatusOK {
		t.Fatalf("post-swap score status %d", code)
	}
	want, err := m2.Score(learnrisk.Pair{Left: l, Right: r})
	if err != nil {
		t.Fatal(err)
	}
	if got.Risk != want.Risk || got.Prob != want.Prob {
		t.Fatalf("post-swap score %+v != loaded model's %+v", got, want)
	}
}

func TestHTTPReloadErrors(t *testing.T) {
	// Without a configured artifact there is no trusted directory: a
	// pathless reload is a 400 and any request-supplied path a 403.
	_, _, _, tsBare := newTestServer(t, Config{})
	var e errorResponse
	if code := postJSON(t, tsBare.URL+"/v1/model/reload", ReloadRequest{}, &e); code != http.StatusBadRequest {
		t.Fatalf("pathless reload: status %d, want 400", code)
	}
	if code := postJSON(t, tsBare.URL+"/v1/model/reload", ReloadRequest{Path: "/etc/passwd"}, &e); code != http.StatusForbidden {
		t.Fatalf("pathed reload on artifact-less server: status %d, want 403", code)
	}

	// With a configured artifact, paths are confined to its directory.
	dir := t.TempDir()
	_, m := trainedModel(t, 7)
	base := saveArtifactIn(t, dir, "base.json", m)
	srv := New(m, Config{ModelPath: base})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Escape attempts: absolute path elsewhere, and dot-dot traversal.
	for _, p := range []string{"/etc/passwd", filepath.Join(dir, "..", "evil.json")} {
		if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: p}, &e); code != http.StatusForbidden {
			t.Fatalf("reload of %q: status %d, want 403 (error %q)", p, code, e.Error)
		}
	}

	// In-directory but unreadable artifact.
	if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: filepath.Join(dir, "missing.json")}, &e); code != http.StatusInternalServerError {
		t.Fatalf("missing artifact: status %d, want 500", code)
	}

	// Schema fingerprint mismatch is refused without force.
	_, ab := trainedModelAB(t)
	path := saveArtifactIn(t, dir, "ab.json", ab)
	if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: path}, &e); code != http.StatusConflict {
		t.Fatalf("mismatched reload: status %d, want 409 (error %q)", code, e.Error)
	}

	// force=true permits it.
	var rel ReloadResponse
	if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: path, Force: true}, &rel); code != http.StatusOK {
		t.Fatalf("forced reload: status %d", code)
	}
	if rel.NewFingerprint != ab.Fingerprint() {
		t.Fatalf("forced reload fingerprint %.12s, want %.12s", rel.NewFingerprint, ab.Fingerprint())
	}
}

// TestHTTPConcurrentMixedTraffic drives the acceptance shape end to end:
// mixed single/batch traffic from many clients over real HTTP, with a hot
// swap in the middle, zero failed requests, and single-pair scores
// bit-identical to direct Score. `make race` runs it under -race.
func TestHTTPConcurrentMixedTraffic(t *testing.T) {
	dir := t.TempDir()
	w, m := trainedModel(t, 7)
	_, m2 := trainedModel(t, 11)
	base := saveArtifactIn(t, dir, "base.json", m)
	path := saveArtifactIn(t, dir, "next.json", m2)
	srv := New(m, Config{ModelPath: base})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const clients = 10
	const perClient = 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				l, r := w.PairValues((c*perClient + i) % w.Size())
				switch i % 3 {
				case 0, 1: // single pair
					var got ScoreResponse
					if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: l, Right: r}, &got); code != http.StatusOK {
						t.Errorf("client %d: score status %d", c, code)
						return
					}
					wantOld, err1 := m.Score(learnrisk.Pair{Left: l, Right: r})
					wantNew, err2 := m2.Score(learnrisk.Pair{Left: l, Right: r})
					if err1 != nil || err2 != nil {
						t.Errorf("direct score: %v %v", err1, err2)
						return
					}
					gotPS := learnrisk.PairScore{Prob: got.Prob, Match: got.Match, Risk: got.Risk, Mu: got.Mu, Sigma: got.Sigma}
					if gotPS != wantOld && gotPS != wantNew {
						t.Errorf("client %d: score matches neither served model", c)
					}
				case 2: // client-assembled batch
					req := BatchRequest{Pairs: []PairRequest{{Left: l, Right: r}, {Left: l, Right: r}}}
					var got BatchResponse
					if code := postJSON(t, ts.URL+"/v1/score/batch", req, &got); code != http.StatusOK {
						t.Errorf("client %d: batch status %d", c, code)
						return
					}
					if len(got.Scores) != 2 || got.Scores[0] != got.Scores[1] {
						t.Errorf("client %d: identical pairs scored differently in one batch", c)
					}
				}
				if c == 0 && i == perClient/2 {
					var rel ReloadResponse
					if code := postJSON(t, ts.URL+"/v1/model/reload", ReloadRequest{Path: path}, &rel); code != http.StatusOK {
						t.Errorf("mid-traffic reload failed with %d", code)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if srv.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", srv.Swaps())
	}
	if srv.Served() == 0 {
		t.Fatal("served counter did not move")
	}
}

// TestHTTPScoreIsolatesBadPairs is per-request error isolation over real
// HTTP: concurrent POST /v1/score requests mix well-formed pairs with pairs
// of the wrong arity. Every bad request gets its own 400, and every good
// one a verdict bit-identical to Model.Score.
func TestHTTPScoreIsolatesBadPairs(t *testing.T) {
	w, m, srv, ts := newTestServer(t, Config{})
	const clients, perClient = 8, 12
	var wg sync.WaitGroup
	var good atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pair := freshPair(w, c*perClient+i)
				if (c+i)%2 == 0 {
					var e errorResponse
					bad := PairRequest{Left: pair.Left[:1], Right: pair.Right}
					if code := postJSON(t, ts.URL+"/v1/score", bad, &e); code != http.StatusBadRequest || e.Error == "" {
						t.Errorf("client %d: wrong-arity pair got status %d (error %q), want 400", c, code, e.Error)
					}
					continue
				}
				var got ScoreResponse
				if code := postJSON(t, ts.URL+"/v1/score", PairRequest{Left: pair.Left, Right: pair.Right}, &got); code != http.StatusOK {
					t.Errorf("client %d: good pair got status %d", c, code)
					continue
				}
				want, err := m.Score(pair)
				if err != nil {
					t.Error(err)
					continue
				}
				gotPS := learnrisk.PairScore{Prob: got.Prob, Match: got.Match, Risk: got.Risk, Mu: got.Mu, Sigma: got.Sigma}
				if gotPS != want || got.ModelFingerprint != m.Fingerprint() {
					t.Errorf("client %d: served %+v, Model.Score %+v", c, got, want)
				}
				good.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if want := int64(clients * perClient / 2); good.Load() != want || srv.Served() != want {
		t.Fatalf("answered %d good pairs and counted %d served, want %d of each", good.Load(), srv.Served(), want)
	}
}

// TestHotSwapUnderLoad is the zero-dropped-requests criterion: while N
// goroutines score through Server.Score, the model is swapped repeatedly
// between two distinct artifacts. Every request must be answered, with a
// score bit-identical to direct Score on one of the two models.
func TestHotSwapUnderLoad(t *testing.T) {
	w, mA := trainedModel(t, 7)
	_, mB := trainedModel(t, 11) // same schema, different weights
	if mA.Fingerprint() != mB.Fingerprint() {
		t.Fatal("test premise: both models share the schema fingerprint")
	}
	srv := New(mA, Config{})

	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		models := [2]*learnrisk.Model{mB, mA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.Swap(models[i%2], false); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const goroutines = 12
	const perG = 30
	var wg sync.WaitGroup
	var answered atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				pair := freshPair(w, g*perG+i)
				got, _, err := srv.Score(pair)
				if err != nil {
					t.Errorf("score: %v", err)
					return
				}
				answered.Add(1)
				// The fingerprint cannot identify the snapshot (both models
				// share the schema), so check against both: the verdict must
				// be bit-identical to one of the two artifacts' direct Score.
				wantA, errA := mA.Score(pair)
				wantB, errB := mB.Score(pair)
				if errA != nil || errB != nil {
					t.Errorf("direct score: %v %v", errA, errB)
					return
				}
				if got != wantA && got != wantB {
					t.Errorf("swapped score %+v matches neither model (%+v / %+v)", got, wantA, wantB)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-swapped
	if got := answered.Load(); got != goroutines*perG {
		t.Fatalf("answered %d of %d requests across %d swaps", got, goroutines*perG, srv.Swaps())
	}
	if srv.Swaps() < 2 {
		t.Fatalf("only %d swaps happened; the test did not exercise hot-swap", srv.Swaps())
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Partitions != 1 || cfg.MaxPending != 256 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Explicit values survive; a negative MaxPending disables the gate.
	cfg = Config{Partitions: 4, MaxPending: 8}.withDefaults()
	if cfg.Partitions != 4 || cfg.MaxPending != 8 {
		t.Fatalf("explicit config clobbered: %+v", cfg)
	}
	if cfg = (Config{MaxPending: -1}).withDefaults(); cfg.MaxPending != 0 {
		t.Fatalf("MaxPending -1 = %d, want 0 (gate off)", cfg.MaxPending)
	}
}

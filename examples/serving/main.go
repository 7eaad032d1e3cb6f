// Serving: train a model once, stand up the risk-scoring HTTP service on a
// loopback listener, and drive it with concurrent clients — the production
// shape of the repository: cmd/serve is this same server behind a real
// address. Each single-pair request is scored directly on the served model
// snapshot; mid-traffic the model is hot-swapped through the reload
// endpoint with zero dropped requests.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	learnrisk "repro"
	"repro/internal/server"
)

const (
	workers  = 8
	requests = 32 // single-pair requests per worker
)

func main() {
	// Train the artifact once on a products-shaped workload and save it —
	// the saved envelope doubles as the hot-swap source below.
	w, err := learnrisk.Generate("AB", 0.05, 9)
	if err != nil {
		log.Fatal(err)
	}
	model, err := learnrisk.Train(context.Background(), w, learnrisk.Options{
		Seed: 9, RiskEpochs: 300,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	artifact := filepath.Join(dir, "model.json")
	f, err := os.Create(artifact)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d risk features, fingerprint %.12s\n",
		model.NumFeatures(), model.Fingerprint())

	// Stand the service up on a loopback port — exactly what cmd/serve
	// does, minus the flags.
	srv := server.New(model, server.Config{ModelPath: artifact})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// Concurrent clients: every worker scores "fresh" pairs one request at
	// a time, and the server scores each on its own handler goroutine.
	var wg sync.WaitGroup
	risky := make([]int, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				l, r := w.PairValues((wk*7919 + i*104729) % w.Size())
				var verdict struct {
					Risk float64 `json:"risk"`
				}
				if err := post(base+"/v1/score", map[string]any{"left": l, "right": r}, &verdict); err != nil {
					log.Printf("worker %d: %v", wk, err)
					return
				}
				if verdict.Risk > 0.5 {
					risky[wk]++
				}
				// Halfway through, one worker hot-swaps the model from the
				// saved artifact; traffic never stops.
				if wk == 0 && i == requests/2 {
					var rel struct {
						NewFingerprint string `json:"new_fingerprint"`
					}
					if err := post(base+"/v1/model/reload", map[string]any{}, &rel); err != nil {
						log.Printf("reload: %v", err)
					} else {
						fmt.Printf("hot-swapped model mid-traffic (fingerprint %.12s)\n", rel.NewFingerprint)
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	totalRisky := 0
	for _, r := range risky {
		totalRisky += r
	}
	fmt.Printf("served %d pairs (%d flagged risk>0.5), model swaps: %d\n",
		srv.Served(), totalRisky, srv.Swaps())

	// One explained verdict over the wire, as a review UI would render it.
	l, r := w.PairValues(0)
	var why struct {
		Prob        float64  `json:"prob"`
		Match       bool     `json:"match"`
		Risk        float64  `json:"risk"`
		Explanation []string `json:"explanation"`
	}
	if err := post(base+"/v1/explain", map[string]any{"left": l, "right": r}, &why); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexample verdict: prob=%.3f match=%v risk=%.3f\n", why.Prob, why.Match, why.Risk)
	for i, line := range why.Explanation {
		if i == 2 {
			break
		}
		fmt.Println("  why: " + line)
	}
}

// post sends one JSON request and decodes the JSON response into out.
func post(url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", url, resp.Status, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

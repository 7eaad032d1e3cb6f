package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// TestStallChargedFromDueTime drives a stub server that stalls every
// request arriving in a fixed window. With an open loop, operations due
// during the stall queue in the generator, and each one's latency must run
// from its due time to the end of the stall, even though the server saw
// it arrive late and answered it at once.
func TestStallChargedFromDueTime(t *testing.T) {
	const (
		stallFrom = 300 * time.Millisecond
		stallTo   = 600 * time.Millisecond
		slack     = 2 * time.Millisecond
	)
	var start time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if now := time.Since(start); now >= stallFrom && now < stallTo {
			time.Sleep(stallTo - now)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	do := func(ctx context.Context, i int) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		return 0, nil
	}
	start = time.Now()
	res := Run(context.Background(), Config{Rate: 200, Measure: time.Second, Senders: 2, Drain: time.Second}, do)
	if res.Missed != 0 {
		t.Fatalf("missed %d operations", res.Missed)
	}
	if len(res.Samples) != 200 {
		t.Fatalf("got %d samples, want 200", len(res.Samples))
	}
	stalled := 0
	var late []time.Duration
	for _, s := range res.Samples {
		if s.Err != nil {
			t.Fatalf("op %d: %v", s.Op, s.Err)
		}
		late = append(late, s.Late)
		// Operations due inside the stall (with a margin for the two
		// senders' start-up) cannot complete before it ends.
		if s.Due >= stallFrom+10*time.Millisecond && s.Due < stallTo-10*time.Millisecond {
			stalled++
			if want := stallTo - s.Due - slack; s.Latency < want {
				t.Errorf("op %d due %v: latency %v, want at least %v (measured from due time)", s.Op, s.Due, s.Latency, want)
			}
		}
	}
	if stalled < 50 {
		t.Fatalf("only %d operations fell due during the stall", stalled)
	}
	// Queueing behind the stall is latency, not generator lateness.
	sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
	if p99 := late[len(late)*99/100]; p99 > 50*time.Millisecond {
		t.Errorf("generator lateness p99 %v: the stall leaked into Late", p99)
	}
}

// TestWarmupAndBacklog checks that warm-up operations are sent but not
// returned, and that operations the drain deadline cuts off are counted
// as missed instead of vanishing.
func TestWarmupAndBacklog(t *testing.T) {
	do := func(ctx context.Context, i int) (int, error) {
		time.Sleep(20 * time.Millisecond)
		return i % 2, nil
	}
	res := Run(context.Background(), Config{
		Rate: 400, Warmup: 100 * time.Millisecond, Measure: 200 * time.Millisecond,
		Senders: 1, Drain: 50 * time.Millisecond,
	}, do)
	// One sender at 20ms per op completes about 17 ops in the 350ms before
	// the cutoff, far fewer than the 120 scheduled.
	if res.Missed == 0 {
		t.Fatalf("no missed operations with a saturated sender: %+v", res)
	}
	if got := len(res.Samples) + res.Missed; got != 80 {
		t.Fatalf("measured + missed = %d, want the 80 operations due after warm-up", got)
	}
	for _, s := range res.Samples {
		if s.Due < 100*time.Millisecond {
			t.Fatalf("warm-up op %d (due %v) returned", s.Op, s.Due)
		}
	}
}

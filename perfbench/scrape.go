package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one read of the server's GET /metrics. It keeps only the
// histograms' _sum and _count samples and the counters: the quantile lines
// (and _max) are cumulative over the process lifetime, so no difference of
// two scrapes can be taken from them.
type scrape map[string]float64

func (c *client) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	s := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "quantile=") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasSuffix(name, "_max") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: line %q: %w", line, err)
		}
		s[name] = v
	}
	return s, sc.Err()
}

// delta is how much a sample grew between two scrapes.
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// meanNs is a histogram's mean over the interval between two scrapes, in
// the given unit (1e3 for microseconds, 1e6 for milliseconds); 0 when the
// histogram saw nothing.
func meanNs(before, after scrape, hist string, unit float64) float64 {
	return ratio(delta(before, after, hist+"_sum"), delta(before, after, hist+"_count")) / unit
}

// serverLayers derives the server-side per-layer metrics from the scrapes
// taken just before and just after a measured phase of ops requests.
func serverLayers(before, after scrape, ops float64) map[string]float64 {
	const us, ms = 1e3, 1e6
	writes := delta(before, after, "request_ingest_ns_count")
	gcs := delta(before, after, "runtime_stats_gc_cycles")
	return map[string]float64{
		"batcher.wait_ms":                   meanNs(before, after, "stage_batch_wait_ns", ms),
		"batcher.score_batch_ms":            meanNs(before, after, "stage_score_batch_ns", ms),
		"batcher.pairs_per_flush":           ratio(delta(before, after, "batcher_batched_pairs"), delta(before, after, "batcher_flushes")),
		"server.score_ms":                   meanNs(before, after, "request_score_ns", ms),
		"server.resolve_ms":                 meanNs(before, after, "request_resolve_ns", ms),
		"server.ingest_ms":                  meanNs(before, after, "request_ingest_ns", ms),
		"partition.tokenize_us":             meanNs(before, after, "stage_probe_tokenize_ns", us),
		"partition.scatter_ms":              meanNs(before, after, "stage_scatter_ns", ms),
		"partition.slowest_leg_ms":          meanNs(before, after, "stage_scatter_slowest_ns", ms),
		"partition.merge_us":                meanNs(before, after, "stage_topk_merge_ns", us),
		"partition.rescore_us":              meanNs(before, after, "stage_score_ns", us),
		"partition.pruned_tokens_per_probe": ratio(delta(before, after, "partition_stats_pruned_tokens"), delta(before, after, "partition_stats_probes")),
		"match.apply_us":                    meanNs(before, after, "stage_store_apply_ns", us),
		"wal.append_us":                     meanNs(before, after, "stage_wal_append_ns", us),
		"wal.fsync_us":                      meanNs(before, after, "stage_wal_fsync_ns", us),
		"wal.fsyncs_per_write":              ratio(delta(before, after, "stage_wal_fsync_ns_count"), writes),
		"snapshot.count":                    delta(before, after, "stage_snapshot_cut_ns_count"),
		"snapshot.cut_ms":                   meanNs(before, after, "stage_snapshot_cut_ns", ms),
		"snapshot.publish_ms":               meanNs(before, after, "stage_snapshot_publish_ns", ms),
		"runtime.gc_per_kop":                ratio(gcs, ops) * 1000,
		"runtime.alloc_kib_per_op":          ratio(delta(before, after, "runtime_stats_total_alloc_bytes"), ops) / 1024,
		"runtime.gc_pause_ms":               ratio(delta(before, after, "runtime_stats_gc_pause_total_ns"), gcs) / ms,
	}
}

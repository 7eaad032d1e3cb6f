package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report, and the workload names it must serve.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// checkSpec reads BENCHMARK.json and checks that its workloads are the
// ones this program runs.
func checkSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(runners) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark runs %d", path, len(spec.Workloads), len(runners))
	}
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s lists workload %q, which the benchmark does not run", path, w.Name)
		}
	}
	return &spec, nil
}

// servingLayers are the per-layer metrics measured on a running server;
// they are 0 on a workload that starts none.
var servingLayers = []string{
	"batcher.wait_ms", "batcher.score_batch_ms", "batcher.pairs_per_flush",
	"server.score_ms", "server.resolve_ms", "server.ingest_ms", "server.http_ms",
	"client.p50_ms", "client.p99_ms", "client.capacity_ops_s", "client.ingest_p50_ms", "client.ingest_p99_ms",
	"partition.tokenize_us", "partition.scatter_ms", "partition.slowest_leg_ms",
	"partition.merge_us", "partition.rescore_us", "partition.pruned_tokens_per_probe",
	"match.candidates_per_probe", "match.topk_yield", "match.apply_us",
	"wal.append_us", "wal.fsync_us", "wal.fsyncs_per_write", "wal.bytes_per_write",
	"snapshot.count", "snapshot.cut_ms", "snapshot.publish_ms",
	"gen.late_p99_ms",
}

func zeroServingLayers(values map[string]float64) {
	for _, name := range servingLayers {
		if _, ok := values[name]; !ok {
			values[name] = 0
		}
	}
}

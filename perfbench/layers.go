package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declared is the metric set BENCHMARK.json promises for one kind of run:
// name to unit.
type declared map[string]string

// loadDeclared reads the end-to-end and per-layer metric sets from
// BENCHMARK.json, so that the file is the one list of what a run reports.
func loadDeclared(path string) (endToEnd, perLayer declared, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	endToEnd, perLayer = declared{}, declared{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer, nil
}

// complete checks a run's metrics against the declared set and fills the
// ones the workload cannot see with 0: a traced run reports every layer,
// and one the workload bypasses reads 0. "op" in a metric name is the
// workload's unit of work (one simulated second on sim-ring, one client
// request on the TCP workloads).
func (d declared) complete(m map[string]metric, zeroMissing bool) error {
	for name, v := range m {
		if unit, ok := d[name]; !ok || unit != v.Unit {
			return fmt.Errorf("metric %s (%s) is not declared in BENCHMARK.json", name, v.Unit)
		}
	}
	for name, unit := range d {
		if _, ok := m[name]; ok {
			continue
		}
		if !zeroMissing {
			return fmt.Errorf("declared metric %s was not measured", name)
		}
		m[name] = metric{0, unit}
	}
	return nil
}

// counterLayers computes the layer metrics that octopus counters give
// between two scrapes, the same way for the simulator's nodes and for the
// daemons' /metrics: ops is the workload's op count and ringSeconds the
// seconds of ring time the window covered.
func counterLayers(b, a []scrape, ops, ringSeconds float64) map[string]metric {
	lookups := sumDelta(b, a, "octopus_lookups_completed_total")
	hits := sumDelta(b, a, "octopus_lookup_cache_hits_total")
	misses := sumDelta(b, a, "octopus_lookup_cache_misses_total")
	msgs := sumDelta(b, a, "octopus_transport_msgs_sent_total")
	return map[string]metric{
		"core.queries_per_lookup":       {ratio(sumDelta(b, a, "octopus_lookup_queries_total"), lookups), "count"},
		"core.dummies_per_lookup":       {ratio(sumDelta(b, a, "octopus_lookup_dummies_total"), lookups), "count"},
		"core.pool_fallback_per_lookup": {ratio(sumDelta(b, a, "octopus_pool_fallback_pairs_total"), sumDelta(b, a, "octopus_lookups_started_total")), "count"},
		"core.walks_per_s":              {ratio(sumDelta(b, a, "octopus_walks_completed_total"), ringSeconds), "1/s"},
		"core.cache_hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"transport.msgs_per_op":         {ratio(msgs, ops), "count"},
		"transport.bytes_per_op":        {ratio(sumDelta(b, a, "octopus_transport_bytes_sent_total"), ops), "B"},
		"transport.msgs_per_frame":      {ratio(msgs, sumDelta(b, a, "octopus_transport_frames_total", `direction="out"`)), "count"},
		"store.hit_ratio":               {ratio(sumDelta(b, a, "octopus_store_hits_total"), sumDelta(b, a, "octopus_store_gets_total")), "ratio"},
	}
}

// sumDelta adds a metric's increase over every scrape pair.
func sumDelta(before, after []scrape, name string, match ...string) float64 {
	var t float64
	for i := range after {
		t += after[i].sum(name, match...) - before[i].sum(name, match...)
	}
	return t
}

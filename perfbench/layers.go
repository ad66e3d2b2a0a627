package main

// layerSample holds one traced pass's per-layer values by metric name.
// Times are milliseconds summed over the pass; counts are per pass.
type layerSample map[string]float64

// layerMetric describes one per-layer metric.
type layerMetric struct {
	name, unit string
}

// layerTable lists every per-layer metric a traced run prints, by module.
// A workload that does not load a layer reports 0 for its metrics (tables
// never opens a VTR2 file, replay compiles nothing in its timed part, and
// only service goes through the server).
var layerTable = []layerMetric{
	// front end: parser.Parse, sema.Check, lower.Lower
	{"parser.ms", "ms"},
	{"sema.ms", "ms"},
	{"lower.ms", "ms"},
	// interp: untraced pipeline.RunCtx
	{"interp.ms", "ms"},
	{"interp.steps", "count"},
	{"interp.steps_per_s", "steps/s"},
	// trace: materialization (pipeline.TraceCtxOpts minus pipeline.RunCtx)
	{"trace.emit_ms", "ms"},
	{"trace.events", "count"},
	{"trace.alloc_bytes_per_event", "B/event"},
	// trace: region split, trace.(*Trace).Regions
	{"trace.regions_ms", "ms"},
	// trace: VTR2 read, trace.OpenTrace plus a Cursor drain
	{"trace.open_ms", "ms"},
	{"trace.decode_events_per_s", "events/s"},
	{"trace.bytes_read", "B"},
	{"trace.blocks_read", "count"},
	{"trace.blocks_read_per_block", "ratio"},
	// core: pipeline.AnalyzeRegion
	{"core.ms", "ms"},
	{"core.ns_per_event", "ns/event"},
	{"core.candidates", "count"},
	{"core.partitions", "count"},
	// staticvec and profile
	{"staticvec.ms", "ms"},
	{"profile.ms", "ms"},
	// report: representative-region sampling (self time) and rendering
	{"report.sample_ms", "ms"},
	{"report.render_ms", "ms"},
	// pipeline: region fan-out and merge, and the live all-regions path
	{"pipeline.scan_ms", "ms"},
	{"pipeline.self_ms", "ms"},
	{"pipeline.live_ms", "ms"},
	// server: HTTP, admission and cache
	{"server.submit_ms_p50", "ms"},
	{"server.report_wait_ms_p50", "ms"},
	{"server.hit_rtt_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.refused", "count"},
	{"server.queue_depth_peak", "count"},
}

// layerMetrics folds traced passes into printed metrics: the median of each
// metric over the passes, 0 where no pass recorded it.
func layerMetrics(samples []layerSample) map[string]metric {
	out := make(map[string]metric, len(layerTable)+2)
	for _, lm := range layerTable {
		var xs []float64
		for _, s := range samples {
			if v, ok := s[lm.name]; ok {
				xs = append(xs, v)
			}
		}
		out[lm.name] = metric{median(xs), lm.unit}
	}
	return out
}

// Sums a traced pass accumulates under these names; finish turns them into
// rates.
const (
	sumAllocBytes = "sum.trace_alloc_bytes" // bytes TraceCtxOpts allocated
	sumCoreEvents = "sum.core_events"       // events AnalyzeRegion analyzed
)

// finish turns a traced pass's sums into the per-layer rates (interp steps
// per second, trace bytes allocated per event, core time per analyzed
// event) and drops the sums. A rate whose base is 0 is left out.
func (ls layerSample) finish() {
	ratio := func(name string, num, den float64) {
		if den > 0 {
			ls[name] = num / den
		}
	}
	ratio("interp.steps_per_s", ls["interp.steps"], ls["interp.ms"]/1e3)
	ratio("trace.alloc_bytes_per_event", ls[sumAllocBytes], ls["trace.events"])
	ratio("core.ns_per_event", ls["core.ms"]*1e6, ls[sumCoreEvents])
	delete(ls, sumAllocBytes)
	delete(ls, sumCoreEvents)
}

package core

// SetAnalyzeUnitHook installs a fault-injection hook observing the start of
// every per-candidate analysis stage and returns a restore function. Tests
// use it to inject panics and delays into the sweep; see analyzeUnitHook.
func SetAnalyzeUnitHook(h func(id int32)) (restore func()) {
	old := analyzeUnitHook
	analyzeUnitHook = h
	return func() { analyzeUnitHook = old }
}

// WithPerCandidate returns o with the legacy per-candidate Algorithm-1
// sweep selected in AnalyzeCtx: the reference the fused tiled kernel is
// tested against.
func WithPerCandidate(o Options) Options {
	o.perCandidate = true
	return o
}

// WithMapShadow returns o with the stream kernel's map-backed shadow memory
// selected: the reference the paged shadow is tested against. The option
// rides through the pipeline's region fan-outs unchanged, so tests can
// select it end to end.
func WithMapShadow(o Options) Options {
	o.mapShadow = true
	return o
}

// WithTileSize returns o with the fused Algorithm-1 kernel's tile width
// forced to n candidates per pass (0 restores the automatic width), so
// tests can sweep the widths the budget-derived choice never picks.
func WithTileSize(o Options, n int) Options {
	o.tileSize = n
	return o
}

package core

// SetAnalyzeUnitHook installs a fault-injection hook observing the start of
// every per-candidate analysis stage and returns a restore function. Tests
// use it to inject panics and delays into the sweep; see analyzeUnitHook.
func SetAnalyzeUnitHook(h func(id int32)) (restore func()) {
	old := analyzeUnitHook
	analyzeUnitHook = h
	return func() { analyzeUnitHook = old }
}

// WithMapShadow returns o with the stream kernel's map-backed shadow memory
// selected: the reference the paged shadow is tested against. The option
// rides through the pipeline's region fan-outs unchanged, so tests can
// select it end to end.
func WithMapShadow(o Options) Options {
	o.mapShadow = true
	return o
}

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

// Subpartitions returns candidate id's §3.2 unit-stride and §3.3
// non-unit-stride subpartitions over the events fed so far, formed by the
// same stages Finish runs (singletons included). Members are instance
// positions: the k-th instance of id in trace order, as in
// InstanceTimestamps. Both are nil when id has no instances.
func (k *StreamKernel) Subpartitions(id int32) (unit, non []Subpartition) {
	if id < 0 || int(id) >= len(k.colOf) || k.colOf[id] < 0 {
		return nil, nil
	}
	k.fin.visit = func(nonUnit bool, sp Subpartition) {
		if nonUnit {
			non = append(non, sp)
		} else {
			unit = append(unit, sp)
		}
	}
	defer func() { k.fin.visit = nil }()
	k.finishCand(&k.cands[k.colOf[id]])
	return unit, non
}

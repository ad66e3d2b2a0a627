package core

// The fused, tiled Algorithm-1 kernel. The analysis hot loop used to run
// Algorithm 1 once per candidate instruction — K full sweeps over the node
// array, each reloading every ddg.Node (48 bytes) and its predecessor
// timestamps. The fused kernel instead fills timestamp rows for a *tile* of
// T candidates in one trace-order pass: the per-node state is a contiguous
// T-wide int32 row, each node and its predecessor rows are loaded once per
// tile, and the whole-graph traffic drops from K passes to ceil(K/T).
//
// Soundness is the same Property 3.1 argument as the per-candidate path:
// each candidate's timestamping reads the shared immutable graph and writes
// only its own tile column, and column c of the tile computes exactly the
// recurrence fillTimestampsRed computes for ids[c] (the columns never
// interact). Determinism follows from index-addressed merging: tiles are
// dispatched over ParallelFor but every result lands in results[tile*T+j],
// so output is byte-identical to the per-candidate oracle for every worker
// count and tile width.

import (
	"context"
	"errors"
	"sync"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
)

// analyzeUnitHook, when non-nil, observes the start of every per-candidate
// analysis stage in both kernels. It exists for fault-injection tests —
// injecting panics and delays into the sweep — and is never set outside
// tests (see SetAnalyzeUnitHook in export_test.go).
var analyzeUnitHook func(id int32)

const (
	// maxTileWidth caps how many candidates share one fused pass. 64
	// columns make a 256-byte row — four cache lines — so the row of a
	// back-referenced predecessor is at most four line fills, and the
	// common loop-carried short-range references stay resident.
	maxTileWidth = 64
	// tileBudgetBytes bounds one tile's timestamp matrix (4·nodes·T
	// bytes). On very large graphs the automatic tile width shrinks so a
	// worker's matrix stays within this budget rather than growing with
	// the candidate count. 64 MiB is past the point where the matrix blows
	// the last-level cache either way; empirically (≈1M-node graphs) the
	// sweep time keeps dropping through width ≈32 because the dominant
	// saving is amortized node decoding, then climbs again once row
	// traffic grows past that — the budget lands the auto width in the
	// flat part of that curve.
	tileBudgetBytes = 64 << 20
)

// tileWidth resolves the tile width for a graph of nNodes nodes: a
// test-forced positive width wins, otherwise the width is the largest
// one ≤ maxTileWidth whose matrix fits the per-tile byte budget —
// tileBudgetBytes, shrunk further when Options.Budget.MaxAnalysisBytes
// bounds the whole working set — and at least 1.
func (o Options) tileWidth(nNodes int) int {
	if o.tileSize > 0 {
		return o.tileSize
	}
	t := o.Budget.tileBudget(o.WorkerCount()) / 4 / int64(max(nNodes, 1))
	return min(max(int(t), 1), maxTileWidth)
}

// fusedScratch holds one tile's recycled working set: the nodes×T timestamp
// matrix and the static-instruction→column map.
type fusedScratch struct {
	// tile is the row-major timestamp matrix: node i's timestamps for the
	// tile's candidates occupy tile[i*T : (i+1)*T].
	tile []int32
	// colOf maps a static instruction id to its tile column, or -1. Dense
	// over the instruction ids so the per-node lookup is one bounds check
	// and one slice read.
	colOf []int16
	// used marks a scratch that has been through at least one checkout,
	// for the pool-hit-rate counters.
	used bool
}

// fusedPool recycles fusedScratch buffers across tiles, workers, and
// successive Analyze calls.
var fusedPool = sync.Pool{New: func() any { return new(fusedScratch) }}

// getFusedScratch checks a scratch out of the pool with its matrix sized
// for nNodes×T timestamps and its column map covering the tile's candidate
// ids (all other entries -1). The matrix is not zeroed: the fused sweep
// writes every row. A non-nil recorder tallies the checkout as a pool hit
// or miss.
func getFusedScratch(ids []int32, nNodes, T int, rec *obs.Recorder) *fusedScratch {
	fs := fusedPool.Get().(*fusedScratch)
	if rec != nil {
		if fs.used {
			rec.Add(obs.ScratchPoolHits, 1)
		} else {
			rec.Add(obs.ScratchPoolMisses, 1)
		}
	}
	fs.used = true
	need := nNodes * T
	if cap(fs.tile) < need {
		fs.tile = make([]int32, need)
	}
	fs.tile = fs.tile[:need]

	maxID := int32(-1)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	if cap(fs.colOf) < int(maxID)+1 {
		fs.colOf = make([]int16, maxID+1)
	}
	fs.colOf = fs.colOf[:maxID+1]
	for i := range fs.colOf {
		fs.colOf[i] = -1
	}
	for c, id := range ids {
		fs.colOf[id] = int16(c)
	}
	return fs
}

// release returns the scratch to the pool.
func (fs *fusedScratch) release() { fusedPool.Put(fs) }

// detectReductionsFused computes the reduction structure of every tile
// candidate before the tile's kernel pass. With the shared instance index,
// per-candidate instance iteration is already optimal — the tile's total
// work is Σ|instances| ≤ nodes, so a combined full-graph walk (an earlier
// design) can only visit more nodes than this, never fewer. The result at
// index c is exactly detectReductionInst(g, ids[c], …) — nil when ids[c]
// shows no reduction structure.
func detectReductionsFused(g *ddg.Graph, ids []int32) []*reductionInfo {
	reds := make([]*reductionInfo, len(ids))
	for c, id := range ids {
		reds[c] = detectReductionInst(g, id, g.Instances(id))
	}
	return reds
}

// fillTimestampsFused is the fused Algorithm 1 kernel: one trace-order pass
// that fills the row-major timestamp matrix for every tile candidate at
// once. For each node the predecessor slots (and the CSR overflow range)
// are read once; the T-wide row update is a branch-free max over the
// predecessors' contiguous rows. cuts[c] is candidate c's reduction
// structure to relax, or nil; a relaxed instance's column is recomputed
// excluding the accumulator edge, mirroring fillTimestampsRed's cut.
func fillTimestampsFused(g *ddg.Graph, ids []int32, cuts []*reductionInfo, colOf []int16, tile []int32) {
	T := len(ids)
	nodes := g.Nodes
	csrOff, csrFlat := g.OverflowCSR()
	anyCut := false
	for _, r := range cuts {
		if r != nil {
			anyCut = true
			break
		}
	}
	for i := range nodes {
		nd := &nodes[i]
		row := tile[i*T : i*T+T]
		p1, p2 := nd.P1, nd.P2
		var ext []int32
		if csrOff != nil {
			ext = csrFlat[csrOff[i]:csrOff[i+1]]
		}
		switch {
		case p1 != ddg.NoPred && p2 != ddg.NoPred:
			r1 := tile[int(p1)*T : int(p1)*T+T]
			r2 := tile[int(p2)*T : int(p2)*T+T]
			for c := range row {
				m := r1[c]
				if r2[c] > m {
					m = r2[c]
				}
				row[c] = m
			}
		case p1 != ddg.NoPred:
			copy(row, tile[int(p1)*T:int(p1)*T+T])
		case p2 != ddg.NoPred:
			copy(row, tile[int(p2)*T:int(p2)*T+T])
		default:
			for c := range row {
				row[c] = 0
			}
		}
		for _, p := range ext {
			rp := tile[int(p)*T : int(p)*T+T]
			for c := range row {
				if rp[c] > row[c] {
					row[c] = rp[c]
				}
			}
		}
		// Instance fix-up: candidate ids are distinct, so at most one
		// column is an instance at this node. Its row entry currently
		// holds the max over all predecessors; relaxation (if any)
		// recomputes it without the accumulator edge, then the instance
		// increment applies.
		if int(nd.Instr) >= len(colOf) {
			continue
		}
		c := colOf[nd.Instr]
		if c < 0 {
			continue
		}
		if anyCut && cuts[c] != nil {
			if cut, ok := cuts[c].accumPred[int32(i)]; ok {
				var m int32
				if p1 != ddg.NoPred && p1 != cut {
					if v := tile[int(p1)*T+int(c)]; v > m {
						m = v
					}
				}
				if p2 != ddg.NoPred && p2 != cut {
					if v := tile[int(p2)*T+int(c)]; v > m {
						m = v
					}
				}
				for _, p := range ext {
					if p != cut {
						if v := tile[int(p)*T+int(c)]; v > m {
							m = v
						}
					}
				}
				row[c] = m
			}
		}
		row[c]++
	}
}

// analyzeFused runs the complete per-candidate pipeline for every id using
// the fused tiled kernel: candidates are grouped into tiles, tiles are
// dispatched across the worker pool, and within a tile one fused sweep
// timestamps all members before the (cheap, instance-proportional)
// partition and stride stages run per candidate. Results land in
// index-addressed slots of results, keeping output deterministic.
//
// Failure isolation runs at two granularities: the shared tile sweep is
// guarded as a "tile" unit (a panic there poisons the whole tile — the
// columns share one pass), while each candidate's finish stage is guarded
// as a "candidate" unit, so one poisoned candidate leaves its tile
// siblings' result slots intact. Failed slots keep the candidate's ID but
// carry no metrics; the joined error names every failed unit.
func analyzeFused(ctx context.Context, g *ddg.Graph, ids []int32, instances map[int32][]int32, opts Options, results []InstrReport, rec *obs.Recorder) error {
	n := len(g.Nodes)
	T := opts.tileWidth(n)
	numTiles := (len(ids) + T - 1) / T
	return ParallelFor(ctx, numTiles, opts.WorkerCount(), func(t int) error {
		lo := t * T
		hi := min(lo+T, len(ids))
		tileIDs := ids[lo:hi]
		w := len(tileIDs)
		rec.Add(obs.TilesDispatched, 1)
		fs := getFusedScratch(tileIDs, n, w, rec)
		defer fs.release()
		// Reduction structure is always detected (it feeds the report's
		// IsReduction flag); it is additionally fed to the kernel as cuts
		// only under RelaxReductions — in one fused pass either way.
		var reds []*reductionInfo
		sweep := rec.StartTimer("tile-sweep")
		sweepErr := Guard(t, "tile", int64(tileIDs[0]), func() error {
			reds = detectReductionsFused(g, tileIDs)
			cuts := reds
			if !opts.RelaxReductions {
				cuts = make([]*reductionInfo, w)
			}
			if w == 1 {
				// A one-column tile degenerates to the scalar recurrence; the
				// per-candidate kernel computes it without the row machinery
				// (the 1-wide matrix IS a plain timestamp vector).
				fillTimestampsRed(g, tileIDs[0], cuts[0], fs.tile)
			} else {
				fillTimestampsFused(g, tileIDs, cuts, fs.colOf, fs.tile)
			}
			return nil
		})
		sweep.Stop()
		if sweepErr != nil {
			// The shared sweep failed: every column of this tile is
			// unusable. Keep the IDs so the report still names them.
			for j, id := range tileIDs {
				results[lo+j] = InstrReport{ID: id}
			}
			return sweepErr
		}
		sc := getScratch(0, rec)
		defer sc.release()
		stride := rec.StartTimer("stride")
		defer stride.Stop()
		var unitErrs []error
		for j, id := range tileIDs {
			err := Guard(t, "candidate", int64(id), func() error {
				if analyzeUnitHook != nil {
					analyzeUnitHook(id)
				}
				inst := instances[id]
				if cap(sc.instTS) < len(inst) {
					sc.instTS = make([]int32, len(inst))
				}
				instTS := sc.instTS[:len(inst)]
				for k, nd := range inst {
					instTS[k] = fs.tile[int(nd)*w+j]
				}
				results[lo+j] = finishInstr(g, id, inst, instTS, reds[j], sc)
				return nil
			})
			if err != nil {
				results[lo+j] = InstrReport{ID: id}
				unitErrs = append(unitErrs, err)
			}
		}
		return errors.Join(unitErrs...)
	})
}

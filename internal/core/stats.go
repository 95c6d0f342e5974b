package core

import (
	"context"
	"runtime/pprof"

	"madpipe/internal/obs"
)

// DPStats is the per-invocation counter set of one MadPipe-DP run,
// collected only when Options.Obs is non-nil (the planner's
// observability switch). Every field is deterministic for a fixed
// (chain, platform, T̂, options) input and table state: the counts are
// a pure function of the solver's traversal.
//
// The counters decompose the planner's pruning by mechanism:
//
//   - CutsSkippedMonotone: cut positions abandoned by the monotone
//     U(k,l) >= best break in the cut loop.
//   - CutsSkippedFloor: children skipped because their
//     work-conservation floor already meets the incumbent, and cuts
//     skipped whole before their scalars because both branches are
//     settled.
//   - StatesBounded / StatesReopened: the branch and bound's cutoffs
//     (see solve): frames that closed as a lower bound, and such
//     entries re-solved for a caller with a higher cutoff.
//   - GmaxMemoHits: normal-branch memory thresholds answered by the
//     cross-probe T̂-independent gmax memo instead of bisection.
//   - StatesCertPruned: states settled at +Inf by a cross-probe
//     memory-death certificate without being expanded.
type DPStats struct {
	// StatesEvaluated is the number of frames this run closed (the
	// table's store count): exact entries and lower bounds alike, and a
	// reopened state counts again each time it closes. States settled
	// from a death certificate are excluded, so warm probes report only
	// the work they actually did; adopted states are counted separately
	// in StatesCertPruned.
	StatesEvaluated uint64 `json:"states_evaluated"`
	// StatesBounded counts frames that adopted no cut below their
	// finite cutoff and closed as a lower-bound entry.
	StatesBounded uint64 `json:"states_bounded"`
	// StatesReopened counts lower-bound entries re-solved because a
	// caller's cutoff was above the bound.
	StatesReopened uint64 `json:"states_reopened"`
	// StatesCertPruned counts states settled directly by a cross-probe
	// memory-death certificate.
	StatesCertPruned uint64 `json:"states_cert_pruned"`
	// StatesValReused counted states adopted from value certificates,
	// which madpipe-planner/9 deleted, so it reads 0. It stays because
	// the end-to-end benchmark (perfbench) reads it by name.
	StatesValReused uint64 `json:"states_val_reused"`
	// CertsRecorded counts memory-death certificates written this run.
	CertsRecorded uint64 `json:"certs_recorded"`
	// HoistReuses counts DP runs that adopted the table-cached
	// T̂-independent hoists (U prefix sums, per-cut weights, comm terms)
	// instead of rebuilding them.
	HoistReuses uint64 `json:"hoist_reuses"`
	// CutsEvaluated counts visits of the DP's inner cut loop (the
	// solver revisits a cut when it resumes after a child suspension).
	CutsEvaluated uint64 `json:"cuts_evaluated"`
	// CutsSkippedMonotone counts cut positions abandoned by the
	// monotone bottleneck break (U only grows as k decreases).
	CutsSkippedMonotone uint64 `json:"cuts_skipped_monotone"`
	// CutsSkippedFloor counts child lookups (normal or special branch)
	// the cut loop skipped because the child's work-conservation floor —
	// its remaining work U(1,k-1) plus its special-processor load, spread
	// over the processors it has left, less a rounding slack (childFloor)
	// — already met the incumbent, so the cut could not strictly improve
	// it. A fresh cut whose branches are both settled (by a floor, cl or
	// the special branch's t_P) is skipped before its scalars are
	// computed and counts once; any other cut counts once per branch
	// whose floor skipped it.
	CutsSkippedFloor uint64 `json:"cuts_skipped_floor"`
	// GmaxMemoHits / GmaxComputed split column-threshold lookups into
	// cross-probe memo answers and fresh bisections.
	GmaxMemoHits uint64 `json:"gmax_memo_hits"`
	GmaxComputed uint64 `json:"gmax_computed"`
	// ColumnsOpened / ColumnEntryFills count monotone cut-column
	// directory opens and lazy per-delay entry fills.
	ColumnsOpened    uint64 `json:"columns_opened"`
	ColumnEntryFills uint64 `json:"column_entry_fills"`
	// TableVirtualBytes is the packed index space of this run's shape in
	// state bytes. TableBlocksResident counts the table blocks this run
	// wrote (table.go) and TableResidentBytes is their size, blockSize
	// states of stateBytes each:
	// the run's own footprint, not the blocks earlier leases left
	// resident in a pooled table, so both are a function of the run
	// alone. Resident figures fold as high-water marks under add().
	TableVirtualBytes   uint64 `json:"table_virtual_bytes,omitempty"`
	TableResidentBytes  uint64 `json:"table_resident_bytes,omitempty"`
	TableBlocksResident uint64 `json:"table_blocks_resident,omitempty"`
}

// add folds o into s: counters sum, high-water marks take the maximum.
// Used to aggregate per-probe stats into Algorithm 1 totals.
func (s *DPStats) add(o *DPStats) {
	s.StatesEvaluated += o.StatesEvaluated
	s.StatesBounded += o.StatesBounded
	s.StatesReopened += o.StatesReopened
	s.StatesCertPruned += o.StatesCertPruned
	s.CertsRecorded += o.CertsRecorded
	s.HoistReuses += o.HoistReuses
	s.CutsEvaluated += o.CutsEvaluated
	s.CutsSkippedMonotone += o.CutsSkippedMonotone
	s.CutsSkippedFloor += o.CutsSkippedFloor
	s.GmaxMemoHits += o.GmaxMemoHits
	s.GmaxComputed += o.GmaxComputed
	s.ColumnsOpened += o.ColumnsOpened
	s.ColumnEntryFills += o.ColumnEntryFills
	if o.TableVirtualBytes > s.TableVirtualBytes {
		s.TableVirtualBytes = o.TableVirtualBytes
	}
	if o.TableResidentBytes > s.TableResidentBytes {
		s.TableResidentBytes = o.TableResidentBytes
	}
	if o.TableBlocksResident > s.TableBlocksResident {
		s.TableBlocksResident = o.TableBlocksResident
	}
}

// flush publishes the run's totals into the registry's cumulative
// counters and gauges. One atomic add per field per DP invocation —
// nothing on the per-state path.
func (s *DPStats) flush(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("dp_runs").Inc()
	reg.Counter("dp_states_evaluated").Add(s.StatesEvaluated)
	reg.Counter("dp_states_bounded").Add(s.StatesBounded)
	reg.Counter("dp_states_reopened").Add(s.StatesReopened)
	reg.Counter("dp_states_cert_pruned").Add(s.StatesCertPruned)
	reg.Counter("dp_certs_recorded").Add(s.CertsRecorded)
	reg.Counter("dp_hoist_reuses").Add(s.HoistReuses)
	reg.Counter("dp_cuts_evaluated").Add(s.CutsEvaluated)
	reg.Counter("dp_cuts_skipped_monotone").Add(s.CutsSkippedMonotone)
	reg.Counter("dp_cuts_skipped_floor").Add(s.CutsSkippedFloor)
	reg.Counter("dp_gmax_memo_hits").Add(s.GmaxMemoHits)
	reg.Counter("dp_gmax_computed").Add(s.GmaxComputed)
	reg.Counter("dp_columns_opened").Add(s.ColumnsOpened)
	reg.Counter("dp_column_entry_fills").Add(s.ColumnEntryFills)
	reg.Gauge("dp_states_max").Observe(s.StatesEvaluated)
	reg.Gauge("dp_table_virtual_bytes").Observe(s.TableVirtualBytes)
	reg.Gauge("dp_table_resident_bytes").Observe(s.TableResidentBytes)
	// Every table run writes at least one block, so every probe records
	// the dp_blocked_* gauges (perfbench reads them by these names).
	reg.Gauge("dp_blocked_blocks_alloc").Observe(s.TableBlocksResident)
	reg.Gauge("dp_blocked_resident_bytes").Observe(s.TableResidentBytes)
}

// flushPlan publishes one Algorithm 1 search's probe economics into the
// registry: how many probes folded and how many of those were answered
// by a Hint infeasibility floor without a DP run. Both are deterministic
// for a fixed input and hint state, unlike the wall-clock phase timers.
func flushPlan(reg *obs.Registry, probes, floorSaved int) {
	if reg == nil {
		return
	}
	reg.Counter("plan_probes").Add(uint64(probes))
	reg.Counter("plan_probes_floor_saved").Add(uint64(floorSaved))
}

var phaseCtx = context.Background()

// labelPhase runs f under a pprof label so CPU profiles attribute
// planner time to phases by name (madpipe-phase=probe). Goroutines
// started inside f inherit the label.
func labelPhase(name string, f func()) {
	pprof.Do(phaseCtx, pprof.Labels("madpipe-phase", name), func(context.Context) { f() })
}

package core

import (
	"context"
	"runtime/pprof"
	"time"

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
//   - GmaxMemoHits: normal-branch memory thresholds answered by the
//     cross-probe T̂-independent gmax memo instead of bisection.
//   - StatesCertPruned: states settled at +Inf by a cross-probe
//     memory-death certificate without being expanded.
type DPStats struct {
	// StatesEvaluated is the number of states this run evaluated fresh
	// (the dense table's store count). States settled from a certificate
	// — death or value — are excluded, so warm probes report only the
	// work they actually did; adopted states are counted separately in
	// StatesCertPruned and StatesValReused.
	StatesEvaluated uint64 `json:"states_evaluated"`
	// StatesCertPruned counts states settled directly by a cross-probe
	// memory-death certificate.
	StatesCertPruned uint64 `json:"states_cert_pruned"`
	// StatesValReused counts states adopted wholesale from a prior
	// probe's value certificate (the current T̂ fell inside the record's
	// proven validity interval). Like cert-pruned states, adopted states
	// are excluded from StatesEvaluated — that field measures fresh work.
	StatesValReused uint64 `json:"states_val_reused"`
	// CertsRecorded counts memory-death certificates written this run.
	CertsRecorded uint64 `json:"certs_recorded"`
	// ValCertsRecorded counts value certificates (validity intervals with
	// lo < hi) written this run.
	ValCertsRecorded uint64 `json:"val_certs_recorded"`
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
	// GmaxMemoHits / GmaxComputed split column-threshold lookups into
	// cross-probe memo answers and fresh bisections.
	GmaxMemoHits uint64 `json:"gmax_memo_hits"`
	GmaxComputed uint64 `json:"gmax_computed"`
	// ColumnsOpened / ColumnEntryFills count monotone cut-column
	// directory opens and lazy per-delay entry fills.
	ColumnsOpened    uint64 `json:"columns_opened"`
	ColumnEntryFills uint64 `json:"column_entry_fills"`
	// TableEpochReuses / TableGrows record whether the pooled dense
	// table served this run by bumping its epoch stamp or had to grow
	// its backing array.
	TableEpochReuses uint64 `json:"table_epoch_reuses"`
	TableGrows       uint64 `json:"table_grows"`
	// TableVirtualBytes is the packed index space of this run's shape in
	// state bytes; TableResidentBytes is what was actually backed by
	// memory at the end of the run — equal on the dense path, and the
	// materialized blocks only under blocked storage (dense.go), where
	// TableBlocksResident counts them. Resident figures fold as
	// high-water marks under add().
	TableVirtualBytes   uint64 `json:"table_virtual_bytes,omitempty"`
	TableResidentBytes  uint64 `json:"table_resident_bytes,omitempty"`
	TableBlocksResident uint64 `json:"table_blocks_resident,omitempty"`
}

// add folds o into s: counters sum, high-water marks take the maximum.
// Used to aggregate per-probe stats into Algorithm 1 totals.
func (s *DPStats) add(o *DPStats) {
	s.StatesEvaluated += o.StatesEvaluated
	s.StatesCertPruned += o.StatesCertPruned
	s.StatesValReused += o.StatesValReused
	s.CertsRecorded += o.CertsRecorded
	s.ValCertsRecorded += o.ValCertsRecorded
	s.HoistReuses += o.HoistReuses
	s.CutsEvaluated += o.CutsEvaluated
	s.CutsSkippedMonotone += o.CutsSkippedMonotone
	s.GmaxMemoHits += o.GmaxMemoHits
	s.GmaxComputed += o.GmaxComputed
	s.ColumnsOpened += o.ColumnsOpened
	s.ColumnEntryFills += o.ColumnEntryFills
	s.TableEpochReuses += o.TableEpochReuses
	s.TableGrows += o.TableGrows
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
	reg.Counter("dp_states_cert_pruned").Add(s.StatesCertPruned)
	reg.Counter("dp_states_val_reused").Add(s.StatesValReused)
	reg.Counter("dp_certs_recorded").Add(s.CertsRecorded)
	reg.Counter("dp_val_certs_recorded").Add(s.ValCertsRecorded)
	reg.Counter("dp_hoist_reuses").Add(s.HoistReuses)
	reg.Counter("dp_cuts_evaluated").Add(s.CutsEvaluated)
	reg.Counter("dp_cuts_skipped_monotone").Add(s.CutsSkippedMonotone)
	reg.Counter("dp_gmax_memo_hits").Add(s.GmaxMemoHits)
	reg.Counter("dp_gmax_computed").Add(s.GmaxComputed)
	reg.Counter("dp_columns_opened").Add(s.ColumnsOpened)
	reg.Counter("dp_column_entry_fills").Add(s.ColumnEntryFills)
	reg.Counter("dp_table_epoch_reuses").Add(s.TableEpochReuses)
	reg.Counter("dp_table_grows").Add(s.TableGrows)
	reg.Gauge("dp_states_max").Observe(s.StatesEvaluated)
	reg.Gauge("dp_table_virtual_bytes").Observe(s.TableVirtualBytes)
	reg.Gauge("dp_table_resident_bytes").Observe(s.TableResidentBytes)
	if s.TableBlocksResident > 0 {
		// Blocked-table economics: gauge names appear only when a blocked
		// run actually happened, so dense-only registries stay unchanged.
		reg.Gauge("dp_blocked_blocks_alloc").Observe(s.TableBlocksResident)
		reg.Gauge("dp_blocked_resident_bytes").Observe(s.TableResidentBytes)
	}
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

// phaseTimed runs f under the planner-phase pprof label and, when a
// registry is attached, records the phase's wall-clock duration into it,
// so CPU-profile tags (go tool pprof -tags) and the registry's phase
// table come from the same call.
func phaseTimed(reg *obs.Registry, name string, f func()) {
	if reg == nil {
		labelPhase(name, f)
		return
	}
	start := time.Now()
	labelPhase(name, f)
	reg.Phase(name).Add(time.Since(start))
}

package pipeline

import (
	"cmp"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/stats"
)

// Causes is the CPI stack: each core-cycle is charged to exactly one of them
// (retire), so over a run they sum to cores × cycles.
var Causes = []string{"stall.base", "stall.frontend", "stall.exec", "stall.retire_load",
	"stall.fence", "stall.dom_miss", "stall.stt_tainted", "stall.retire_expose",
	"stall.wb_full", "stall.wb_drain", "stall.barrier", "stall.lock"}

// heldCause is the cause of a load the scheme's gate held (hold).
var heldCause = [defense.RCP + 1]string{defense.Fence: "stall.fence", defense.DOM: "stall.dom_miss", defense.STT: "stall.stt_tainted"}

// coreCounters holds pre-bound stats.Counters handles for every counter
// the core touches on the cycle path. Binding once in NewCore turns each
// per-cycle Inc from a string-keyed map operation (~15% of simulation CPU
// in the pre-optimization profile) into a pointer increment. The names
// here must stay in sync with the strings they replace: a handle never
// incremented leaves no trace in enumerated output, so binding extra
// names is harmless, but incrementing the wrong one changes statistics.
// The causes and the other per-cycle tallies (a dispatch stall, a pin
// governor stall) move only through Core.charge.
type coreCounters struct {
	dispatched     *uint64
	retired        *uint64
	squashedInsts  *uint64
	squash         [obs.CauseFault + 1]*uint64 // by cause; squash[obs.CauseNone] is nil
	squashFaultTkn *uint64

	stallBase         *uint64
	stallFrontend     *uint64
	stallExec         *uint64
	stallRetireLoad   *uint64
	stallHeld         *uint64 // the scheme's heldCause
	stallRetireExpose *uint64
	stallWBFull       *uint64
	stallWBDrain      *uint64
	stallBarrier      *uint64
	stallLock         *uint64

	stallROBFull *uint64
	stallLQFull  *uint64
	stallSQFull  *uint64

	loadsPerformed       *uint64
	loadsForwarded       *uint64
	loadsForwardedWB     *uint64
	loadsIssued          *uint64
	loadsIssuedInvisible *uint64
	loadsIssuedSpec      *uint64
	loadsSpecRevalidated *uint64
	loadsDOMHit          *uint64
	loadsSTTUntainted    *uint64
	loadsExposed         *uint64
	loadsExposeSkipped   *uint64

	pinPinned       *uint64
	pinStallCPT     *uint64
	pinStallCPTFull *uint64
	pinStallWB      *uint64
	pinStallL1Set   *uint64
	pinStallCST     *uint64
	pinWraparound   *uint64
	cptOverflow     *uint64

	storesMerged   *uint64
	storesOwned    *uint64
	storesDeferred *uint64
}

// bindCoreCounters binds the handles of a core under the scheme.
func bindCoreCounters(ct *stats.Counters, scheme defense.Scheme) coreCounters {
	h := ct.Handle
	return coreCounters{
		dispatched:    h("dispatched"),
		retired:       h("retired"),
		squashedInsts: h("squashed_insts"),
		squash: [...]*uint64{
			obs.CauseBranch: h("squash.branch"),
			obs.CauseAlias:  h("squash.alias"),
			obs.CauseMCV:    h("squash.mcv"),
			obs.CauseFault:  h("squash.fault"),
		},
		squashFaultTkn: h("squash.fault_taken"),

		stallBase:         h("stall.base"),
		stallFrontend:     h("stall.frontend"),
		stallExec:         h("stall.exec"),
		stallRetireLoad:   h("stall.retire_load"),
		stallHeld:         h(cmp.Or(heldCause[scheme], "stall.retire_load")),
		stallRetireExpose: h("stall.retire_expose"),
		stallWBFull:       h("stall.wb_full"),
		stallWBDrain:      h("stall.wb_drain"),
		stallBarrier:      h("stall.barrier"),
		stallLock:         h("stall.lock"),

		stallROBFull: h("stall.rob_full"),
		stallLQFull:  h("stall.lq_full"),
		stallSQFull:  h("stall.sq_full"),

		loadsPerformed:       h("loads.performed"),
		loadsForwarded:       h("loads.forwarded"),
		loadsForwardedWB:     h("loads.forwarded_wb"),
		loadsIssued:          h("loads.issued"),
		loadsIssuedInvisible: h("loads.issued_invisible"),
		loadsIssuedSpec:      h("loads.issued_spec"),
		loadsSpecRevalidated: h("loads.spec_revalidated"),
		loadsDOMHit:          h("loads.dom_hit"),
		loadsSTTUntainted:    h("loads.stt_untainted"),
		loadsExposed:         h("loads.exposed"),
		loadsExposeSkipped:   h("loads.expose_skipped"),

		pinPinned:       h("pin.pinned"),
		pinStallCPT:     h("pin.stall_cpt"),
		pinStallCPTFull: h("pin.stall_cpt_full"),
		pinStallWB:      h("pin.stall_wb"),
		pinStallL1Set:   h("pin.stall_l1set"),
		pinStallCST:     h("pin.stall_cst"),
		pinWraparound:   h("pin.wraparound"),
		cptOverflow:     h("cpt.overflow"),

		storesMerged:   h("stores.merged"),
		storesOwned:    h("stores.owned"),
		storesDeferred: h("stores.deferred"),
	}
}

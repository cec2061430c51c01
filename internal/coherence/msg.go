// Package coherence implements the simulated memory system: private L1 data
// caches and an 8-slice shared, inclusive LLC with an embedded directory,
// connected by a mesh and kept coherent with a directory-based MESI
// protocol.
//
// On top of the conventional protocol, the package implements the Pinned
// Loads extensions of the ASPLOS 2022 paper:
//
//   - the modified write transaction (Figure 3): a sharer with a pinned
//     line replies Defer instead of invalidating, and the writer Aborts the
//     transaction at the directory and retries;
//   - the starvation-avoidance transaction (Figure 5): a previously
//     deferred writer retries with GetX*, whose Inv* messages make every
//     sharer insert the line into its Cannot-Pin Table, and a successful
//     write triggers Clear messages that remove those entries;
//   - denial of L1 and directory/LLC evictions of pinned lines, with
//     replacement-state refresh and victim reselection (Section 5.1.3).
//
// The pipeline side (pinned-line records, load-queue snooping, MCV
// squashes, CPT bookkeeping) is reached through the CoreHooks interface so
// that this package stays independent of the pipeline implementation.
package coherence

import "fmt"

// Kind identifies a protocol message type.
type Kind uint8

const (
	// kindNone is the zero value and never sent.
	kindNone Kind = iota

	// --- L1 -> directory requests ---

	// GetS requests a read-only (or exclusive-clean) copy.
	GetS
	// GetX requests write permission (and data if needed).
	GetX
	// GetXStar is the retry variant of GetX after a deferral; its
	// invalidations are Inv* and make sharers insert the line into their
	// Cannot-Pin Tables (paper Section 5.1.5).
	GetXStar
	// PutM writes back a dirty owned line being evicted from an L1.
	PutM
	// Unblock completes a successful write transaction at the directory.
	Unblock
	// Abort cancels a write transaction whose invalidation was deferred.
	Abort

	// --- directory -> L1 responses and probes ---

	// DataS grants a shared copy.
	DataS
	// DataE grants an exclusive clean copy (no other sharers).
	DataE
	// DataX grants write permission; Acks carries the number of sharer
	// responses (InvAck or Defer) the requestor must collect.
	DataX
	// Inv asks a sharer to invalidate; the sharer answers the requestor
	// (Requestor field) with InvAck or Defer.
	Inv
	// InvStar is Inv for a GetXStar transaction: the sharer also inserts
	// the line into its CPT.
	InvStar
	// FwdGetS asks the owner to send data to the requestor and downgrade
	// to Shared, writing back to the directory.
	FwdGetS
	// FwdGetX asks the owner to send data to the requestor and
	// invalidate; the owner may Defer if the line is pinned.
	FwdGetX
	// FwdGetXStar is FwdGetX for a GetXStar transaction (CPT insertion).
	FwdGetXStar
	// Clear tells former sharers to remove the line from their CPTs
	// after a starved write finally succeeded.
	Clear
	// Nack rejects a request to a busy line; the requestor retries.
	Nack
	// PutMAck acknowledges a PutM, freeing the L1's evict buffer entry.
	PutMAck
	// Recall asks an L1 to drop its copy so the LLC/directory can evict
	// the line; the L1 may Defer (RecallDefer) if the line is pinned.
	Recall

	// --- L1 -> requestor L1 responses ---

	// InvAck acknowledges an Inv/InvStar; Data is set when the former
	// owner forwards the line.
	InvAck
	// Defer denies an invalidation because the line is pinned.
	Defer

	// --- L1 -> directory recall responses ---

	// RecallAck acknowledges a Recall (copy dropped).
	RecallAck
	// RecallDefer denies a Recall because the line is pinned.
	RecallDefer

	// --- directory downgrade writeback ---

	// WBShared is the owner's writeback to the directory when
	// downgrading to Shared on a FwdGetS.
	WBShared

	// --- invisible speculation (InvisiSpec-style IS scheme) ---

	// GetSInv requests the line's data without changing any coherence
	// state: the directory neither records a sharer nor allocates on
	// miss, so the access leaves no footprint an attacker could observe.
	GetSInv
	// DataInv returns data for a GetSInv; the requestor does not install
	// it in its cache.
	DataInv

	// --- reversible speculation (RCP scheme) ---

	// GetSSpec requests data for a pre-VP load under the reversible
	// coherence protocol. The directory registers the requestor as a
	// sharer only when it can do so reversibly (no eviction, no owner
	// disturbance) and serves the data statelessly otherwise. Spec
	// requests bypass the directory's demand-port budget — the protocol
	// reserves a virtual network for them — so they cause no port
	// interference an attacker could time.
	GetSSpec
	// DataSpecS answers a GetSSpec whose sharer registration succeeded;
	// the L1 may install the line into an invalid way. Acks is 1 when the
	// sharer bit was newly set (and must be reversed on squash), 0 when
	// it was already set before the request.
	DataSpecS
	// DataSpecInv answers a GetSSpec served statelessly: no directory
	// state was touched and the L1 must not install the line.
	DataSpecInv
	// SpecUndo reverses a speculative sharer registration after the
	// requesting load was squashed: the sharer bit clears, and a
	// spec-born LLC line with no remaining references is removed.
	SpecUndo
	// SpecCommit finalizes a speculative registration when the load
	// retires: the spec-born mark clears and replacement state is touched
	// (the LRU update deferred at access time).
	SpecCommit
	// MemRespSpec completes a stateless DRAM fetch for a GetSSpec that
	// could not allocate an invalid LLC way.
	MemRespSpec

	// --- self-scheduled events ---

	// MemResp is the directory's DRAM fetch completion.
	MemResp
	// MemRespInv completes a stateless DRAM fetch for a GetSInv.
	MemRespInv
	// SelfRetry re-attempts a previously blocked operation at an L1
	// (write retry after backoff, request retry after a Nack).
	SelfRetry
	// SelfDone completes a local L1 access after its hit latency.
	SelfDone

	// numKinds sizes dense per-Kind arrays (fabric traffic counters);
	// keep it last.
	numKinds
)

var kindNames = map[Kind]string{
	GetS: "GetS", GetX: "GetX", GetXStar: "GetX*", PutM: "PutM",
	Unblock: "Unblock", Abort: "Abort", DataS: "DataS", DataE: "DataE",
	DataX: "DataX", Inv: "Inv", InvStar: "Inv*", FwdGetS: "FwdGetS",
	FwdGetX: "FwdGetX", FwdGetXStar: "FwdGetX*", Clear: "Clear",
	Nack: "Nack", PutMAck: "PutMAck", Recall: "Recall", InvAck: "InvAck",
	Defer: "Defer", RecallAck: "RecallAck", RecallDefer: "RecallDefer",
	WBShared: "WBShared", MemResp: "MemResp", SelfRetry: "SelfRetry",
	SelfDone: "SelfDone", GetSInv: "GetSInv", DataInv: "DataInv",
	MemRespInv: "MemRespInv", GetSSpec: "GetSSpec", DataSpecS: "DataSpecS",
	DataSpecInv: "DataSpecInv", SpecUndo: "SpecUndo",
	SpecCommit: "SpecCommit", MemRespSpec: "MemRespSpec",
}

// String returns the protocol name of the message kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// isData reports whether the message carries a full cache line.
func (k Kind) isData() bool {
	switch k {
	case DataS, DataE, DataX, PutM, WBShared, DataInv, DataSpecS, DataSpecInv:
		return true
	}
	return false
}

// Addr identifies a protocol participant: an L1 (core index) or a
// directory/LLC slice.
type Addr struct {
	Dir bool
	Idx int
}

// String renders the participant address.
func (a Addr) String() string {
	if a.Dir {
		return fmt.Sprintf("dir%d", a.Idx)
	}
	return fmt.Sprintf("l1-%d", a.Idx)
}

// Msg is one protocol message.
type Msg struct {
	Kind Kind
	Line uint64
	Src  Addr
	Dst  Addr
	// Acks is the sharer-response count the requestor must collect
	// (DataX) or a generic small payload for self events.
	Acks int
	// Requestor is the L1 that sharers must answer for Inv/InvStar, and
	// the original requestor recorded in forwarded messages.
	Requestor int
	// Star marks messages belonging to a GetX* transaction.
	Star bool
	// Token carries an L1-local identifier for self events.
	Token int64
}

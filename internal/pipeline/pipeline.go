// Package pipeline models one out-of-order core: an 8-issue machine with a
// 192-entry ROB, load/store queues, a post-retirement write buffer, branch
// and memory-dependence speculation with full squash/rollback, TSO memory-
// consistency enforcement (loads squashed when their line is invalidated or
// evicted before retirement), the defense-scheme load gating of the paper's
// Table 2 (Fence, Delay-On-Miss, STT), and the Pinned Loads machinery:
// the in-order pin governor, the write-buffer deadlock check, the Cache
// Shadow Tables of Early Pinning, and the Cannot-Pin Table.
package pipeline

import (
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pin"
	"pinnedloads/internal/ringq"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// entry state machine values.
const (
	stWaiting  uint8 = iota // deps outstanding
	stReady                 // in the ready queue
	stExec                  // executing (completion scheduled)
	stAddrDone              // load: address generated, waiting to issue
	stIssued                // load: access outstanding in the memory system
	stDone                  // result produced (loads: data received)
)

// The completion calendar has one slot per cycle of the longest execution
// latency; 64 slots make its occupancy one machine word (Core.calMask).
const (
	calSlots    = 64
	calSlotMask = calSlots - 1
)

// ref names a ROB entry robustly across squashes: seq alone can be reused
// after a squash refetches into the same slot, so gen (a global dispatch
// counter value) disambiguates generations.
type ref struct {
	seq int64
	gen uint64
}

// entry is one ROB slot.
type entry struct {
	inst   isa.Inst
	seq    int64  // ROB sequence number; also encodes program order
	gen    uint64 // dispatch generation, unique per dispatched instruction
	winIdx int64  // correct-path window index, -1 for wrong-path entries
	wrong  bool   // fetched down a mispredicted path

	state    uint8
	depsLeft int8
	wake     []ref // consumers to notify at completion

	// Memory state.
	addrReady bool
	performed bool
	forwarded bool
	pinned    bool
	// invisible marks a load that performed via an InvisiSpec-style
	// stateless access; exposeDone records that its post-VP exposure
	// access completed (required before retirement).
	invisible  bool
	exposeDone bool
	// pinSafe marks a load that is MCV-safe without being pinned: it has
	// been the oldest load in the ROB (the aggressive TSO implementation).
	pinSafe bool
	line    uint64
	token   int64
	// specToken identifies the load's reversible speculative access (RCP
	// scheme) at the L1; it outlives token so retirement can commit — and
	// a squash reverse — the journaled cache/directory state.
	specToken int64
	// archAddr preserves a load's architectural address while inst.Addr
	// holds the effective (possibly transient) one; see effectiveAddr.
	archAddr uint64

	// Control state.
	resolved bool

	// VP / STT state.
	vpReached bool
	yroot     int64 // youngest load ancestor's seq, -1 if none
	lqTag     uint32

	// lockIssued marks a Lock whose read-modify-write is in flight.
	lockIssued bool
	// held marks a load the scheme's gate denied short of its VP (hold).
	held bool

	// Delay-On-Miss probe memo (derived, never serialized): the L1 Probe
	// verdict for probeLine as of tag epoch probeEpoch (0 = none); see
	// domProbe.
	probeEpoch uint64
	probeLine  uint64
	probeHit   bool
}

func (e *entry) isLoad() bool  { return e.inst.Op == isa.Load }
func (e *entry) isStore() bool { return e.inst.Op == isa.Store }

// BarrierSync coordinates isa.Barrier instructions across cores: a barrier
// retires only once every core has reached the same barrier index.
type BarrierSync struct {
	cores   int
	reached []int64
	// epoch counts arrivals that moved reached: a core stalled at a barrier
	// re-evaluates only when it changes (derived, never serialized).
	epoch uint64
}

// NewBarrierSync returns a synchronizer for n cores.
func NewBarrierSync(n int) *BarrierSync {
	return &BarrierSync{cores: n, reached: make([]int64, n)}
}

// arrive records that core has reached its k-th barrier and reports whether
// all cores have reached barrier k.
func (b *BarrierSync) arrive(core int, k int64) bool {
	if b.reached[core] < k {
		b.reached[core] = k
		b.epoch++
	}
	for _, r := range b.reached {
		if r < k {
			return false
		}
	}
	return true
}

// Core is one simulated out-of-order core.
type Core struct {
	id     int
	cfg    *arch.Config
	policy defense.Policy
	l1     *coherence.L1
	gen    trace.Generator
	bar    *BarrierSync
	cnt    coreCounters // pre-bound handles for cycle-path counters

	// rec receives structured trace events; tracing caches rec.Enabled()
	// so disabled runs pay only a branch on a local bool per event site.
	rec     obs.Recorder
	tracing bool

	now int64

	// ROB ring. entries[seq % len] is valid for head <= seq < tail;
	// headSlot caches head % len so at() indexes without a divide.
	entries  []entry
	head     int64
	tail     int64
	headSlot int

	// Occupancy: the load queue's (loads and locks) and the unretired ops of
	// each kind in program order. These, the candidate lists and the pinned
	// lines below are indexes over the ROB, maintained at the transitions
	// that change them and rebuilt (never serialized) on restore.
	loadsInROB int
	fences     seqList // unretired Fence/Lock/Barrier ops
	loadSeqs   seqList // unretired Loads
	storeSeqs  seqList // unretired Stores
	// perfLines holds the lineBit of every performed, unretired load's line
	// and maybe stale ones: OnInvalidate walks loadSeqs only for a set bit,
	// and a walk that squashes nothing drops the stale bits.
	perfLines uint64

	// Load-queue candidate lists: the subsets of loadSeqs the three
	// per-cycle LQ stages act on, in program order, so each stage visits
	// only loads that can act and says "nothing to do" in O(1).
	issueCand  seqList // state == stAddrDone: waiting to access memory (issueLoads)
	exposeCand seqList // invisible, performed, no exposure issued yet (exposeLoads, IS)
	specCand   seqList // performed reversibly on transient operands (validateSpecLoads, RCP)

	// Frontend.
	window     []isa.Inst
	windowBase int64 // stream index of window[0]
	fetchPtr   int64 // next correct-path stream index to dispatch
	wrongMode  bool
	stallUntil int64
	halted     bool
	haltCycle  int64

	// Execution.
	readyQ   []ref
	calendar [calSlots][]ref // completion calendar, indexed by cycle%calSlots
	genNext  uint64          // dispatch generation counter

	// Retirement counters.
	retired     int64
	barriersHit int64

	// Write buffer (retired stores, FIFO of byte addresses).
	wb ringq.Q[uint64]

	// Memory tokens name their load by ROB slot: the nth access the core
	// issues carries n·ROBEntries + slot (nextToken counts them), so a
	// delivery finds its load without an index (LoadDone).
	nextToken int64

	// Pinned Loads state. pinnedLines holds the pinned loads' lines in pin
	// (program) order: the load queue's pinned bits, oldest first (tagLive).
	// It is the core's only pin record; the set room checks walk it
	// (pinnedInSets).
	pinnedLines ringq.Q[uint64]
	pinFrontier int64 // next seq to consider for pinning
	l1CST       *pin.CST
	dirCST      *pin.CST
	cpt         *pin.CPT
	lqTagNext   uint64 // monotonic LQ ID source
	lqTagMask   uint32
	wrapStall   bool // LQ ID wrapped: stop pinning until pinned drain

	// VP frontier: all entries with seq < vpFrontier satisfy the active
	// condition mask's prefix requirements. pinVPFrontier is the same
	// with the MCV condition excluded (pin eligibility), and
	// pinPendingSeq is the Late Pinning load allowed to issue this cycle.
	vpFrontier    int64
	pinVPFrontier int64
	pinPendingSeq int64

	// doneCycle is set when the core first reaches its retirement target.
	target    int64
	doneCycle int64

	// lastRetiredWin checks retirement continuity: every correct-path
	// instruction must retire exactly once, in stream order.
	lastRetiredWin int64

	// Quiescent-core sleep (sleep.go), all derived and never serialized.
	// active is raised during a tick by every site that changes simulated
	// state the scalars in wire do not show; charges holds the last
	// evaluated tick's charges, which a sleeping core replays; asleep says
	// that tick was quiet; calMask has bit s set while calendar[s] holds an
	// event; barrierSeen is the barrier epoch as of the last evaluated tick;
	// slept counts replayed cycles.
	active      bool
	asleep      bool
	wire        tripwire
	charges     [maxCharges]*uint64
	nCharges    int
	calMask     uint64
	barrierSeen uint64
	slept       int64

	// Load issue (mem.go), all derived and never serialized. lastOdd is at or
	// above the seq of every in-flight load with inst.Fault or a
	// TransientAddr (-1: none), which issueLoads always walks; stFilter counts
	// the resolved in-flight store addresses by hash, SQ and write buffer
	// together; freshFrom is the oldest load that became an issue candidate
	// since Fence's last issue stage (holdPastBound; 0: look at every one);
	// gateVisits and forwardScans count host work.
	lastOdd      int64
	stFilter     [256]uint16
	freshFrom    int64
	gateVisits   int64
	forwardScans int64
}

// NewCore builds a core attached to an L1 and a workload generator.
func NewCore(id int, cfg *arch.Config, policy defense.Policy, l1 *coherence.L1,
	gen trace.Generator, bar *BarrierSync, count *stats.Counters) *Core {
	c := &Core{
		id:             id,
		cfg:            cfg,
		policy:         policy,
		l1:             l1,
		gen:            gen,
		bar:            bar,
		cnt:            bindCoreCounters(count, policy.Scheme),
		rec:            obs.Nop,
		entries:        make([]entry, cfg.ROBEntries),
		fences:         newSeqList(cfg.ROBEntries),
		loadSeqs:       newSeqList(cfg.LQEntries),
		storeSeqs:      newSeqList(cfg.SQEntries),
		issueCand:      newSeqList(cfg.LQEntries),
		exposeCand:     newSeqList(cfg.LQEntries),
		specCand:       newSeqList(cfg.LQEntries),
		lqTagMask:      uint32(1)<<uint(cfg.LQIDTagBits) - 1,
		doneCycle:      -1,
		haltCycle:      -1,
		pinPendingSeq:  -1,
		lastRetiredWin: -1,
		lastOdd:        -1,
	}
	if policy.Pinning() {
		c.cpt = pin.NewCPT(cfg.CPTEntries)
	}
	if policy.Variant == defense.EP && !cfg.InfiniteCST {
		c.l1CST = pin.NewCST(cfg.L1CSTEntries, cfg.L1CSTRecords)
		c.dirCST = pin.NewCST(cfg.DirCSTEntries, cfg.DirCSTRecords)
	}
	l1.SetHooks(c)
	return c
}

// at returns the ROB entry for seq, which must satisfy head <= seq < tail:
// the slot is found relative to the head's, without dividing, so a stale seq
// would name another instruction's entry. Callers holding a seq that may
// have been squashed or retired check valid (or deref) first.
func (c *Core) at(seq int64) *entry {
	s := c.headSlot + int(seq-c.head)
	if s >= len(c.entries) {
		s -= len(c.entries)
	}
	return &c.entries[s]
}

// awaitIssue puts a load in stAddrDone, where issueLoads picks it up.
func (c *Core) awaitIssue(e *entry) {
	e.state = stAddrDone
	c.issueCand.insert(e.seq)
	c.freshFrom = min(c.freshFrom, e.seq)
}

// valid reports whether seq names a live ROB entry.
func (c *Core) valid(seq int64) bool { return seq >= c.head && seq < c.tail }

// SetRecorder attaches an event recorder to the core (and its L1). Call it
// before the first Tick; the enabled state is cached for the whole run.
func (c *Core) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	c.rec = r
	c.tracing = r.Enabled()
	c.l1.SetRecorder(r)
	c.wake()
}

// Retired returns the number of retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// SetTarget arms completion detection at the given retired-instruction
// count; DoneCycle reports when it was reached. Re-arming the same target
// is a no-op, so a restored core keeps its recorded completion cycle when
// the run re-enters the phase it was checkpointed in.
func (c *Core) SetTarget(n int64) {
	if c.target == n {
		return
	}
	c.target = n
	c.doneCycle = -1
	c.wake()
}

// DoneCycle returns the cycle the retirement target was reached, or -1.
func (c *Core) DoneCycle() int64 { return c.doneCycle }

// Halted reports whether the workload ended and the pipeline drained.
func (c *Core) Halted() bool { return c.halted && c.head == c.tail }

// HaltCycle returns the cycle the core halted (workload ended and pipeline
// drained), or -1 if it has not. The security oracle compares per-core
// halt cycles between runs: a shift is a timing leak.
func (c *Core) HaltCycle() int64 { return c.haltCycle }

// CPT returns the core's Cannot-Pin Table (nil without pinning).
func (c *Core) CPT() *pin.CPT { return c.cpt }

// CSTs returns the Early Pinning shadow tables (nil otherwise).
func (c *Core) CSTs() (l1, dir *pin.CST) { return c.l1CST, c.dirCST }

// Tick advances the core by one cycle and charges the cycle to one cause
// (retire). The memory system must have been ticked for the same cycle
// first. A sleeping core with no input due only replays its charges
// (sleep.go).
func (c *Core) Tick(now int64) {
	c.now = now
	input := c.inputDue(now)
	if c.asleep && !input {
		c.sleepThrough(1)
		return
	}
	// Only a tick that starts with no input and an empty ready queue can be
	// quiet; it alone pays for the tripwire.
	watched := !input && len(c.readyQ) == 0
	if watched {
		c.arm()
	}
	c.active = false
	c.nCharges = 0
	c.complete()
	c.advanceVP()
	c.pinGovernor()
	c.validateSpecLoads()
	c.issueLoads()
	c.exposeLoads()
	c.execute()
	c.charge(c.retire())
	c.drainWriteBuffer()
	c.dispatch()
	if c.cpt != nil {
		c.cpt.Sample()
	}
	if c.target > 0 && c.doneCycle < 0 && c.retired >= c.target {
		c.doneCycle = now
		c.active = true
	}
	if c.haltCycle < 0 && c.halted && c.head == c.tail {
		c.haltCycle = now
		c.active = true
	}
	c.settle(watched)
}

// fail panics with core context; used for invariant violations.
func (c *Core) fail(format string, args ...any) {
	panic(fmt.Sprintf("core %d @%d: %s", c.id, c.now, fmt.Sprintf(format, args...)))
}

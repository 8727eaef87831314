package radio

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// wheelSlots is the span of the scheduler's calendar wheel: requests
// fewer than wheelSlots slots past the last resolved slot go into its
// buckets, later ones into the far heap. One occupancy word marks the
// non-empty buckets, so the span is the word size.
const wheelSlots = 64

// farEntry is one pending request in the far min-heap. Each device has
// at most one current request, so the heap holds at most n of them. A
// listen run that a delivery ends before its far filing leaves that
// entry behind until it comes due (see current), so those can grow the
// heap past n.
type farEntry struct {
	slot uint64
	dev  int32
}

// Simulator is a reusable execution engine bound to one topology. It
// preallocates every per-device structure — envs, action lanes, random
// streams, the scheduler's wheel, far heap and scratch — once, so that
// repeated runs on the same graph (Monte-Carlo trials, benchmark
// iterations) stop churning the allocator: a run allocates one Result
// and its counter backing array, nothing else.
//
// Per-device action state lives in structure-of-arrays lanes (slot,
// kind, payload, feedback, error) rather than a padded per-device
// struct: with every proc stepped on the scheduler goroutine there is
// no cross-goroutine sharing to pad against, and the cohort loops scan
// each lane contiguously.
//
// Pending requests wait in a calendar wheel of wheelSlots buckets, one
// per slot in [now, now+wheelSlots), where now is the slot of the
// latest cohort. A bucket is a bitset over the devices, ⌈n/64⌉ words,
// and bit order is device order, so a bucket read out with a bit scan
// is already the cohort in ascending device order. Requests wheelSlots
// or more slots ahead wait in the far min-heap and move into the wheel
// once now comes within wheelSlots of them.
//
// A listen run is parked after its first slot when the run has no
// trace sink and no crash or sleep fault: it is filed once, for its
// last slot, and a transmitter wakes its parked neighbours into the
// slot's cohort. A parked member hears silence in every slot it is not
// visited in, and is charged those slots in one step when it is woken
// or its run ends. A delivery to a woken member ends its run before
// its filing, which is then withdrawn from the wheel or dropped from
// the far heap when it comes due.
//
// A Simulator is NOT safe for concurrent use; run one per goroutine
// (internal/sweep keeps one cache per worker). Determinism is untouched
// by reuse: every run fully reseeds and resets the per-device state, so
// a run yields the byte-identical event stream whether the Simulator is
// fresh or recycled.
type Simulator struct {
	g    *graph.Graph
	off  []int32 // CSR row offsets, shared with g
	adj  []int32 // CSR neighbor array, shared with g
	n    int
	base Config // template captured by NewSimulator (Seed overridden per run)

	// per-run binding (scalars from the run's Config).
	model     Model
	trace     func(Event)
	maxSlots  uint64
	maxEvents uint64
	idSpace   int
	ids       []int

	// fault injection (see internal/fault). fplan is the run's bound
	// decision procedure; the three booleans cache its kind so the hot
	// loops pay one predictable branch when faults are off. sleepUntil[v]
	// is the first slot after v's current sleep window (0 = not asleep).
	fplan      fault.Plan
	faultCrash bool
	faultSleep bool
	faultLoss  bool
	sleepUntil []uint64

	// park is set when the run parks listen runs: it has no trace sink
	// and no crash or sleep fault, the two things that need each slot
	// of a run visited. parked counts the members flagged actParked.
	park   bool
	parked int

	// preallocated machinery. slots/runEnd/kinds/payloads/fbs/errs are
	// the per-device action lanes: the device's pending request, from
	// its first to its last slot (written by stepDevice; a parked listen
	// run keeps its first uncharged slot in slots), and its feedback for
	// the next step (written by the cohort resolution).
	envs     []Env
	pcgs     []rand.PCG
	slots    []uint64
	runEnd   []uint64 // last slot of the current action's run
	kinds    []actionKind
	payloads []any // in-flight transmit payloads (cleared when the action ends)
	fbs      []Feedback
	errs     []error
	// scheduler: the calendar wheel (bucket b holds the requests for the
	// slot in [now, now+wheelSlots) congruent to b, in words words), its
	// occupancy word (bit b set iff bucket b is non-empty), the latest
	// cohort's slot and the far heap.
	wheel      []uint64
	words      int
	occ        uint64
	now        uint64
	far        []farEntry
	cohort     []int32
	awaiting   []int32 // devices whose next action the scheduler is waiting on
	txs        []int32 // per-listener scratch: transmitting neighbors
	lastTxSlot []uint64
	procs      []Proc // per-run device step machines
	intBox     []any  // lazily grown boxed-integer interning table (BoxInt)

	running atomic.Bool

	res *Result // current run's result, owned by the scheduler loop

	// loop state, shared by the two halves of a scheduler round (gather
	// and resolveSlot).
	live     int   // devices not yet halted
	firstErr error // first device error, reported when the run ends

	// Result arena: per-run Results and their counter backing arrays are
	// carved out of batch-allocated chunks (see newResult), amortizing
	// the two per-run allocations a recycled Simulator used to make
	// across ~a chunk's worth of Monte-Carlo trials.
	resArena   []int
	resStructs []Result
}

// NewSimulator builds a reusable engine for g. cfg provides the run
// template: model, budgets, ID assignment, and trace sink; its
// Graph field is ignored in favor of g and its Seed is overridden by
// each run call. The per-run scalars can also be rebound wholesale by
// the package-level RunDevices with a SimCache.
func NewSimulator(g *graph.Graph, cfg Config) (*Simulator, error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("radio: nil or empty graph")
	}
	n := g.N()
	off, adj := g.CSR()
	s := &Simulator{
		g:          g,
		off:        off,
		adj:        adj,
		n:          n,
		base:       cfg,
		ids:        make([]int, n),
		envs:       make([]Env, n),
		pcgs:       make([]rand.PCG, n),
		slots:      make([]uint64, n),
		runEnd:     make([]uint64, n),
		kinds:      make([]actionKind, n),
		payloads:   make([]any, n),
		fbs:        make([]Feedback, n),
		errs:       make([]error, n),
		wheel:      make([]uint64, wheelSlots*((n+63)/64)),
		words:      (n + 63) / 64,
		far:        make([]farEntry, 0, n),
		cohort:     make([]int32, 0, n),
		awaiting:   make([]int32, 0, n),
		txs:        make([]int32, 0, 8),
		lastTxSlot: make([]uint64, n),
		sleepUntil: make([]uint64, n),
		procs:      make([]Proc, n),
	}
	s.base.Graph = g
	for v := 0; v < n; v++ {
		s.envs[v] = Env{
			sim:   s,
			index: v,
			rand:  rand.New(&s.pcgs[v]),
		}
	}
	return s, nil
}

// RunDevices executes one device per vertex under the Simulator's
// template config with the given seed, reusing every preallocated
// structure. The returned Result is freshly allocated and remains valid
// across later runs. Procs are single-use state machines: pass freshly
// initialized ones per run. Feedback lifetime contract: in the Local
// model the Payloads slice handed to a device is a per-device buffer
// valid until that device's next channel action — copy it to retain it.
func (s *Simulator) RunDevices(seed uint64, devs []Device) (*Result, error) {
	cfg := s.base
	cfg.Seed = seed
	return s.run(cfg, devs)
}

// bind installs one run's scalar configuration, validating exactly as the
// original one-shot engine did.
func (s *Simulator) bind(cfg Config) error {
	s.model = cfg.Model
	s.trace = cfg.Trace
	s.maxSlots = cfg.MaxSlots
	if s.maxSlots == 0 {
		s.maxSlots = 1 << 40
	}
	s.maxEvents = cfg.MaxEvents
	if s.maxEvents == 0 {
		s.maxEvents = 1 << 28
	}
	if err := cfg.Fault.Validate(); err != nil {
		return fmt.Errorf("radio: %w", err)
	}
	s.fplan = cfg.Fault.Plan(cfg.Seed)
	s.faultCrash = s.fplan.Kind() == fault.Crash
	s.faultSleep = s.fplan.Kind() == fault.Sleep
	s.faultLoss = s.fplan.Kind() == fault.Loss
	s.park = cfg.Trace == nil && !s.faultCrash && !s.faultSleep
	s.idSpace = cfg.IDSpace
	if cfg.IDSpace > 0 {
		if cfg.IDs != nil {
			if len(cfg.IDs) != s.n {
				return fmt.Errorf("radio: %d IDs for %d vertices", len(cfg.IDs), s.n)
			}
			seen := make(map[int]bool, s.n)
			for _, id := range cfg.IDs {
				if id < 1 || id > cfg.IDSpace {
					return fmt.Errorf("radio: ID %d outside {1..%d}", id, cfg.IDSpace)
				}
				if seen[id] {
					return fmt.Errorf("radio: duplicate ID %d", id)
				}
				seen[id] = true
			}
			copy(s.ids, cfg.IDs)
		} else {
			if cfg.IDSpace < s.n {
				return fmt.Errorf("radio: IDSpace %d < n %d", cfg.IDSpace, s.n)
			}
			for i := range s.ids {
				s.ids[i] = i + 1
			}
		}
	} else {
		for i := range s.ids {
			s.ids[i] = 0
		}
	}
	return nil
}

// run resets all reusable state, installs the device population, and
// drives the scheduler loop to completion.
func (s *Simulator) run(cfg Config, devs []Device) (*Result, error) {
	if !s.running.CompareAndSwap(false, true) {
		return nil, errors.New("radio: Simulator used concurrently")
	}
	defer s.running.Store(false)
	res, err := s.prepare(cfg, devs)
	if err != nil {
		return nil, err
	}
	// A scheduler-side panic (e.g. a user Trace callback) must not
	// poison the Simulator for reuse: drop the run's references, then
	// let the panic surface.
	defer func() {
		if r := recover(); r != nil {
			s.finish()
			panic(r)
		}
	}()
	err = s.loop()
	s.finish()
	return res, err
}

// prepare validates one run's configuration and population and resets
// every reusable structure, leaving the Simulator ready for its first
// gather round. The returned Result is the run's output, already carved
// from the arena.
func (s *Simulator) prepare(cfg Config, devs []Device) (*Result, error) {
	if len(devs) != s.n {
		return nil, fmt.Errorf("radio: %d devices for %d vertices", len(devs), s.n)
	}
	for v := range devs {
		if devs[v].Proc == nil {
			return nil, fmt.Errorf("radio: device %d has no Proc", v)
		}
	}
	if err := s.bind(cfg); err != nil {
		return nil, err
	}
	n := s.n
	res := s.newResult()
	s.res = res
	// An aborted run can leave requests behind in the wheel (run members
	// filed for the next slot among them) and the far heap, and listen
	// runs parked; the occupancy word says which buckets to clear, and
	// the kinds reset below clears the parked flags.
	for occ := s.occ; occ != 0; occ &= occ - 1 {
		b := bits.TrailingZeros64(occ)
		clear(s.wheel[b*s.words : (b+1)*s.words])
	}
	s.occ, s.now = 0, 0
	s.far = s.far[:0]
	s.parked = 0
	s.cohort = s.cohort[:0]
	s.awaiting = s.awaiting[:0]
	for v := 0; v < n; v++ {
		s.slots[v], s.runEnd[v], s.kinds[v], s.payloads[v], s.fbs[v], s.errs[v] = 0, 0, actNone, nil, Feedback{}, nil
		s.lastTxSlot[v] = 0
		s.sleepUntil[v] = 0
		e := &s.envs[v]
		e.now = 0
		e.devID = s.ids[v]
		clearAny(e.pbuf)
		rng.ReseedChild(&s.pcgs[v], cfg.Seed, uint64(v))
		s.procs[v] = devs[v].Proc
		s.awaiting = append(s.awaiting, int32(v))
	}
	s.live = n
	s.firstErr = nil
	return res, nil
}

// finish drops the run's references so a recycled Simulator does not pin
// the previous run's result or device state machines.
func (s *Simulator) finish() {
	s.res = nil
	for v := range s.procs {
		s.procs[v] = nil
	}
}

// resultChunkBytes sizes the Result arena chunks: enough counter words
// for ~a hundred small-graph runs per allocation without any chunk
// growing past a quarter megabyte on large graphs.
const resultChunkBytes = 1 << 18

// newResult carves one run's Result — the struct and the single backing
// array for its three per-device counters — out of the Simulator's
// batch-allocated arena, refilling the arena with a fresh chunk when
// exhausted. Chunks are never recycled, so every carved region is
// untouched zero memory and every returned Result stays valid across
// later runs, exactly as the per-run make() did; the change is purely
// that the two allocations now happen once per chunk instead of once
// per run. Retaining one Result pins at most its chunk.
func (s *Simulator) newResult() *Result {
	n := s.n
	if len(s.resStructs) == 0 {
		batch := resultChunkBytes / (3 * n * 8)
		if batch < 1 {
			batch = 1
		}
		if batch > 128 {
			batch = 128
		}
		s.resArena = make([]int, 3*n*batch)
		s.resStructs = make([]Result, batch)
	}
	counters := s.resArena[: 3*n : 3*n]
	s.resArena = s.resArena[3*n:]
	res := &s.resStructs[0]
	s.resStructs = s.resStructs[1:]
	res.Energy = counters[0*n : 1*n : 1*n]
	res.Transmits = counters[1*n : 2*n : 2*n]
	res.Listens = counters[2*n : 3*n : 3*n]
	return res
}

// clearAny nils a payload buffer through its full capacity so a recycled
// Simulator does not pin the previous run's delivered messages.
func clearAny(buf []any) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = nil
	}
}

// loop is the scheduler: it steps every awaited device to its next
// channel action, advances to the minimum requested slot, resolves the
// channel there in ascending device order, and hands each cohort member
// its feedback for the next round's step.
//
// A round has two halves: gather steps the awaited devices and picks the
// next slot's cohort, then resolveSlot resolves the channel at that
// slot. The golden trace test pins this round order.
func (s *Simulator) loop() error {
	for {
		t, done := s.gather()
		if done {
			return s.firstErr
		}
		if err := s.resolveSlot(t); err != nil {
			return err
		}
	}
}

// gather steps every awaited device to its next channel action, retires
// halted devices, and selects the next populated slot and its cohort.
// done reports that every device has halted (the run's outcome is then
// s.firstErr); otherwise the returned slot's cohort is staged in
// s.cohort, ready for resolveSlot.
func (s *Simulator) gather() (t uint64, done bool) {
	s.stepAwaited()
	for _, v := range s.awaiting {
		if s.kinds[v] == actHalt {
			s.live--
			if s.errs[v] != nil && s.firstErr == nil {
				s.firstErr = s.errs[v]
			}
			s.errs[v] = nil
			continue
		}
		// Every poster acted at now, so its request lies past it.
		s.file(s.slots[v], v)
	}
	s.awaiting = s.awaiting[:0]
	if s.live == 0 {
		return 0, true
	}
	// The next populated slot is the wheel's first non-empty bucket
	// after now, or the far minimum when the wheel is empty (every far
	// request lies past every wheel request). Far requests that the new
	// now brings within wheelSlots move into the wheel. Filings that a
	// woken listen run left behind are dropped on the way, so no slot
	// is visited for them.
	if s.occ == 0 {
		for !s.current(s.far[0]) {
			s.farPop()
		}
		t = s.far[0].slot
	} else {
		t = s.now + uint64(bits.TrailingZeros64(bits.RotateLeft64(s.occ, -int(s.now%wheelSlots))))
	}
	s.now = t
	for len(s.far) > 0 && s.far[0].slot-t < wheelSlots {
		if e := s.farPop(); s.current(e) {
			s.mark(e.slot, e.dev)
		}
	}
	// Read the cohort out of slot t's bucket: bit order is device order.
	b := int(t % wheelSlots)
	bucket := s.wheel[b*s.words : (b+1)*s.words]
	s.cohort = s.cohort[:0]
	for i, w := range bucket {
		for ; w != 0; w &= w - 1 {
			s.cohort = append(s.cohort, int32(i*64+bits.TrailingZeros64(w)))
		}
		bucket[i] = 0
	}
	s.occ &^= 1 << b
	return t, false
}

// file files device v's request for slot, which must lie past now: in
// the wheel when it is fewer than wheelSlots slots ahead, else in the
// far heap.
func (s *Simulator) file(slot uint64, v int32) {
	if slot-s.now < wheelSlots {
		s.mark(slot, v)
	} else {
		s.farPush(farEntry{slot: slot, dev: v})
	}
}

// mark files device v's request for slot, which must lie in
// [now, now+wheelSlots), in the slot's wheel bucket.
func (s *Simulator) mark(slot uint64, v int32) {
	b := int(slot % wheelSlots)
	s.wheel[b*s.words+int(v>>6)] |= 1 << (v & 63)
	s.occ |= 1 << b
}

// unfile withdraws the filing of a woken listen run that a delivery
// ended before it: from the wheel when its slot lies within wheelSlots
// of now, where gather has moved every such far request; a far filing
// stays in the heap, and gather drops it (see current).
func (s *Simulator) unfile(slot uint64, v int32) {
	if slot-s.now >= wheelSlots {
		return
	}
	b := int(slot % wheelSlots)
	bucket := s.wheel[b*s.words : (b+1)*s.words]
	bucket[v>>6] &^= 1 << (v & 63)
	for _, w := range bucket {
		if w != 0 {
			return
		}
	}
	s.occ &^= 1 << b
}

// parkSlot is the slot a parked listen run is filed for: its last
// slot, or MaxSlots+1 when the run crosses the slot budget, so that
// the run fails in the slot the per-slot path fails in.
func (s *Simulator) parkSlot(v int32) uint64 {
	if s.runEnd[v] > s.maxSlots {
		return s.maxSlots + 1
	}
	return s.runEnd[v]
}

// current reports whether far entry e is still its device's filing.
// A listen run that a delivery ended before its filing leaves the
// entry behind, and a halted device has no filing.
func (s *Simulator) current(e farEntry) bool {
	k := s.kinds[e.dev]
	if k&actParked != 0 {
		return s.parkSlot(e.dev) == e.slot
	}
	return k != actHalt && s.slots[e.dev] == e.slot
}

// resolveSlot resolves the gathered cohort at slot t: budget checks,
// energy accounting, trace emission and listener feedback, in ascending
// device order. A member whose run goes on is filed for slot t+1
// without a step, or parked (see parkRun); the others are re-awaited
// for the next gather round.
func (s *Simulator) resolveSlot(t uint64) error {
	if t > s.maxSlots {
		return s.slotBudgetErr(t)
	}
	if t > s.res.Slots {
		s.res.Slots = t
	}
	// Inject crash and sleep faults before any action is recorded, so a
	// faulted device's transmit is never heard and its listen costs no
	// energy. Loss faults are injected per listener inside resolve.
	if s.faultCrash {
		s.injectCrashes(t)
	} else if s.faultSleep {
		s.injectSleeps(t)
	}
	// Record transmissions first so every listener sees them; payloads
	// stay parked in the transmitters' lane cells. In a slot nobody
	// transmits in, every listener hears silence: no neighbor scan, and
	// no parked listen run is woken.
	silent := true
	woken := s.txs[:0]
	for _, v := range s.cohort {
		k := s.kinds[v]
		if k == actTransmit || k == actTransmitListen {
			s.lastTxSlot[v] = t + 1
			silent = false
			if s.parked > 0 {
				woken = s.wake(v, t, woken)
			}
		}
	}
	if len(woken) > 0 {
		s.merge(woken)
	}
	// Account energy, emit traces, compute feedback — in device order.
	awaiting := s.awaiting // empty: gather stepped every awaited device
	for _, v := range s.cohort {
		k := s.kinds[v]
		parked := k & (actParked | actWoken)
		if parked != 0 {
			// A parked member heard silence in every slot it was not
			// visited in: charge them now, as the per-slot path would
			// have slot by slot.
			skipped := t - s.slots[v]
			s.res.Energy[v] += int(skipped)
			s.res.Listens[v] += int(skipped)
			s.res.Events += skipped
			k = actListen
			s.kinds[v] = k
			if parked == actParked {
				s.parked--
			}
		}
		switch k {
		case actTransmit:
			s.res.Energy[v]++
			s.res.Transmits[v]++
			s.res.Events++
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventTransmit, Payload: s.payloads[v], From: -1})
		case actListen:
			s.res.Energy[v]++
			s.res.Listens[v]++
			s.res.Events++
			if silent {
				s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
				s.fbs[v] = Feedback{Status: Silence}
			} else {
				s.fbs[v] = s.resolve(v, t)
			}
		case actTransmitListen:
			// Awake for one slot: energy 1 even though both action
			// counters advance (the paper charges per non-idle slot).
			s.res.Energy[v]++
			s.res.Transmits[v]++
			s.res.Listens[v]++
			s.res.Events += 2
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventTransmit, Payload: s.payloads[v], From: -1})
			s.fbs[v] = s.resolve(v, t)
		}
		// A run goes on in slot t+1 unless t was its last slot or
		// delivered to it. A sleep fault neither charges nor ends it:
		// the run's kind comes back for the next slot, and the zero
		// Feedback a step would leave replaces this slot's.
		switch {
		case t < s.runEnd[v] && s.fbs[v].Status != Received:
			s.kinds[v] = k &^ actAsleep
			s.fbs[v] = Feedback{}
			if k == actListen && s.park {
				s.parkRun(v, t, parked == actWoken)
			} else {
				s.mark(t+1, v)
			}
		case parked == actWoken:
			// A delivery ended the run before the slot it is filed for.
			s.unfile(s.parkSlot(v), v)
			awaiting = append(awaiting, v)
		default:
			awaiting = append(awaiting, v)
		}
		if s.res.Events > s.maxEvents {
			return fmt.Errorf("%w: events > MaxEvents %d", ErrBudget, s.maxEvents)
		}
	}
	// The slot is fully resolved: the payloads of the actions that ended
	// in it are dead, while a transmit run keeps its payload parked
	// until its last slot. Clearing the cells here is what makes a
	// long-lived payload collectable mid-run. The re-awaited members
	// are stepped again at the top of the next round.
	for _, v := range awaiting {
		s.payloads[v] = nil
	}
	s.awaiting = awaiting
	return nil
}

// parkRun parks listen-run member v after slot t: it is not visited in
// the run's later slots unless a neighbour transmits in one of them
// (see wake), and its first uncharged slot is t+1. A member parked for
// the first time is filed for parkSlot; a woken one still is.
func (s *Simulator) parkRun(v int32, t uint64, filed bool) {
	s.kinds[v] = actListen | actParked
	s.slots[v] = t + 1
	s.parked++
	if !filed {
		s.file(s.parkSlot(v), v)
	}
}

// wake appends to woken every parked listen-run member next to
// transmitter v that is filed for a slot after t, flagging it actWoken
// so that a second transmitter does not wake it again. A member filed
// for t is in the cohort already.
func (s *Simulator) wake(v int32, t uint64, woken []int32) []int32 {
	for _, w := range s.adj[s.off[v]:s.off[v+1]] {
		if s.kinds[w] == actListen|actParked && s.parkSlot(w) > t {
			s.kinds[w] = actListen | actWoken
			s.parked--
			woken = append(woken, w)
		}
	}
	return woken
}

// merge adds the woken members to the cohort, keeping it in ascending
// device order: step order is observable. The two are disjoint, so
// the cohort's capacity of n holds both.
func (s *Simulator) merge(woken []int32) {
	slices.Sort(woken)
	c := s.cohort
	i, j := len(c)-1, len(woken)-1
	c = c[:len(c)+len(woken)]
	for k := len(c) - 1; j >= 0; k-- {
		if i >= 0 && c[i] > woken[j] {
			c[k] = c[i]
			i--
		} else {
			c[k] = woken[j]
			j--
		}
	}
	s.cohort = c
	s.txs = woken
}

// slotBudgetErr is the error of a run that reaches slot t past
// MaxSlots. Parked listen runs have not been charged their silent
// slots before t yet; when those would have exhausted MaxEvents first,
// the per-slot path fails on the event budget, and so does this one.
func (s *Simulator) slotBudgetErr(t uint64) error {
	events := s.res.Events
	for v := 0; s.parked > 0 && v < s.n; v++ {
		if s.kinds[v]&actParked != 0 {
			events += t - s.slots[v]
		}
	}
	if events > s.maxEvents {
		return fmt.Errorf("%w: events > MaxEvents %d", ErrBudget, s.maxEvents)
	}
	return fmt.Errorf("%w: slot %d > MaxSlots %d", ErrBudget, t, s.maxSlots)
}

// injectCrashes applies crash-stop faults to the slot-t cohort: a device
// whose positional hash fires is removed from the cohort (its action —
// transmit, listen, or both — simply never happens, and its run ends)
// and retired for the rest of the run, exactly like a halt but without
// an error. Compaction preserves the cohort's ascending device order,
// so the surviving round is resolved in the order a fault-free engine
// would use.
func (s *Simulator) injectCrashes(t uint64) {
	kept := s.cohort[:0]
	for _, v := range s.cohort {
		if s.fplan.Fires(v, t) {
			s.res.FaultCrashes++
			s.payloads[v] = nil
			s.live--
			continue
		}
		kept = append(kept, v)
	}
	s.cohort = kept
}

// injectSleeps applies sleep faults to the slot-t cohort: a device whose
// hash fires — or that is still inside an earlier window — has this
// slot's action suppressed (its kind flagged actAsleep: no energy,
// transmit unheard, listen observes silence via its zeroed feedback).
// The device stays in the cohort and is re-awaited normally, or filed
// for its run's next slot; it resumes acting once the window passes.
func (s *Simulator) injectSleeps(t uint64) {
	for _, v := range s.cohort {
		asleep := t < s.sleepUntil[v]
		if !asleep && s.fplan.Fires(v, t) {
			s.res.FaultSleeps++
			s.sleepUntil[v] = t + s.fplan.Window()
			asleep = true
		}
		if asleep {
			s.kinds[v] |= actAsleep
		}
	}
}

// stepLimit bounds the consecutive actionless steps (sleeps) the
// scheduler will drive one device through before declaring it stuck —
// a backstop against a proc that keeps returning non-advancing sleeps,
// which would otherwise wedge the scheduler.
const stepLimit = 1 << 20

// stepAwaited advances every awaited device to its next channel action.
// The deferred panic handler is installed once per contiguous run of
// non-panicking devices rather than once per device step; a panicking
// device is halted with its error and stepping resumes with the next.
func (s *Simulator) stepAwaited() {
	for i := 0; i < len(s.awaiting); {
		i = s.stepFrom(i)
	}
}

// stepFrom steps awaiting[start:] in order, returning the index to
// resume from after a device panic (len(awaiting) when none panicked).
// A panic out of Step — including the slot-ordering violation the
// engine enforces — becomes the same halt-with-error outcome a device
// panic has always had.
func (s *Simulator) stepFrom(start int) (next int) {
	i := start
	defer func() {
		if r := recover(); r != nil {
			v := s.awaiting[i]
			s.kinds[v] = actHalt
			s.errs[v] = fmt.Errorf("radio: device %d panicked: %v", v, r)
			next = i + 1
		}
	}()
	for ; i < len(s.awaiting); i++ {
		s.stepDevice(s.awaiting[i])
	}
	return i
}

// stepDevice advances one proc until it produces a channel action or
// halts, publishing the result into the device's lane cells. Sleeps
// only move the device clock. The clock starts at the latest cohort's
// slot: every awaited device ended its action there (a run's last slot
// included), or has not acted yet and is at slot 0.
func (s *Simulator) stepDevice(v int32) {
	e := &s.envs[v]
	e.now = s.now
	fb := s.fbs[v]
	s.fbs[v] = Feedback{}
	for i := 0; ; i++ {
		act := s.procs[v].Step(e, fb)
		fb = Feedback{}
		switch act.Kind {
		case ActSleep:
			if act.Slot > e.now {
				e.now = act.Slot
			}
			if i >= stepLimit {
				s.kinds[v] = actHalt
				s.errs[v] = fmt.Errorf("radio: device %d stepped %d times without a channel action", v, i)
				return
			}
		case ActHalt:
			s.kinds[v] = actHalt
			return
		case ActTransmit, ActListen, ActTransmitListen:
			if act.Slot <= e.now {
				panic(fmt.Sprintf("radio: device %d scheduled slot %d, but its clock is already at %d", v, act.Slot, e.now))
			}
			end := act.Slot
			if act.Run > 1 {
				if act.Kind == ActTransmitListen {
					panic(fmt.Sprintf("radio: device %d returned a full-duplex run", v))
				}
				end += uint64(act.Run) - 1
			}
			s.slots[v] = act.Slot
			s.runEnd[v] = end
			s.payloads[v] = act.Payload
			switch act.Kind {
			case ActTransmit:
				s.kinds[v] = actTransmit
			case ActListen:
				s.kinds[v] = actListen
			default:
				s.kinds[v] = actTransmitListen
			}
			e.now = act.Slot
			return
		default:
			panic(fmt.Sprintf("radio: device %d returned invalid action kind %d", v, act.Kind))
		}
	}
}

func (s *Simulator) emit(ev Event) {
	if s.trace != nil {
		s.trace(ev)
	}
}

// resolve computes listener v's feedback at slot t, first applying any
// lossy-slot fault: when the listener's positional hash fires and the
// channel outcome would have been a delivery, the delivery is erased to
// silence (trace included). Noise and silence are not "successful
// transmissions", so they are never erased — a lossy CD slot still
// reports its collision.
func (s *Simulator) resolve(v int32, t uint64) Feedback {
	if s.faultLoss && s.fplan.Fires(v, t) && s.wouldReceive(v, t) {
		s.res.FaultErasures++
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
		return Feedback{Status: Silence}
	}
	return s.resolveChannel(v, t)
}

// wouldReceive reports whether listener v's slot-t outcome would be
// Received under the run's model: at least one transmitting neighbor for
// CD* and Local, exactly one for CD and No-CD.
func (s *Simulator) wouldReceive(v int32, t uint64) bool {
	cnt := 0
	for _, w := range s.adj[s.off[v]:s.off[v+1]] {
		if s.lastTxSlot[w] == t+1 {
			cnt++
			if cnt >= 2 {
				break
			}
		}
	}
	if s.model == Local || s.model == CDStar {
		return cnt >= 1
	}
	return cnt == 1
}

// resolveChannel computes listener v's feedback at slot t under the
// run's model. Neighbors come from the CSR mirror and are sorted
// ascending by the graph invariant, so transmitter sets need no
// per-listener sort and the scan stops as soon as the model's outcome is
// decided: after the first transmitter for CD* (it delivers the
// lowest-index one), after the second for CD and No-CD (noise/silence
// either way). Single payloads resolve straight out of the transmitter's
// lane cell; the Local model fills the listener's reusable per-env
// buffer (valid until the device's next action).
func (s *Simulator) resolveChannel(v int32, t uint64) Feedback {
	need := 2 // CD and No-CD outcomes are fixed once two transmitters are seen
	switch s.model {
	case Local:
		need = int(^uint(0) >> 1)
	case CDStar:
		need = 1
	}
	txs := s.txs[:0]
	for _, w := range s.adj[s.off[v]:s.off[v+1]] {
		if s.lastTxSlot[w] == t+1 {
			txs = append(txs, w)
			if len(txs) >= need {
				break
			}
		}
	}
	s.txs = txs
	switch s.model {
	case Local:
		if len(txs) == 0 {
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		}
		e := &s.envs[v]
		payloads := e.pbuf[:0]
		for _, w := range txs {
			p := s.payloads[w]
			payloads = append(payloads, p)
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
		}
		// Nil the tail beyond this delivery so payloads from a larger
		// earlier delivery don't stay pinned by the buffer's backing
		// array (the previous slice is contractually invalid by now).
		clearAny(payloads[len(payloads):cap(payloads)])
		e.pbuf = payloads
		return Heard(&e.pbuf)
	case CDStar:
		if len(txs) == 0 {
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		}
		w := txs[0] // arbitrary choice, fixed deterministically
		p := s.payloads[w]
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
		return Feedback{Status: Received, Payload: p}
	case CD:
		switch len(txs) {
		case 0:
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		case 1:
			w := txs[0]
			p := s.payloads[w]
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
			return Feedback{Status: Received, Payload: p}
		default:
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventNoise, From: -1})
			return Feedback{Status: Noise}
		}
	default: // NoCD
		if len(txs) == 1 {
			w := txs[0]
			p := s.payloads[w]
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
			return Feedback{Status: Received, Payload: p}
		}
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
		return Feedback{Status: Silence}
	}
}

// farPush adds e to the far min-heap, ordered by slot. Ties need no
// order: a far request moves into the wheel, where its bucket's bit
// order sorts the cohort.
func (s *Simulator) farPush(e farEntry) {
	s.far = append(s.far, e)
	h := s.far
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].slot <= h[i].slot {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// farPop removes and returns the far heap's earliest request.
func (s *Simulator) farPop() farEntry {
	h := s.far
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	s.far = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].slot < h[smallest].slot {
			smallest = l
		}
		if r < len(h) && h[r].slot < h[smallest].slot {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// internCap bounds the boxed-integer interning table: values in
// [0, internCap) are boxed at most once per Simulator lifetime, larger
// or negative values fall back to a plain (allocating) conversion.
const internCap = 1 << 16

// BoxInt returns v boxed as an `any` without a per-call heap allocation
// when ch is a physical Env: the box is served from the simulator's
// interning table, grown lazily and filled once per distinct value.
// Boxed integers are immutable, so handing the same box to every
// listener — and reusing it across runs of a recycled Simulator — is
// safe. On a virtual channel it falls back to the ordinary conversion,
// so protocol code can call it unconditionally.
func BoxInt(ch Channel, v int) any {
	if e, ok := ch.(*Env); ok {
		return e.sim.boxInt(v)
	}
	return v
}

// boxInt serves v from the interning table. Scheduler goroutine only.
func (s *Simulator) boxInt(v int) any {
	if v < 0 || v >= internCap {
		return v
	}
	if v >= len(s.intBox) {
		newLen := len(s.intBox)
		if newLen == 0 {
			newLen = 256
		}
		for newLen <= v {
			newLen *= 2
		}
		if newLen > internCap {
			newLen = internCap
		}
		grown := make([]any, newLen)
		copy(grown, s.intBox)
		s.intBox = grown
	}
	if s.intBox[v] == nil {
		s.intBox[v] = v
	}
	return s.intBox[v]
}

// simCacheCap bounds a SimCache's MRU list. Sweep cells run many trials
// on one long-lived graph (a guaranteed hit) while some algorithms build
// short-lived derived graphs per trial; a small cap lets the hot graph
// stay resident without the derived ones accumulating.
const simCacheCap = 4

// SimCache reuses Simulators across runs, keyed by graph identity. It is
// NOT safe for concurrent use — keep one per worker goroutine (as
// internal/sweep does) and thread it through Config.Sims; RunDevices
// then serves same-graph runs from the cache instead of rebuilding envs,
// random streams, and scheduler scratch per run.
type SimCache struct {
	sims  []*Simulator // MRU order, most recent first
	stats CacheStats
}

// CacheStats counts a SimCache's lookups. A hit serves the run from a
// resident simulator; a miss pays a full NewSimulator build. Plain
// (non-atomic) counters: the cache itself is single-goroutine, and
// telemetry publishes a copy.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the cache's lookup counters so far.
func (c *SimCache) Stats() CacheStats { return c.stats }

// get returns the cached Simulator for g, creating and caching it on a
// miss (evicting the least recently used entry beyond the cap).
func (c *SimCache) get(g *graph.Graph) (*Simulator, error) {
	for i, s := range c.sims {
		if s.g == g {
			if i != 0 {
				copy(c.sims[1:i+1], c.sims[:i])
				c.sims[0] = s
			}
			c.stats.Hits++
			return s, nil
		}
	}
	c.stats.Misses++
	s, err := NewSimulator(g, Config{Graph: g})
	if err != nil {
		return nil, err
	}
	c.sims = append(c.sims, nil)
	copy(c.sims[1:], c.sims)
	c.sims[0] = s
	if len(c.sims) > simCacheCap {
		c.sims = c.sims[:simCacheCap]
	}
	return s, nil
}

// Len reports the number of cached simulators (for tests).
func (c *SimCache) Len() int { return len(c.sims) }

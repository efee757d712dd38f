package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/fabric"
	"voqsim/internal/snap"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The traced run times each layer from outside, by wrapping the
// interfaces the layers already accept (traffic.Pattern, core.Arbiter,
// switchsim.Switch, the fabric node constructor). A wrapper reads the
// clock only on sampled slots — one slot in sampleEvery — because an
// N=16 slot takes about 3 µs and a clock read costs tens of ns.
//
// All spans of one simulation run on one goroutine, so each run owns a
// lane: a span stack that turns nested begin/end pairs into inclusive
// and self time per span name. Spans of a sampled slot share its slot
// id; the first keptSpans spans of the first traced job's lanes are
// also kept verbatim and written out when the benchmark ends.

const (
	sampleEvery = 32
	keptSpans   = 4096
)

// Span names. A layer's self time is its span time minus the time of
// the spans nested inside it.
const (
	spTick       = iota // one Runner slot, from input 0's draw to the next slot's
	spTraffic           // traffic source draw (NextInto)
	spCoreArrive        // core.Switch.Arrive: Table 1 preprocessing
	spCoreStep          // core.Switch.Step minus match: VOQ pop, crossbar transfer
	spCoreMatch         // FIFOMS arbiter
	spIslipMatch        // iSLIP arbiter
	spTatraArrive
	spTatraStep
	spOqArrive
	spOqStep
	spFabricArrive // fabric ingress admission
	spFabricStep   // link drain plus node stepping
	spNodeStep     // one fabric node's Step
	spNodeDeliver  // fabric handling of one node delivery
	spRunDeliver   // the Runner's accounting of one delivered copy
	numSpans
)

var spanNames = [numSpans]string{
	"switchsim.tick", "traffic.next", "core.arrive", "core.step", "core.match", "islip.match",
	"tatra.arrive", "tatra.step", "oq.arrive", "oq.step",
	"fabric.arrive", "fabric.step", "fabric.node_step", "fabric.deliver", "switchsim.deliver",
}

var clockEpoch = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }

type frame struct {
	name    int
	start   int64
	child   int64 // inclusive time of the spans nested directly inside
	deliver int64 // the part of child spent in fabric.deliver spans
	ovh     int64 // clock overhead of the spans nested at any depth
	kept    int32 // index in lane.spans, or -1
}

// Span overhead, measured once by calibrate: ovhIn is the part of a
// begin/end pair inside the interval it measures, ovhOut the part that
// lands in the parent. Both are removed from the recorded times, so an
// N=16 slot with some 30 spans is not measured mostly as clock reads.
var ovhIn, ovhOut int64

func calibrate() {
	l := newLane("calibration", false) // the common, not-kept path
	const n = 200_000
	l.on = true
	var inside int64
	t0 := nanotime()
	for i := 0; i < n; i++ {
		l.begin(spTraffic)
		l.end()
	}
	total := nanotime() - t0
	inside = l.pIncl[spTraffic]
	ovhIn = inside / n
	ovhOut = total/n - ovhIn
	if ovhOut < 0 {
		ovhOut = 0
	}
}

// span is one recorded interval. Parent indexes the lane's kept spans
// (-1 for a slot's root).
type span struct {
	Slot   int64  `json:"slot"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// lane records the spans of one simulation run.
type lane struct {
	label string
	on    bool // the current slot is sampled
	slot  int64
	stack []frame

	// Pending totals of the open sampled slot, committed when the
	// slot closes so an unfinished last slot never counts.
	pIncl, pSelf, pCalls [numSpans]int64
	pNodeMax             int64

	incl, self, calls [numSpans]int64
	samples           int64 // closed sampled slots
	nodeMaxSum        int64 // Σ over samples of the slowest node's step time, deliveries excluded

	// Exact counters, kept on every slot. rounds counts FIFOMS
	// request/grant rounds, on lanes with a FIFOMS arbiter (fifoms).
	slots    int64
	arrivals int64
	rounds   int64
	fifoms   bool

	// fullSwitch marks lanes whose switch is wrapped as a whole, so
	// the tick's self time is the Runner's own work.
	fullSwitch bool

	keep  int // spans to keep verbatim
	spans []span
}

func newLane(label string, keep bool) *lane {
	l := &lane{label: label, stack: make([]frame, 0, 8)}
	if keep {
		l.keep = keptSpans
	}
	return l
}

// slotStart is called at the first traffic draw of every slot. It
// closes the previous sampled slot and opens a sample every
// sampleEvery slots.
func (l *lane) slotStart(slot int64) {
	l.slots++
	if l.on {
		l.end()
		if len(l.stack) != 0 {
			panic(fmt.Sprintf("perfbench: %d spans still open at slot %d", len(l.stack), slot))
		}
		for i := range l.incl {
			l.incl[i] += l.pIncl[i]
			l.self[i] += l.pSelf[i]
			l.calls[i] += l.pCalls[i]
		}
		l.nodeMaxSum += l.pNodeMax
		l.samples++
		l.on = false
	}
	if slot%sampleEvery == 0 {
		l.on = true
		l.slot = slot
		l.pIncl, l.pSelf, l.pCalls = [numSpans]int64{}, [numSpans]int64{}, [numSpans]int64{}
		l.pNodeMax = 0
		l.begin(spTick)
	}
}

// finish drops an unclosed sampled slot at the end of a run.
func (l *lane) finish() {
	l.on = false
	l.stack = l.stack[:0]
}

func (l *lane) begin(name int) {
	f := frame{name: name, kept: -1}
	if len(l.spans) < l.keep {
		parent := int32(-1)
		if k := len(l.stack); k > 0 {
			parent = l.stack[k-1].kept
		}
		f.kept = int32(len(l.spans))
		l.spans = append(l.spans, span{Slot: l.slot, Name: spanNames[name], Parent: parent})
	}
	f.start = nanotime()
	if f.kept >= 0 {
		l.spans[f.kept].Start = f.start
	}
	l.stack = append(l.stack, f)
}

func (l *lane) end() {
	now := nanotime()
	k := len(l.stack) - 1
	f := l.stack[k]
	l.stack = l.stack[:k]
	dur := now - f.start - ovhIn - f.ovh
	if dur < 0 {
		dur = 0
	}
	self := dur - f.child
	l.pIncl[f.name] += dur
	l.pSelf[f.name] += self
	l.pCalls[f.name]++
	if work := dur - f.deliver; f.name == spNodeStep && work > l.pNodeMax {
		l.pNodeMax = work
	}
	if k > 0 {
		l.stack[k-1].child += dur
		l.stack[k-1].ovh += f.ovh + ovhIn + ovhOut
		if f.name == spNodeDeliver {
			l.stack[k-1].deliver += dur
		}
	}
	if f.kept >= 0 {
		l.spans[f.kept].End = now
	}
}

// traceSet gathers the lanes of one traced job; lanes of a parallel
// sweep are registered from worker goroutines.
type traceSet struct {
	mu    sync.Mutex
	lanes []*lane
}

func (ts *traceSet) add(l *lane) {
	ts.mu.Lock()
	ts.lanes = append(ts.lanes, l)
	ts.mu.Unlock()
}

// layerTotals sums the lanes of a set.
type layerTotals struct {
	incl, self, calls                    [numSpans]int64
	samples, nodeMaxSum                  int64
	slots, arrivals, rounds, fifomsSlots int64
	fullTickSelf, fullTickSamples        int64
}

func (t *layerTotals) addSet(ts *traceSet) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, l := range ts.lanes {
		for i := range t.incl {
			t.incl[i] += l.incl[i]
			t.self[i] += l.self[i]
			t.calls[i] += l.calls[i]
		}
		t.samples += l.samples
		t.nodeMaxSum += l.nodeMaxSum
		t.slots += l.slots
		t.arrivals += l.arrivals
		t.rounds += l.rounds
		if l.fifoms {
			t.fifomsSlots += l.slots
		}
		if l.fullSwitch {
			t.fullTickSelf += l.self[spTick]
			t.fullTickSamples += l.samples
		}
	}
}

// writeSpans writes the kept spans of every lane as JSON.
func writeSpans(path string, ts *traceSet) error {
	type laneOut struct {
		Label string `json:"run"`
		Spans []span `json:"spans"`
	}
	ts.mu.Lock()
	out := make([]laneOut, 0, len(ts.lanes))
	for _, l := range ts.lanes {
		if len(l.spans) > 0 {
			out = append(out, laneOut{l.label, l.spans})
		}
	}
	ts.mu.Unlock()
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- traffic ----

// tracedPattern wraps a traffic pattern so its sources time every
// draw. laneFor returns the lane of the run that builds the sources.
type tracedPattern struct {
	traffic.Pattern
	laneFor func() *lane
}

func (p tracedPattern) NewSource(n, input int, r *xrand.Rand) traffic.Source {
	src := p.Pattern.NewSource(n, input, r)
	into, ok := src.(traffic.IntoSource)
	if !ok {
		panic(fmt.Sprintf("perfbench: %s source lacks NextInto; the wrapper would change the engine path", p.Pattern))
	}
	t := &tracedSource{Source: src, into: into, l: p.laneFor(), first: input == 0}
	if ss, ok := src.(traffic.Snapshottable); ok {
		return tracedSnapSource{t, ss}
	}
	return t
}

type tracedSource struct {
	traffic.Source
	into  traffic.IntoSource
	l     *lane
	first bool
}

func (s *tracedSource) NextInto(slot int64, d *destset.Set) bool {
	l := s.l
	if s.first {
		l.slotStart(slot)
	}
	var ok bool
	if l.on {
		l.begin(spTraffic)
		ok = s.into.NextInto(slot, d)
		l.end()
	} else {
		ok = s.into.NextInto(slot, d)
	}
	if ok {
		l.arrivals++
	}
	return ok
}

// tracedSnapSource forwards a snapshottable source's state.
type tracedSnapSource struct {
	*tracedSource
	ss traffic.Snapshottable
}

func (s tracedSnapSource) SaveState(w *snap.Writer)       { s.ss.SaveState(w) }
func (s tracedSnapSource) LoadState(r *snap.Reader) error { return s.ss.LoadState(r) }

// ---- arbiter ----

// tracedArbiter times core's Match and counts its rounds exactly.
type tracedArbiter struct {
	core.Arbiter
	l    *lane
	name int
}

func (a *tracedArbiter) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	if a.l.on {
		a.l.begin(a.name)
		a.Arbiter.Match(s, slot, r, m)
		a.l.end()
	} else {
		a.Arbiter.Match(s, slot, r, m)
	}
	if a.name == spCoreMatch {
		a.l.rounds += int64(m.Rounds)
	}
}

// ---- switch ----

// tracedSwitch times Arrive and Step of a switch the Runner drives,
// and inside Step the Runner's accounting of each delivered copy.
type tracedSwitch struct {
	sw             switchsim.Switch
	l              *lane
	arrive, stepSp int
	deliver        func(cell.Delivery)
	onDeliver      func(cell.Delivery)
}

func newTracedSwitch(sw switchsim.Switch, l *lane, arrive, step int) *tracedSwitch {
	t := &tracedSwitch{sw: sw, l: l, arrive: arrive, stepSp: step}
	t.onDeliver = t.timeDelivery
	return t
}

func (t *tracedSwitch) timeDelivery(d cell.Delivery) {
	t.l.begin(spRunDeliver)
	t.deliver(d)
	t.l.end()
}

func (t *tracedSwitch) Ports() int                 { return t.sw.Ports() }
func (t *tracedSwitch) QueueSizes(dst []int) []int { return t.sw.QueueSizes(dst) }
func (t *tracedSwitch) BufferedCells() int64       { return t.sw.BufferedCells() }

func (t *tracedSwitch) Arrive(p *cell.Packet) {
	if t.l.on {
		t.l.begin(t.arrive)
		t.sw.Arrive(p)
		t.l.end()
		return
	}
	t.sw.Arrive(p)
}

func (t *tracedSwitch) Step(slot int64, deliver func(cell.Delivery)) {
	if t.l.on {
		t.deliver = deliver
		t.l.begin(t.stepSp)
		t.sw.Step(slot, t.onDeliver)
		t.l.end()
		return
	}
	t.sw.Step(slot, deliver)
}

// The wrappers below forward exactly the optional capabilities of the
// switch they wrap; checkCaps proves it before a traced run starts.

type tracedCore struct {
	*tracedSwitch
	cs *core.Switch
}

func (t tracedCore) SetReleaseHook(fn func(*cell.Packet)) { t.cs.SetReleaseHook(fn) }
func (t tracedCore) LastRounds() int                      { return t.cs.LastRounds() }
func (t tracedCore) BufferedBytes() int64                 { return t.cs.BufferedBytes() }
func (t tracedCore) InputBacklog(in int) int              { return t.cs.InputBacklog(in) }
func (t tracedCore) SaveState(w *snap.Writer)             { t.cs.SaveState(w) }
func (t tracedCore) LoadState(r *snap.Reader) error       { return t.cs.LoadState(r) }

type tracedBytes struct {
	*tracedSwitch
	br switchsim.BytesReporter
}

func (t tracedBytes) BufferedBytes() int64 { return t.br.BufferedBytes() }

type tracedFabric struct {
	*tracedSwitch
	f *fabric.Fabric
}

func (t tracedFabric) SetReleaseHook(fn func(*cell.Packet)) { t.f.SetReleaseHook(fn) }
func (t tracedFabric) SetDropHook(fn func(fabric.Drop))     { t.f.SetDropHook(fn) }
func (t tracedFabric) FabricStats() *fabric.Stats           { return t.f.FabricStats() }
func (t tracedFabric) SaveState(w *snap.Writer)             { t.f.SaveState(w) }
func (t tracedFabric) LoadState(r *snap.Reader) error       { return t.f.LoadState(r) }

// tracedNode times one fabric node's Arrive and Step and, inside Step,
// the fabric's handling of each node delivery.
type tracedNode struct {
	*core.Switch
	l         *lane
	deliver   func(cell.Delivery)
	onDeliver func(cell.Delivery)
}

func newTracedNode(cs *core.Switch, l *lane) *tracedNode {
	n := &tracedNode{Switch: cs, l: l}
	n.onDeliver = n.timeDelivery
	return n
}

func (n *tracedNode) Arrive(p *cell.Packet) {
	if n.l.on {
		n.l.begin(spCoreArrive)
		n.Switch.Arrive(p)
		n.l.end()
		return
	}
	n.Switch.Arrive(p)
}

func (n *tracedNode) Step(slot int64, deliver func(cell.Delivery)) {
	if n.l.on {
		n.deliver = deliver
		n.l.begin(spNodeStep)
		n.Switch.Step(slot, n.onDeliver)
		n.l.end()
		return
	}
	n.Switch.Step(slot, deliver)
}

func (n *tracedNode) timeDelivery(d cell.Delivery) {
	n.l.begin(spNodeDeliver)
	n.deliver(d)
	n.l.end()
}

// capabilities lists the optional interfaces the engine and the fabric
// probe for.
func capabilities(v any) string {
	var caps []string
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"release", is[switchsim.PacketReleaser](v)},
		{"rounds", is[switchsim.RoundsReporter](v)},
		{"bytes", is[switchsim.BytesReporter](v)},
		{"fabric", is[switchsim.FabricReporter](v)},
		{"drops", is[switchsim.DropReporter](v)},
		{"backlog", is[interface{ InputBacklog(int) int }](v)},
		{"snapshot", is[switchsim.SnapshottableSwitch](v)},
	} {
		if c.ok {
			caps = append(caps, c.name)
		}
	}
	return strings.Join(caps, " ")
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// checkCaps reports a wrapper that would change what the engine does
// because it hides or adds an optional capability.
func checkCaps(inner, wrapped any) error {
	if a, b := capabilities(inner), capabilities(wrapped); a != b {
		return fmt.Errorf("perfbench: wrapper of %T exposes capabilities [%s], the switch has [%s]", inner, b, a)
	}
	return nil
}

// wrapSwitch wraps a switch the Runner drives whole.
func wrapSwitch(sw switchsim.Switch, l *lane) (switchsim.Switch, error) {
	var out switchsim.Switch
	switch s := sw.(type) {
	case *core.Switch:
		out = tracedCore{newTracedSwitch(sw, l, spCoreArrive, spCoreStep), s}
	case *fabric.Fabric:
		out = tracedFabric{newTracedSwitch(sw, l, spFabricArrive, spFabricStep), s}
	default:
		var base *tracedSwitch
		switch name := fmt.Sprintf("%T", sw); name {
		case "*tatra.Switch":
			base = newTracedSwitch(sw, l, spTatraArrive, spTatraStep)
		case "*oq.Switch":
			base = newTracedSwitch(sw, l, spOqArrive, spOqStep)
		default:
			return nil, fmt.Errorf("perfbench: no span names for switch %s", name)
		}
		if br, ok := sw.(switchsim.BytesReporter); ok {
			out = tracedBytes{base, br}
		} else {
			out = base
		}
	}
	l.fullSwitch = true
	return out, checkCaps(sw, out)
}

// goid returns the current goroutine's id. A sweep builds each grid
// point's traffic pattern and switch, and reports its completion, on
// the worker goroutine that runs the point; the id links those three
// calls to one lane.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		panic("perfbench: cannot parse goroutine id")
	}
	return id
}

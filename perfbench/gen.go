package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"luf/internal/cert"
	"luf/internal/shard"
)

// opKind is the type of one client operation.
type opKind uint8

const (
	opAssert   opKind = iota // single-group durable assert
	opRelation               // GET /v1/relation
	opExplain                // certificate fetched and re-checked by client.Explain
	opXUnion                 // cross-shard union through the coordinator's 2PC
	numKinds
)

// metricPrefix names each kind in the end-to-end metric names.
var metricPrefix = [numKinds]string{"write", "read", "explain", "xunion"}

// kindName names each kind in spans and per-layer metrics.
var kindName = [numKinds]string{"assert", "relation", "explain", "xunion"}

// op is one precomputed client operation. Labels are not stored: every
// assert carries the oracle label pot(m) - pot(n).
type op struct {
	kind opKind
	n, m string
	// dep is the index of the assert that relates n and m, depHistory
	// when the preloaded history relates them, or -1. A read sent after
	// its dep was acknowledged must answer "related".
	dep int32
}

// depHistory marks a pair related by the preloaded history.
const depHistory = -2

// oracle holds each node's hidden potential. Every asserted label is a
// potential difference, so the asserted system is consistent by
// construction: a conflict, a wrong label or a rejected certificate is
// a defect of the system under test, never a property of the load.
type oracle struct{ seed int64 }

func (o oracle) pot(x string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(o.seed))
	h.Write(b[:])
	h.Write([]byte(x))
	return int64(h.Sum64()%2_000_001) - 1_000_000
}

// label is the relation n --label--> m the oracle predicts: m - n.
func (o oracle) label(n, m string) int64 { return o.pot(m) - o.pot(n) }

// opRange is a half-open range of indices into workload.ops.
type opRange struct{ lo, hi int }

// workload is a fully precomputed input set: the history group 0 holds
// before the run (loaded during set-up) and one op list holding the
// nominal-rate stream, the probes for op types the main mix lacks
// (certificate requests, cross-shard unions), and the stream the rate
// ladder draws from. Dependencies index into ops.
type workload struct {
	name    string
	seed    int64
	or      oracle
	groups  int  // shard groups (group 0 is the measured one)
	follow  bool // group 0 has a sync-replicated follower
	history []cert.Entry[string, int64]

	ops                       []op
	nominal, ladder           opRange
	explains, xunions         opRange // probes; either may be empty
	rate, explainHz, xunionHz float64 // offered rates, ops/s
	limit                     float64 // p99 latency limit on the ladder, ms
	ladderHz                  []float64
}

// workloadNames lists the workloads. BENCHMARK.json lists the first two;
// shard-mixed runs on demand (see README.md for why it is not gated).
var workloadNames = []string{"write-sync", "read-deep", "shard-mixed"}

// minNominalOps is the shortest nominal phase: 1050 samples of the
// rarest op type in each mix (10%), so every p99 has ten samples
// beyond it. Otherwise the phase lasts the run's --seconds.
const minNominalOps = 10_500

// Probe lengths: enough for a p99 (1000 samples leave 10 beyond it).
const (
	explainProbeOps = 1_000
	xunionProbeOps  = 1_000
)

// ladderOps bounds the ops the rate ladder may send.
const ladderOps = 40_000

// ladderGrid is the sustained-rate ladder: a geometric grid whose
// neighbouring rungs differ by 8%, below the metric's bound.
func ladderGrid(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0001; r *= 1.08 {
		out = append(out, math.Round(r))
	}
	return out
}

// newWorkload precomputes every input of the named workload from seed,
// sizing the nominal phase to last seconds at the nominal rate (or
// minNominalOps). Nominal rates sit near 45% of what a 2-CPU box
// sustains, and the one-connection union probe near 35% of its
// connection, so queueing does not amplify run-to-run drift.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	w := &workload{name: name, seed: seed, or: oracle{seed: seed}}
	rng := rand.New(rand.NewSource(seed))
	var all *[]op
	mark := func() int { return len(*all) }
	nominalOps := func() int { return max(minNominalOps, int(w.rate*float64(seconds))) }
	switch name {
	case "write-sync":
		w.groups, w.follow = 2, true
		w.rate, w.explainHz, w.xunionHz, w.limit = 500, 500, 150, 250
		w.history = smallClassHistory(rand.New(rand.NewSource(^seed)), w.or, writeSyncHistory)
		g := newSmallClassGen(rng, "w", nil, 1)
		all = &g.all
		g.stream(nominalOps(), 0.9, 0)
		w.nominal = opRange{0, mark()}
		g.explains(explainProbeOps)
		w.explains = opRange{w.nominal.hi, mark()}
		g.crossUnions(w.groups, "wx", xunionProbeOps)
		w.xunions = opRange{w.explains.hi, mark()}
		g.stream(ladderOps, 0.9, 0)
		w.ladder = opRange{w.xunions.hi, mark()}
	case "read-deep":
		w.groups, w.follow = 2, true
		w.rate, w.xunionHz, w.limit = 350, 150, 250
		d := newDeepHistory(rng, w.or)
		all = &d.all
		w.history = d.history
		d.stream(nominalOps())
		w.nominal = opRange{0, mark()}
		w.explains = opRange{mark(), mark()}
		g := &smallClassGen{rng: rng, groups: 1, all: d.all}
		g.crossUnions(w.groups, "dx", xunionProbeOps)
		d.all = g.all
		w.xunions = opRange{w.nominal.hi, mark()}
		d.stream(ladderOps)
		w.ladder = opRange{w.xunions.hi, mark()}
	case "shard-mixed":
		w.groups = 3
		w.rate, w.explainHz, w.limit = 1200, 500, 250
		m := shard.Map{Groups: make([]shard.Group, w.groups)}
		g := newSmallClassGen(rng, "s", &m, w.groups)
		all = &g.all
		g.stream(nominalOps(), 0.8, 0.1)
		w.nominal = opRange{0, mark()}
		g.explains(explainProbeOps)
		w.explains = opRange{w.nominal.hi, mark()}
		w.xunions = opRange{mark(), mark()}
		g.stream(ladderOps, 0.8, 0.1)
		w.ladder = opRange{w.explains.hi, mark()}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.ops = *all
	w.ladderHz = ladderGrid(w.rate/2, 8*w.rate)
	return w, nil
}

// streamHash is the SHA-256 of every precomputed input, in order.
func (w *workload) streamHash() string {
	h := sha256.New()
	put := func(tag string, ops []op) {
		fmt.Fprintf(h, "%s:%d\n", tag, len(ops))
		for _, o := range ops {
			fmt.Fprintf(h, "%d %s %s %d %d\n", o.kind, o.n, o.m, w.or.label(o.n, o.m), o.dep)
		}
	}
	for _, e := range w.history {
		fmt.Fprintf(h, "h %s %s %d\n", e.N, e.M, e.Label)
	}
	put("nominal", w.ops[w.nominal.lo:w.nominal.hi])
	put("explains", w.ops[w.explains.lo:w.explains.hi])
	put("xunions", w.ops[w.xunions.lo:w.xunions.hi])
	put("ladder", w.ops[w.ladder.lo:w.ladder.hi])
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeSyncHistory is the number of asserts write-sync's group 0 holds
// before the run: set-up then loads a journal, as a restarted node does,
// so setup_s is not only a few file creations and fsyncs.
const writeSyncHistory = 20_000

// smallClassHistory returns n asserts into small classes, as the
// write-sync stream makes them, over ids of their own ("wh...").
func smallClassHistory(rng *rand.Rand, or oracle, n int) []cert.Entry[string, int64] {
	g := newSmallClassGen(rng, "wh", nil, 1)
	g.stream(n, 1, 0)
	out := make([]cert.Entry[string, int64], len(g.all))
	for i, o := range g.all {
		out[i] = cert.Entry[string, int64]{N: o.n, M: o.m, Label: or.label(o.n, o.m), Reason: "history"}
	}
	return out
}

// smallClassGen generates writes into many small classes over a uniform
// id space far larger than any run: mostly fresh unions, a fifth
// redundant chords inside classes already built, and reads of the
// client's own recent writes. With a shard map it keeps every class
// inside one owner group and adds cross-shard unions.
type smallClassGen struct {
	rng    *rand.Rand
	prefix string
	m      *shard.Map
	groups int
	cls    [][][]string // per group: its classes, oldest first
	recent []int32      // indices of recent asserts (for reads)
	all    []op         // every op generated so far (indices are global)
}

const smallClassMax = 8

func newSmallClassGen(rng *rand.Rand, prefix string, m *shard.Map, groups int) *smallClassGen {
	return &smallClassGen{rng: rng, prefix: prefix, m: m, groups: groups, cls: make([][][]string, groups)}
}

// fresh returns an unused id owned by group gi. Ids are drawn uniformly
// from a space of 10^12 so no run ever exhausts or revisits it.
func (g *smallClassGen) fresh(gi int) string {
	for {
		id := fmt.Sprintf("%s%d", g.prefix, g.rng.Int63n(1_000_000_000_000))
		if g.m == nil || g.m.Owner(id) == gi {
			return id
		}
	}
}

// stream appends n ops: writeFrac asserts, xFrac cross-shard unions,
// the rest relation reads of recent writes.
func (g *smallClassGen) stream(n int, writeFrac, xFrac float64) {
	for _, k := range deck(g.rng, n, writeFrac, xFrac) {
		switch k {
		case 0:
			g.all = append(g.all, g.assert())
		case 1:
			g.all = append(g.all, g.xunion())
		default:
			g.all = append(g.all, g.read())
		}
	}
}

// deck returns n choices in random order: choice i (for each given
// fraction) appears exactly round(frac·n) times, the last choice fills
// the rest. Exact counts keep every op type's sample size fixed.
func deck(rng *rand.Rand, n int, fracs ...float64) []int {
	out := make([]int, 0, n)
	for i, f := range fracs {
		for c := int(math.Round(f * float64(n))); c > 0; c-- {
			out = append(out, i)
		}
	}
	for len(out) < n {
		out = append(out, len(fracs))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

func (g *smallClassGen) assert() op {
	gi := g.rng.Intn(g.groups)
	classes := g.cls[gi]
	idx := int32(len(g.all))
	// About a fifth of asserts are redundant chords in a class of 3+.
	if len(classes) > 0 && g.rng.Float64() < 0.2 {
		c := classes[len(classes)-1-g.rng.Intn(min(len(classes), 64))]
		if len(c) >= 3 {
			a, b := g.rng.Intn(len(c)), g.rng.Intn(len(c)-1)
			if b >= a {
				b++
			}
			g.noteRecent(idx)
			return op{kind: opAssert, n: c[a], m: c[b], dep: -1}
		}
	}
	// Fresh union: start a new class, or grow a recent one.
	if len(classes) == 0 || g.rng.Float64() < 0.3 {
		a, b := g.fresh(gi), g.fresh(gi)
		g.cls[gi] = append(classes, []string{a, b})
		g.noteRecent(idx)
		return op{kind: opAssert, n: a, m: b, dep: -1}
	}
	ci := len(classes) - 1 - g.rng.Intn(min(len(classes), 64))
	c := classes[ci]
	x := g.fresh(gi)
	anchor := c[g.rng.Intn(len(c))]
	if len(c) < smallClassMax {
		classes[ci] = append(c, x)
	} else {
		g.cls[gi] = append(classes, []string{anchor, x})
	}
	g.noteRecent(idx)
	return op{kind: opAssert, n: anchor, m: x, dep: -1}
}

func (g *smallClassGen) noteRecent(idx int32) {
	g.recent = append(g.recent, idx)
	if len(g.recent) > 256 {
		g.recent = g.recent[len(g.recent)-128:]
	}
}

// read picks one of the client's recent asserts and reads its pair.
func (g *smallClassGen) read() op {
	if len(g.recent) == 0 {
		return g.assert()
	}
	j := g.recent[len(g.recent)-1-g.rng.Intn(min(len(g.recent), 64))]
	a := g.all[j]
	return op{kind: opRelation, n: a.n, m: a.m, dep: j}
}

// xunion joins a recent class of one group to a fresh node of another.
func (g *smallClassGen) xunion() op {
	ga := g.rng.Intn(g.groups)
	gb := (ga + 1 + g.rng.Intn(g.groups-1)) % g.groups
	var a string
	if cs := g.cls[ga]; len(cs) > 0 {
		c := cs[len(cs)-1-g.rng.Intn(min(len(cs), 64))]
		a = c[g.rng.Intn(len(c))]
	} else {
		a = g.fresh(ga)
	}
	return op{kind: opXUnion, n: a, m: g.fresh(gb), dep: -1}
}

// explains appends n certificate requests for the pairs of asserts
// already generated; the probe runs after all of them were acknowledged.
func (g *smallClassGen) explains(n int) {
	var asserts []int32
	for i, o := range g.all {
		if o.kind == opAssert {
			asserts = append(asserts, int32(i))
		}
	}
	for k := 0; k < n && len(asserts) > 0; k++ {
		j := asserts[g.rng.Intn(len(asserts))]
		a := g.all[j]
		g.all = append(g.all, op{kind: opExplain, n: a.n, m: a.m, dep: j})
	}
}

// crossUnions appends n cross-shard unions between fresh node pairs of
// a map of the given size: one owned by group 0, one by another group.
func (g *smallClassGen) crossUnions(groups int, prefix string, n int) {
	m := shard.Map{Groups: make([]shard.Group, groups)}
	x := &smallClassGen{rng: g.rng, prefix: prefix, m: &m, groups: groups}
	for k := 0; k < n; k++ {
		g.all = append(g.all, op{kind: opXUnion, n: x.fresh(0), m: x.fresh(1 + g.rng.Intn(groups-1)), dep: -1})
	}
}

// deepHistory is read-deep's preloaded state: ~10^5 asserts over 5·10^4
// nodes in a few classes of 10^4+ nodes and many of under 10^2.
type deepHistory struct {
	rng     *rand.Rand
	or      oracle
	classes [][]string // ordered by size, largest first
	zipf    *rand.Zipf
	history []cert.Entry[string, int64]
	all     []op
	next    int
}

const (
	deepNodes   = 50_000
	deepAsserts = 100_000
)

var deepHot = []int{15_000, 12_000, 10_000}

func newDeepHistory(rng *rand.Rand, or oracle) *deepHistory {
	d := &deepHistory{rng: rng, or: or}
	var sizes []int
	sizes = append(sizes, deepHot...)
	left := deepNodes
	for _, s := range deepHot {
		left -= s
	}
	for left > 1 {
		s := 2 + rng.Intn(63)
		if s > left {
			s = left
		}
		sizes = append(sizes, s)
		left -= s
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	id := 0
	var tree, chords []cert.Entry[string, int64]
	for _, s := range sizes {
		c := make([]string, s)
		for i := range c {
			c[i] = fmt.Sprintf("d%d", id)
			id++
			if i > 0 { // random recursive tree
				p := c[rng.Intn(i)]
				tree = append(tree, d.entry(p, c[i]))
			}
		}
		d.classes = append(d.classes, c)
	}
	for len(tree)+len(chords) < deepAsserts {
		c := d.classes[rng.Intn(len(d.classes))]
		if len(c) < 3 {
			continue
		}
		a, b := d.pair(c)
		chords = append(chords, d.entry(a, b))
	}
	d.history = append(tree, chords...)
	rng.Shuffle(len(d.history), func(i, j int) { d.history[i], d.history[j] = d.history[j], d.history[i] })
	d.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(d.classes)-1))
	return d
}

func (d *deepHistory) entry(n, m string) cert.Entry[string, int64] {
	return cert.Entry[string, int64]{N: n, M: m, Label: d.or.label(n, m), Reason: "history"}
}

func (d *deepHistory) pair(c []string) (string, string) {
	a, b := d.rng.Intn(len(c)), d.rng.Intn(len(c)-1)
	if b >= a {
		b++
	}
	return c[a], c[b]
}

// stream appends n ops over Zipf(1.1)-chosen classes (rank 1 = the
// largest): 75% relation, 15% explain, 10% asserts into existing
// classes (half chords, half fresh leaves). Every read pair is related
// by the preloaded history.
func (d *deepHistory) stream(n int) {
	for _, k := range deck(d.rng, n, 0.75, 0.15, 0.05) {
		var o op
		ci := int(d.zipf.Uint64())
		c := d.classes[ci]
		a, b := d.pair(c)
		switch k {
		case 0:
			o = op{kind: opRelation, n: a, m: b, dep: depHistory}
		case 1:
			o = op{kind: opExplain, n: a, m: b, dep: depHistory}
		case 2:
			o = op{kind: opAssert, n: a, m: b, dep: -1}
		default:
			o = op{kind: opAssert, n: a, m: fmt.Sprintf("dn%d", d.next), dep: -1}
			d.next++
		}
		d.all = append(d.all, o)
	}
}

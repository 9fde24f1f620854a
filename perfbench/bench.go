package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/replica"
	"luf/internal/server"
)

// bench is one run of one workload.
type bench struct {
	o    options
	w    *workload
	tr   *tracer
	root string
	rep  *report

	c     *cluster
	conns int
	cls   []*client.Client       // per connection: group 0's primary
	scs   []*client.ShardCluster // per connection: shard-map routing
	acked []atomic.Bool          // per op: an acknowledged assert or union

	attempted, failed int
	wrongMu           sync.Mutex
	wrong             []string
	wrongN            int

	metrics map[string]metric
	ladderC int // next unused index into the ladder stream
}

// Set-up, recovery and catch-up are each timed repeatedly and reported
// as medians: at least minReps times, then again while their total stays
// under repBudget, at most maxReps times. Steps of a few milliseconds
// thus get enough repetitions for a steady median; read-deep's, which
// load 10^5 records, get minReps.
const (
	minReps   = 5
	maxReps   = 25
	repBudget = 2 * time.Second
)

// moreReps reports whether a step done r times, taking spent in all,
// should be timed again.
func moreReps(r int, spent []float64) bool {
	total := 0.0
	for _, s := range spent {
		total += s
	}
	return r < minReps || (r < maxReps && total < repBudget.Seconds())
}

func (b *bench) put(name, unit string, v float64) {
	if b.metrics == nil {
		b.metrics = map[string]metric{}
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// putUngated records a metric in the report and the printed lines but
// not in the result line: wall-clock latencies and rates move with the
// load other tenants put on a small shared box by more than any usable
// bound between runs (see README.md), so no gate rests on them.
func (b *bench) putUngated(name, unit string, v float64) {
	b.rep.Ungated[name] = metric{Value: v, Unit: unit}
}

func (b *bench) noteWrong(format string, args ...any) {
	b.wrongMu.Lock()
	defer b.wrongMu.Unlock()
	b.wrongN++
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
}

func (b *bench) wrongList() []string {
	b.wrongMu.Lock()
	defer b.wrongMu.Unlock()
	out := append([]string(nil), b.wrong...)
	if b.wrongN > len(out) {
		out = append(out, fmt.Sprintf("... and %d more", b.wrongN-len(out)))
	}
	return out
}

func (b *bench) result() *result {
	b.wrongMu.Lock()
	defer b.wrongMu.Unlock()
	return &result{Correct: b.wrongN == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}

func (b *bench) closeCluster() {
	if b.c != nil {
		b.c.close()
		b.c = nil
	}
}

// runAll sets up, runs every phase, checks the oracle and measures
// recovery and catch-up.
func (b *bench) runAll(ctx context.Context) error {
	w := b.w
	histDir := ""
	if len(w.history) > 0 {
		histDir = filepath.Join(b.root, "history")
		if err := writeHistory(histDir, w.history); err != nil {
			return fmt.Errorf("write history: %w", err)
		}
	}
	for r := 0; r == 0 || (!b.o.trace && moreReps(r, b.rep.Setups)); r++ {
		b.closeCluster()
		if r > 0 {
			if err := os.RemoveAll(filepath.Join(b.root, fmt.Sprintf("setup%d", r-1))); err != nil {
				return err
			}
		}
		dir := filepath.Join(b.root, fmt.Sprintf("setup%d", r))
		if histDir != "" {
			for _, d := range group0Dirs {
				if err := copyDir(histDir, filepath.Join(dir, d)); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		c, err := startCluster(ctx, w, b.tr, dir)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.rep.Setups = append(b.rep.Setups, time.Since(t0).Seconds())
		b.c = c
	}
	if !b.o.trace {
		b.put("setup_s", "s", median(b.rep.Setups))
	}
	if err := b.dial(); err != nil {
		return err
	}

	// Warm-up: caches fill and lazy start-up finishes off the clock.
	b.runPhase(ctx, "warmup", b.takeLadder(500), w.rate, 0)

	nominal := seq(w.nominal)
	if b.o.trace {
		return b.runTraced(ctx, nominal)
	}
	jb0, seq0 := b.journalTotals()
	cost0 := readCost()
	pr := b.runPhase(ctx, "nominal", nominal, w.rate, 0)
	cost := readCost().sub(cost0)
	if err := b.writeSamples("nominal", pr.samples); err != nil {
		return err
	}
	if err := b.checkGenerator(pr); err != nil {
		return err
	}
	b.putUngated("cpu_us_per_op", "us", cost.cpu.Seconds()*1e6/float64(len(pr.samples)))
	b.put("allocs_per_op", "count", float64(cost.allocs)/float64(len(pr.samples)))
	b.heap()
	jb1, seq1 := b.journalTotals()
	if seq1 > seq0 {
		b.put("disk_bytes_per_op", "bytes", float64(jb1-jb0)/float64(seq1-seq0))
	}
	all := append(pr.samples, b.runProbes(ctx)...)
	for k := opKind(0); k < numKinds; k++ {
		ms, _ := latencies(all, k)
		p50, ok50 := quantile(ms, 0.5)
		p99, windows, ok99 := windowedP99(all, k)
		if !ok50 || !ok99 {
			return fmt.Errorf("%s: %d samples cannot support a p99", metricPrefix[k], len(ms))
		}
		b.putUngated(metricPrefix[k]+"_p50_ms", "ms", p50)
		b.putUngated(metricPrefix[k]+"_p99_ms", "ms", p99)
		b.rep.WindowP99[metricPrefix[k]] = windows
	}
	// Recovery and catch-up are timed before the ladder: how far the
	// ladder climbs depends on the machine, and it grows the journal.
	if err := b.finish(ctx); err != nil {
		return err
	}
	b.ladder(ctx)
	if err := b.settle(ctx); err != nil {
		return err
	}
	b.checkAcked("after the ladder")
	return nil
}

// checkGenerator marks a run invalid when the generator fell behind
// its own schedule: sends late by more than a millisecond at the median
// (the schedule slipped, so the offered rate was not the nominal one),
// or late at p99 by more than the workload's latency limit.
func (b *bench) checkGenerator(pr phaseResult) error {
	late := make([]float64, len(pr.samples))
	for k, s := range pr.samples {
		late[k] = float64(s.push-s.sched) / 1e6
	}
	late = sortedFloats(late)
	p50, _ := quantile(late, 0.5)
	p99, _ := topQuantileV(late, 0.99)
	if p50 > 1 || p99 > b.w.limit {
		return fmt.Errorf("invalid run: the generator fell behind its schedule (late p50 %.2f ms, p99 %.2f ms, limit %.0f ms)", p50, p99, b.w.limit)
	}
	return nil
}

// runProbes runs the probe phases for op types the nominal mix lacks:
// certificate requests over every connection, then cross-shard unions
// over one connection. Two concurrent unions over the same two groups
// would collide in the participants' prepare windows, and each 503
// costs the client a one-second Retry-After, so the union probe
// measures the 2PC path without that collision.
func (b *bench) runProbes(ctx context.Context) []sample {
	var out []sample
	if r := b.w.explains; r.hi > r.lo {
		out = append(out, b.runPhase(ctx, "probe-explain", seq(r), b.w.explainHz, 0).samples...)
	}
	if r := b.w.xunions; r.hi > r.lo {
		conns := b.conns
		b.conns = 1
		out = append(out, b.runPhase(ctx, "probe-xunion", seq(r), b.w.xunionHz, 0).samples...)
		b.conns = conns
	}
	return out
}

// writeSamples writes one phase's per-op timings as CSV (ms from the
// phase origin) beside the report.
func (b *bench) writeSamples(phase string, ss []sample) error {
	var sb strings.Builder
	sb.WriteString("kind,sched_ms,push_ms,start_ms,end_ms,latency_ms,ok\n")
	for _, s := range ss {
		fmt.Fprintf(&sb, "%s,%.3f,%.3f,%.3f,%.3f,%.3f,%v\n", kindName[s.kind], float64(s.sched)/1e6,
			float64(s.push)/1e6, float64(s.start)/1e6, float64(s.end)/1e6, float64(s.latency())/1e6, s.ok)
	}
	name := fmt.Sprintf("samples-%s-%d-%s.csv", b.w.name, b.o.seed, phase)
	return os.WriteFile(filepath.Join(b.o.out, name), []byte(sb.String()), 0o644)
}

// seq lists the op indices of a range.
func seq(s opRange) []int {
	out := make([]int, 0, s.hi-s.lo)
	for i := s.lo; i < s.hi; i++ {
		out = append(out, i)
	}
	return out
}

// takeLadder returns the next n unused ops of the ladder stream.
func (b *bench) takeLadder(n int) []int {
	lo := b.w.ladder.lo + b.ladderC
	hi := min(lo+n, b.w.ladder.hi)
	b.ladderC = hi - b.w.ladder.lo
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// dial opens one client (and one shard-map client) per connection.
// GOMAXPROCS is nproc, and the connection count is nproc.
func (b *bench) dial() error {
	b.conns = runtime.GOMAXPROCS(0)
	b.cls, b.scs = nil, nil
	for i := 0; i < b.conns; i++ {
		b.cls = append(b.cls, client.New(b.c.groups[0].primary.url))
		sc, err := client.NewShardCluster(b.c.m, b.c.cnode.url)
		if err != nil {
			return err
		}
		b.scs = append(b.scs, sc)
	}
	return nil
}

// runPhase runs ops open-loop at rate and records the phase's summary.
func (b *bench) runPhase(ctx context.Context, name string, ops []int, rate float64, abortAfter int) phaseResult {
	kinds := make([]opKind, len(ops))
	for k, i := range ops {
		kinds[k] = b.w.ops[i].kind
	}
	p := phase{ops: ops, kinds: kinds, rate: rate, conns: b.conns, exec: b.exec, abortAfter: abortAfter}
	res := p.run(ctx)
	_, failed := latencies(res.samples, numKinds)
	b.attempted += len(res.samples)
	b.failed += failed
	late := make([]float64, len(res.samples))
	for k, s := range res.samples {
		late[k] = float64(s.push-s.sched) / 1e6
	}
	late = sortedFloats(late)
	lp, _ := topQuantileV(late, 0.99)
	b.rep.Phases[name] = phaseRM{RateHz: rate, Ops: len(res.samples), Failed: failed, LateP99MS: lp,
		Backlog: res.backlog, DurationS: res.duration.Seconds(),
		AchievedHz: float64(len(res.samples)) / res.duration.Seconds()}
	return res
}

// exec runs op i on connection c and checks its answer against the
// oracle. It reports whether the op succeeded; a wrong answer is also
// recorded as a correctness failure.
func (b *bench) exec(ctx context.Context, c int, i int) bool {
	o := b.w.ops[i]
	want := b.w.or.label(o.n, o.m)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var sp span
	if b.tr.on.Load() {
		seq := b.tr.next()
		sp = span{Seq: seq, ID: seq, Name: "op." + kindName[o.kind], Node: "client", Start: b.tr.now()}
		ctx = withTrace(ctx, traceCtx{id: seq, origin: "client", parent: seq})
		defer func() {
			sp.End = b.tr.now()
			b.tr.record(sp)
		}()
	}
	mustRelate := o.dep == depHistory || (o.dep >= 0 && b.acked[o.dep].Load())
	sharded := b.w.groups > 2
	ok := false
	var err error
	switch o.kind {
	case opAssert, opXUnion:
		if sharded || o.kind == opXUnion {
			_, err = b.scs[c].Assert(ctx, o.n, o.m, want, "perfbench")
		} else {
			_, err = b.cls[c].Assert(ctx, o.n, o.m, want, "perfbench")
		}
		if err == nil {
			b.acked[i].Store(true)
			ok = true
		} else if isConflict(err) {
			b.noteWrong("%s %s -> %s (label %d, consistent by construction) refused as a conflict: %v", kindName[o.kind], o.n, o.m, want, err)
		}
	case opRelation:
		var label int64
		var related bool
		if sharded {
			label, related, err = b.scs[c].Relation(ctx, o.n, o.m)
		} else {
			label, related, err = b.cls[c].Relation(ctx, o.n, o.m)
		}
		if err == nil {
			ok = true
			switch {
			case related && label != want:
				b.noteWrong("relation %s -> %s answered %d, oracle %d", o.n, o.m, label, want)
			case !related && mustRelate:
				b.noteWrong("relation %s -> %s answered unrelated after the relating assert was acknowledged", o.n, o.m)
			}
		}
	case opExplain:
		var label int64
		var x, y string
		if sharded {
			cc, e := b.scs[c].Explain(ctx, o.n, o.m)
			label, x, y, err = cc.Label, cc.X, cc.Y, e
		} else {
			cc, e := b.cls[c].Explain(ctx, o.n, o.m)
			label, x, y, err = cc.Label, cc.X, cc.Y, e
		}
		switch {
		case errors.Is(err, fault.ErrInvariantViolated):
			b.noteWrong("explain %s -> %s: certificate rejected by the checker: %v", o.n, o.m, err)
		case err != nil && mustRelate && isStatus(err, http.StatusNotFound):
			b.noteWrong("explain %s -> %s: no certificate for an acknowledged relation: %v", o.n, o.m, err)
		case err == nil:
			ok = true
			if x != o.n || y != o.m || label != want {
				b.noteWrong("explain %s -> %s: certificate proves %s -> %s = %d, oracle %d", o.n, o.m, x, y, label, want)
			}
		}
	}
	sp.Status = http.StatusOK
	if !ok {
		sp.Status = http.StatusInternalServerError
	}
	return ok
}

func isConflict(err error) bool {
	return errors.Is(err, fault.ErrConflict) || isStatus(err, http.StatusConflict)
}

func isStatus(err error, code int) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == code
}

// journalTotals sums journal bytes and last sequence numbers over the
// group primaries.
func (b *bench) journalTotals() (bytes int64, seq uint64) {
	for _, g := range b.c.groups {
		st := g.primary.server().Store()
		bytes += st.JournalSize()
		seq += st.LastSeq()
	}
	return bytes, seq
}

// cost is the process's CPU time (user and system) and heap allocation
// count so far. Per op, both count the whole deployment (client, nodes,
// coordinator, runtime); neither includes time the process waited.
type cost struct {
	cpu    time.Duration
	allocs uint64
}

func readCost() cost {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF and a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cost{cpu: cpu, allocs: ms.Mallocs}
}

func (c cost) sub(o cost) cost { return cost{cpu: c.cpu - o.cpu, allocs: c.allocs - o.allocs} }

// heap reports the in-use heap after a forced GC.
func (b *bench) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.put("heap_mb", "MB", float64(ms.HeapInuse)/(1<<20))
}

// rung is one step of the sustained-rate ladder.
type rung struct {
	RateHz float64 `json:"offered_ops_s"`
	Pass   bool    `json:"pass"`
	Why    string  `json:"why"`
}

// rungOps is the length of one ladder rung: enough for a p99 over all
// op types (1000 samples leave 10 beyond it).
const rungOps = 1500

// maxRungs bounds the ladder's length in a run.
const maxRungs = 5

// ladder finds sustained_ops_s: the highest rung of the workload's rate
// grid at which every op type's latency (p99, or the highest percentile
// its samples support) stays under the workload's limit, no op fails,
// and the due-queue does not grow. It climbs four rungs at a time from
// the nominal rate, then one at a time above the last passing rung, and
// stops after maxRungs. It reports 0 when no rung passed.
func (b *bench) ladder(ctx context.Context) {
	grid := b.w.ladderHz
	start := 0
	for start < len(grid)-1 && grid[start] < b.w.rate {
		start++
	}
	try := func(i int) bool {
		if len(b.rep.Ladder) >= maxRungs {
			return false
		}
		rate := grid[i]
		ops := b.takeLadder(rungOps)
		if len(ops) < rungOps {
			b.rep.Ladder = append(b.rep.Ladder, rung{RateHz: rate, Why: "ladder stream exhausted"})
			return false
		}
		// A backlog of a second of offered work is gross overload: stop
		// early. Slower growth shows in the queue-wait test.
		res := b.runPhase(ctx, fmt.Sprintf("ladder-%.0f", rate), ops, rate, int(rate))
		pass, why := b.rungVerdict(res)
		b.rep.Ladder = append(b.rep.Ladder, rung{RateHz: rate, Pass: pass, Why: why})
		time.Sleep(100 * time.Millisecond) // let queues and redrives settle between rungs
		return pass
	}
	best := -1
	i := start
	for i < len(grid) && try(i) {
		best = i
		i += 4
	}
	if best < 0 {
		for j := start - 1; j >= 0; j-- {
			if try(j) {
				best = j
				break
			}
		}
	} else {
		for j := best + 1; j < min(i, len(grid)) && try(j); j++ {
			best = j
		}
	}
	sustained := 0.0
	if best >= 0 {
		sustained = grid[best]
	}
	b.putUngated("sustained_ops_s", "ops/s", sustained)
}

func (b *bench) rungVerdict(res phaseResult) (bool, string) {
	if res.aborted {
		return false, fmt.Sprintf("due-queue grew past the abort threshold after %d ops", len(res.samples))
	}
	if q1, q4 := queueWait(res.samples); q4 > 4*q1+1 {
		return false, fmt.Sprintf("queue wait grew from %.2f ms to %.2f ms (median, first to last quarter)", q1, q4)
	}
	why := ""
	for k := opKind(0); k < numKinds; k++ {
		ms, failed := latencies(res.samples, k)
		if len(ms) == 0 {
			continue
		}
		if failed > 0 {
			return false, fmt.Sprintf("%d %s ops failed", failed, kindName[k])
		}
		v, q, ok := topQuantile(ms, 0.99)
		if !ok {
			v, q = ms[len(ms)-1], 1
		}
		if v > b.w.limit {
			return false, fmt.Sprintf("%s p%.1f %.2f ms > limit %.0f ms", kindName[k], q*100, v, b.w.limit)
		}
		why += fmt.Sprintf("%s p%.1f %.2f ms; ", kindName[k], q*100, v)
	}
	return true, why
}

// queueWait returns the median time ops waited for a free connection
// (start - sched, ms) over the first and the last quarter of a phase: a
// backlog that grows shows as a last quarter waiting far longer.
func queueWait(ss []sample) (first, last float64) {
	q := len(ss) / 4
	if q == 0 {
		return 0, 0
	}
	wait := func(part []sample) float64 {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = float64(s.start-s.sched) / 1e6
		}
		return median(xs)
	}
	return wait(ss[:q]), wait(ss[len(ss)-q:])
}

// settle waits until the coordinator has applied every committed union.
func (b *bench) settle(ctx context.Context) error {
	if err := waitFor(ctx, 30*time.Second, func() bool { return len(b.c.coord.InDoubt()) == 0 }); err != nil {
		return fmt.Errorf("committed unions never applied: %w", err)
	}
	return nil
}

// finish waits for the coordinator to apply every committed union,
// checks every acknowledged write against the oracle, then measures
// recovery (checking again after the reopen) and follower catch-up.
func (b *bench) finish(ctx context.Context) error {
	if err := b.settle(ctx); err != nil {
		return err
	}
	b.checkAcked("after the run")
	for r := 0; moreReps(r, b.rep.Recovers); r++ {
		d, err := b.recover(ctx)
		if err != nil {
			return err
		}
		b.rep.Recovers = append(b.rep.Recovers, d.Seconds())
	}
	b.checkAcked("after kill and reopen")
	if !b.o.trace {
		b.putUngated("recover_s", "s", median(b.rep.Recovers))
	}
	for r := 0; moreReps(r, b.rep.Catchups); r++ {
		d, err := b.catchup(ctx, r)
		if err != nil {
			return err
		}
		b.rep.Catchups = append(b.rep.Catchups, d.Seconds())
	}
	if !b.o.trace {
		b.putUngated("catchup_s", "s", median(b.rep.Catchups))
	}
	return nil
}

// checkAcked verifies every acknowledged assert and union on its owner
// primaries' union-find: each must relate its pair with the oracle
// label. Cross-shard unions are checked on both owners (the bridge
// edge lands on each).
func (b *bench) checkAcked(when string) {
	m := b.c.m
	for i := range b.w.ops {
		if !b.acked[i].Load() {
			continue
		}
		o := b.w.ops[i]
		want := b.w.or.label(o.n, o.m)
		owners := []int{0}
		if b.w.groups > 2 || o.kind == opXUnion {
			owners = []int{m.Owner(o.n)}
			if gb := m.Owner(o.m); gb != owners[0] {
				owners = append(owners, gb)
			}
		}
		for _, gi := range owners {
			uf := b.c.groups[gi].primary.server().UF()
			got, ok := uf.GetRelation(o.n, o.m)
			switch {
			case !ok:
				b.noteWrong("%s: acknowledged %s %s -> %s missing on %s", when, kindName[o.kind], o.n, o.m, m.Groups[gi].Name)
			case got != want:
				b.noteWrong("%s: acknowledged %s %s -> %s reads %d on %s, oracle %d", when, kindName[o.kind], o.n, o.m, got, m.Groups[gi].Name, want)
			}
		}
	}
}

// probePair returns a pair group 0 must relate: the first acknowledged
// group-0 assert, or a history record.
func (b *bench) probePair() (string, string, bool) {
	if len(b.w.history) > 0 {
		e := b.w.history[0]
		return e.N, e.M, true
	}
	for i, o := range b.w.ops {
		if o.kind == opAssert && b.acked[i].Load() && (b.w.groups <= 2 || b.c.m.Owner(o.n) == 0) {
			return o.n, o.m, true
		}
	}
	return "", "", false
}

// recover kills group 0's primary and reopens its directory (there are
// no snapshots: the whole journal replays), timing from the kill to the
// first correct relation answer over HTTP.
func (b *bench) recover(ctx context.Context) (time.Duration, error) {
	n, m, ok := b.probePair()
	if !ok {
		return 0, errors.New("recover: no acknowledged group-0 assert to probe")
	}
	want := b.w.or.label(n, m)
	p := b.c.groups[0].primary
	cfg := p.cfg
	cl := client.New(p.url)
	cl.MaxRetries = 0
	t0 := time.Now()
	p.kill()
	if err := p.start(cfg); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	err := waitFor(ctx, time.Minute, func() bool {
		label, related, err := cl.Relation(ctx, n, m)
		return err == nil && related && label == want
	})
	if err != nil {
		return 0, fmt.Errorf("recover: no correct answer after reopen: %w", err)
	}
	return time.Since(t0), nil
}

// catchup starts an empty follower and ships group 0's primary journal
// to it, timing until the follower's durable_seq equals the primary's.
// Every shipped record is re-proved by the follower before it is held.
func (b *bench) catchup(ctx context.Context, r int) (time.Duration, error) {
	p := b.c.groups[0].primary
	f, err := listen(b.tr, fmt.Sprintf("join%d", r), filepath.Join(b.c.root, fmt.Sprintf("join%d", r)))
	if err != nil {
		return 0, err
	}
	defer f.close()
	b.c.names[f.ln.Addr().String()] = f.name
	if err := f.start(server.Config{Role: server.RoleFollower, Seed: 3}); err != nil {
		return 0, err
	}
	st := p.server().Store()
	want := st.DurableSeq()
	sh := replica.NewShipper(replica.Config[string, int64]{
		Store: st, Self: "catchup-source", Peers: []replica.Peer{{Name: f.name, URL: f.url}},
		Interval: 5 * time.Millisecond, Seed: 4,
	})
	t0 := time.Now()
	sh.Start()
	defer sh.Stop()
	err = waitFor(ctx, 2*time.Minute, func() bool { return f.server().Store().DurableSeq() >= want })
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("catch-up to seq %d: %w", want, err)
	}
	return d, nil
}

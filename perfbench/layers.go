package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/concurrent"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/shard"
	"luf/internal/wal"
)

// fsyncLoop times n raw os.File.Sync calls after small appends in dir
// and returns the sorted durations in microseconds.
func fsyncLoop(dir string, n int) ([]float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return sortedFloats(out), nil
}

// putPct reports the q-quantile of xs as name. Where xs has too few
// samples for q, it reports the highest quantile xs supports (ten
// samples beyond it) and notes the substitution in the report.
func (b *bench) putPct(name, unit string, xs []float64, q float64) {
	s := sortedFloats(xs)
	v, used, ok := topQuantile(s, q)
	switch {
	case !ok && len(s) > 0:
		v = median(s)
		b.rep.Notes = append(b.rep.Notes, fmt.Sprintf("%s: only %d samples; reported their median", name, len(s)))
	case !ok:
		b.rep.Notes = append(b.rep.Notes, fmt.Sprintf("%s: no samples; reported 0", name))
	case used < q:
		b.rep.Notes = append(b.rep.Notes, fmt.Sprintf("%s: %d samples support p%.1f, reported in its place", name, len(s), used*100))
	}
	b.put(name, unit, v)
}

// ratio reports num/den as name (0 with a note when den is 0).
func (b *bench) ratio(name, unit string, num, den float64) {
	if den == 0 {
		b.rep.Notes = append(b.rep.Notes, fmt.Sprintf("%s: no denominator; reported 0", name))
		b.put(name, unit, 0)
		return
	}
	b.put(name, unit, num/den)
}

// primaryStats fetches /v1/stats from every group primary.
func (b *bench) primaryStats(ctx context.Context) []server.StatsResponse {
	out := make([]server.StatsResponse, len(b.c.groups))
	for gi, g := range b.c.groups {
		st, err := client.New(g.primary.url).Stats(ctx)
		if err == nil {
			out[gi] = st
		}
	}
	return out
}

// runTraced is the traced run. The first half of the nominal stream
// runs untraced and the second half traced, giving the tracing
// overhead; the probes, recovery and catch-up run traced; then the
// workload's op stream is replayed straight into the lower layers.
func (b *bench) runTraced(ctx context.Context, nominal []int) error {
	half := len(nominal) / 2
	untraced := b.runPhase(ctx, "nominal-untraced", nominal[:half], b.w.rate, 0)
	if err := b.checkGenerator(untraced); err != nil {
		return err
	}

	before := b.primaryStats(ctx)
	follower := b.c.groups[0].follower
	var durable0 uint64
	if follower != nil {
		durable0 = follower.server().Store().DurableSeq()
	}
	cstats0 := b.c.coord.StatsNow(ctx, time.Second)
	stopLag := b.sampleAckLag(ctx)
	b.tr.on.Store(true)
	traced := b.runPhase(ctx, "nominal-traced", nominal[half:], b.w.rate, 0)
	lags := stopLag()
	var durable1 uint64
	if follower != nil {
		durable1 = follower.server().Store().DurableSeq()
	}
	after := b.primaryStats(ctx)
	b.runProbes(ctx)
	if err := b.settle(ctx); err != nil {
		return err
	}
	cstats1 := b.c.coord.StatsNow(ctx, time.Second)
	if err := b.finish(ctx); err != nil {
		return err
	}
	b.tr.on.Store(false)
	spans := b.tr.take()
	for i := range spans {
		if spans[i].Name == "attempt" {
			spans[i].Node = b.c.nodeName(spans[i].Node)
		}
	}
	if err := writeSpans(filepath.Join(b.o.out, fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.o.seed)), spans); err != nil {
		return err
	}

	// Tracing overhead: all-op p50 latency, traced half against untraced.
	u, _ := latencies(untraced.samples, numKinds)
	t, _ := latencies(traced.samples, numKinds)
	up, _ := quantile(u, 0.5)
	tp, _ := quantile(t, 0.5)
	b.ratio("trace.overhead_p50_frac", "ratio", tp-up, up)

	// Generator.
	var late, wait []float64
	for _, s := range traced.samples {
		late = append(late, float64(s.push-s.sched)/1e6)
		wait = append(wait, float64(s.start-s.push)/1e6)
	}
	b.putPct("gen.late_p99_ms", "ms", late, 0.99)
	b.putPct("gen.conn_wait_p99_ms", "ms", wait, 0.99)

	b.spanMetrics(spans)
	b.statsMetrics(before, after, traced.samples)
	if follower != nil {
		b.ratio("replica.entries_per_batch", "entries", float64(durable1-durable0), float64(b.countReplicate(spans, follower.name)))
	} else {
		b.joinBatches(spans)
	}
	b.putPct("replica.ack_lag_p99_seq", "seq", lags, 0.99)
	b.ratio("shard.aborted_frac", "ratio", float64(cstats1.Aborted-cstats0.Aborted),
		float64(cstats1.Unions-cstats0.Unions+cstats1.Aborted-cstats0.Aborted))

	return b.replayLayers(ctx)
}

// sampleAckLag samples, every 10 ms, how far group 0's follower's acked
// watermark trails the primary's last sequence number (peers[].acked in
// /v1/stats). The returned stop function ends sampling and returns the
// samples; without a follower it returns none.
func (b *bench) sampleAckLag(ctx context.Context) func() []float64 {
	g := b.c.groups[0]
	if g.follower == nil {
		return func() []float64 { return nil }
	}
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var lags []float64
		cl := client.New(g.primary.url)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- lags
				return
			case <-tick.C:
			}
			st, err := cl.Stats(ctx)
			if err != nil {
				continue
			}
			for _, p := range st.Peers {
				if st.LastSeq >= p.Acked {
					lags = append(lags, float64(st.LastSeq-p.Acked))
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// spanMetrics derives the client, server, replica and shard metrics
// from the recorded spans.
func (b *bench) spanMetrics(spans []span) {
	handlers := map[uint64][]span{} // client-originated handler spans by request id
	var attempts, ops int
	srv := map[string][]float64{}
	var apply, union, prepare, bridge []float64
	var assertAttempts, refused503 int
	for _, s := range spans {
		node := s.Node
		switch s.Name {
		case "attempt":
			if s.Origin == "client" {
				attempts++
				if s.Path == "/v1/assert" {
					assertAttempts++
					if s.Status == 503 {
						refused503++
					}
				}
			}
		case "handler":
			ms := float64(s.dur()) / 1e6
			isPrimary := strings.HasPrefix(node, "g") && strings.HasSuffix(node, "p")
			if s.Origin == "client" && s.ID != 0 {
				handlers[s.ID] = append(handlers[s.ID], s)
			}
			switch {
			case s.Path == replica.ReplicatePath && (node == "g0f" || (b.c.groups[0].follower == nil && strings.HasPrefix(node, "join"))):
				apply = append(apply, ms)
			case node == "coord" && s.Path == shard.UnionPath:
				union = append(union, ms)
			case isPrimary && s.Path == server.PreparePath:
				prepare = append(prepare, ms)
			case isPrimary && s.Path == "/v1/assert" && s.Origin == "coord":
				bridge = append(bridge, ms)
			case isPrimary && s.Origin == "client":
				switch s.Path {
				case "/v1/assert", "/v1/relation", "/v1/explain":
					k := strings.TrimPrefix(s.Path, "/v1/")
					srv[k] = append(srv[k], ms)
				}
			}
		}
	}
	self := map[string][]float64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "op.") {
			continue
		}
		ops++
		k := strings.TrimPrefix(s.Name, "op.")
		if k == "xunion" {
			continue
		}
		self[k] = append(self[k], float64(selfTime(s, handlers[s.ID]))/1e6)
	}
	for _, k := range []string{"assert", "relation", "explain"} {
		b.putPct("client."+k+"_self_p50_ms", "ms", self[k], 0.5)
		b.putPct("server."+k+"_p50_ms", "ms", srv[k], 0.5)
		b.putPct("server."+k+"_p99_ms", "ms", srv[k], 0.99)
	}
	b.ratio("client.attempts_per_op", "ratio", float64(attempts), float64(ops))
	b.ratio("server.refused_503_frac", "ratio", float64(refused503), float64(assertAttempts))
	b.putPct("replica.apply_p50_ms", "ms", apply, 0.5)
	b.putPct("replica.apply_p99_ms", "ms", apply, 0.99)
	b.putPct("shard.union_p50_ms", "ms", union, 0.5)
	b.putPct("shard.union_p99_ms", "ms", union, 0.99)
	b.putPct("shard.prepare_p50_ms", "ms", prepare, 0.5)
	b.putPct("shard.prepare_p99_ms", "ms", prepare, 0.99)
	b.putPct("shard.bridge_assert_p50_ms", "ms", bridge, 0.5)
}

// selfTime is a span's duration minus the part of it its children
// cover (overlapping children counted once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	return time.Duration(parent.End - parent.Start - covered)
}

// countReplicate counts /v1/replicate handler spans on node.
func (b *bench) countReplicate(spans []span, node string) int {
	n := 0
	for _, s := range spans {
		if s.Name == "handler" && s.Node == node && s.Path == replica.ReplicatePath {
			n++
		}
	}
	return n
}

// joinBatches reports entries per batch from the catch-up followers
// when group 0 has no follower of its own.
func (b *bench) joinBatches(spans []span) {
	batches := 0
	for _, s := range spans {
		if s.Name == "handler" && strings.HasPrefix(s.Node, "join") && s.Path == replica.ReplicatePath {
			batches++
		}
	}
	entries := float64(b.c.groups[0].primary.server().Store().DurableSeq()) * float64(len(b.rep.Catchups))
	b.ratio("replica.entries_per_batch", "entries", entries, float64(batches))
}

// statsMetrics derives admission and union-find counters from /v1/stats
// deltas over the traced half.
func (b *bench) statsMetrics(before, after []server.StatsResponse, traced []sample) {
	var shed, served, finds, retries, adds, redundant int64
	for gi := range after {
		a, z := before[gi], after[gi]
		shed += z.Shed - a.Shed
		served += z.Served - a.Served
		finds += z.UF.Finds - a.UF.Finds
		retries += z.UF.Retries - a.UF.Retries
		adds += z.UF.AddCalls - a.UF.AddCalls
		redundant += z.UF.Redundant - a.UF.Redundant
	}
	b.ratio("server.shed_frac", "ratio", float64(shed), float64(served+shed))
	n := 0
	for _, s := range traced {
		if s.kind != opXUnion {
			n++
		}
	}
	b.ratio("concurrent.finds_per_op", "finds", float64(finds), float64(n))
	b.ratio("concurrent.retries_per_op", "retries", float64(retries), float64(n))
	b.ratio("concurrent.redundant_frac", "ratio", float64(redundant), float64(adds))
}

// replayLayers feeds the workload's recorded op stream straight into
// concurrent.UF, wal.Store, wal.Open/wal.Rebuild and cert's Explain and
// Check, timing each layer with no layer above it.
func (b *bench) replayLayers(ctx context.Context) error {
	g := group.Delta{}
	var ops []op
	for _, i := range seq(b.w.nominal) {
		ops = append(ops, b.w.ops[i])
	}

	// concurrent: one goroutine, history preloaded off the clock.
	uf := concurrent.New[string, int64](g)
	for _, e := range b.w.history {
		uf.AddRelationReason(e.N, e.M, e.Label, e.Reason)
	}
	var add, get []float64
	for _, o := range ops {
		want := b.w.or.label(o.n, o.m)
		t0 := time.Now()
		if o.kind == opAssert || o.kind == opXUnion {
			if !uf.AddRelationReason(o.n, o.m, want, "replay") {
				b.noteWrong("replay: concurrent.UF refused %s -> %s = %d as a conflict", o.n, o.m, want)
			}
			add = append(add, float64(time.Since(t0).Nanoseconds())/1e3)
			continue
		}
		got, ok := uf.GetRelation(o.n, o.m)
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
		if ok && got != want {
			b.noteWrong("replay: concurrent.UF answers %s -> %s = %d, oracle %d", o.n, o.m, got, want)
		}
	}
	b.putPct("concurrent.add_p50_us", "us", add, 0.5)
	b.putPct("concurrent.get_p50_us", "us", get, 0.5)

	// wal: append and group-commit the stream's asserts with nproc
	// committers into a fresh store.
	var entries []cert.Entry[string, int64]
	for _, o := range ops {
		if o.kind == opAssert || o.kind == opXUnion {
			entries = append(entries, cert.Entry[string, int64]{N: o.n, M: o.m, Label: b.w.or.label(o.n, o.m), Reason: "replay"})
		}
	}
	if err := b.replayWAL(entries); err != nil {
		return err
	}

	// wal.Open and wal.Rebuild on a copy of group 0's journal.
	src := b.c.groups[0].primary
	cp := filepath.Join(b.root, "open-copy")
	if err := copyDir(src.dir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	st, _, err := wal.Open(cp, g, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return fmt.Errorf("replay wal.Open: %w", err)
	}
	b.put("wal.open_s", "s", time.Since(t0).Seconds())
	hist := st.Entries()
	if err := st.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	_, journal, err := wal.Rebuild(g, hist)
	if err != nil {
		return fmt.Errorf("replay wal.Rebuild: %w", err)
	}
	b.put("wal.rebuild_s", "s", time.Since(t0).Seconds())

	// cert: Explain and Check on the workload's explain pairs, against
	// the journal of the group that owns each pair.
	journals := map[int]*cert.SyncJournal[string, int64]{0: journal}
	var ex, ck, steps []float64
	for _, i := range append(seq(b.w.nominal), seq(b.w.explains)...) {
		o := b.w.ops[i]
		if o.kind != opExplain {
			continue
		}
		gi := 0
		if b.w.groups > 2 {
			gi = b.c.m.Owner(o.n)
		}
		j, ok := journals[gi]
		if !ok {
			_, j, err = wal.Rebuild(g, b.c.groups[gi].primary.server().Store().Entries())
			if err != nil {
				return fmt.Errorf("replay wal.Rebuild of %s: %w", b.c.m.Groups[gi].Name, err)
			}
			journals[gi] = j
		}
		t0 := time.Now()
		c, err := j.Explain(o.n, o.m)
		ex = append(ex, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			b.noteWrong("replay: no certificate for %s -> %s: %v", o.n, o.m, err)
			continue
		}
		t0 = time.Now()
		err = cert.Check(c, g)
		ck = append(ck, float64(time.Since(t0).Nanoseconds())/1e3)
		steps = append(steps, float64(len(c.Steps)))
		if err != nil || c.Label != b.w.or.label(o.n, o.m) {
			b.noteWrong("replay: certificate %s -> %s = %d rejected or off the oracle: %v", o.n, o.m, c.Label, err)
		}
	}
	b.putPct("cert.explain_p50_us", "us", ex, 0.5)
	b.putPct("cert.explain_p99_us", "us", ex, 0.99)
	b.putPct("cert.check_p50_us", "us", ck, 0.5)
	b.putPct("cert.check_p99_us", "us", ck, 0.99)
	mean := 0.0
	for _, s := range steps {
		mean += s
	}
	b.ratio("cert.steps_mean", "steps", mean, float64(len(steps)))
	b.putPct("cert.steps_p99", "steps", steps, 0.99)

	fs, err := fsyncLoop(b.root, 200)
	if err != nil {
		return err
	}
	b.putPct("wal.fsync_p50_us", "us", fs, 0.5)
	return nil
}

// replayWAL appends entries into a fresh store from nproc committer
// goroutines, each committing (fsync, grouped) after every append.
func (b *bench) replayWAL(entries []cert.Entry[string, int64]) error {
	dir := filepath.Join(b.root, "wal-replay")
	st, _, err := wal.Open(dir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return err
	}
	type timing struct{ app, com []float64 }
	ts := make([]timing, b.conns)
	errs := make([]error, b.conns)
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(entries); i += b.conns {
				t0 := time.Now()
				seq, err := st.Append(entries[i])
				t1 := time.Now()
				if err == nil {
					err = st.Commit(seq)
				}
				if err != nil {
					errs[c] = err
					return
				}
				ts[c].app = append(ts[c].app, float64(t1.Sub(t0).Nanoseconds())/1e3)
				ts[c].com = append(ts[c].com, float64(time.Since(t1).Nanoseconds())/1e3)
			}
		}(c)
	}
	wg.Wait()
	var app, com []float64
	for _, t := range ts {
		app = append(app, t.app...)
		com = append(com, t.com...)
	}
	records, size := st.LastSeq(), st.JournalSize()
	if err := st.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replay wal: %w", err)
		}
	}
	b.putPct("wal.append_p50_us", "us", app, 0.5)
	b.putPct("wal.commit_p50_us", "us", com, 0.5)
	b.putPct("wal.commit_p99_us", "us", com, 0.99)
	b.ratio("wal.bytes_per_record", "bytes", float64(size), float64(records))
	return nil
}

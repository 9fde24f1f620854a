package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the timing of one dispatched op, in nanoseconds since the
// phase's time origin. Latency runs from sched (when the op was due),
// so a stall charges every op queued behind it.
type sample struct {
	kind  opKind
	sched int64 // due time
	push  int64 // handed to the connection queue by the generator
	start int64 // picked up by a free connection
	end   int64
	ok    bool
}

func (s sample) latency() time.Duration { return time.Duration(s.end - s.sched) }

// execFunc runs op i on connection c and reports whether it succeeded.
type execFunc func(ctx context.Context, c int, i int) bool

// phase is one open-loop run of a fixed schedule: ops[i] is due at
// origin + i/rate.
type phase struct {
	ops   []int // indices into workload.ops, in send order
	kinds []opKind
	rate  float64
	conns int
	exec  execFunc
	// abortAfter, when > 0, stops dispatching once the due-queue holds
	// more than this many ops (the ladder's growing-backlog test). The
	// ops never sent are not attempted.
	abortAfter int
}

// phaseResult is what an open-loop phase measured.
type phaseResult struct {
	samples  []sample // dispatched ops only, in schedule order
	aborted  bool     // the due-queue outgrew abortAfter
	backlog  int      // due-queue depth when dispatching ended
	duration time.Duration
}

// run dispatches the schedule from one generator goroutine through at
// most p.conns connections and waits for every dispatched op.
func (p phase) run(ctx context.Context) phaseResult {
	n := len(p.ops)
	res := phaseResult{samples: make([]sample, n)}
	queue := make(chan int, n) // sized to the schedule: the generator never blocks
	var abort atomic.Bool
	var wg sync.WaitGroup
	origin := time.Now().Add(2 * time.Millisecond)
	since := func() int64 { return int64(time.Since(origin)) }
	for c := 0; c < p.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queue {
				if abort.Load() {
					continue
				}
				s := &res.samples[k]
				s.start = since()
				s.ok = p.exec(ctx, c, p.ops[k])
				s.end = since()
			}
		}(c)
	}
	interval := float64(time.Second) / p.rate
	sent := n
	for k := 0; k < n; k++ {
		due := int64(float64(k) * interval)
		if d := due - since(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if p.abortAfter > 0 && len(queue) > p.abortAfter {
			abort.Store(true)
			sent = k
			break
		}
		res.samples[k] = sample{kind: p.kinds[k], sched: due, push: since()}
		queue <- k
	}
	res.backlog = len(queue)
	close(queue)
	wg.Wait()
	res.duration = time.Duration(since())
	res.aborted = abort.Load()
	if res.aborted {
		// Ops queued but skipped after the abort were never attempted.
		kept := res.samples[:0]
		for _, s := range res.samples[:sent] {
			if s.end != 0 {
				kept = append(kept, s)
			}
		}
		res.samples = kept
	} else {
		res.samples = res.samples[:sent]
	}
	return res
}

// quantile returns the q-quantile (nearest rank) of sorted values, and
// false unless at least ten samples lie beyond it: a p99 needs 1000
// samples, a p50 needs 20.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	return sorted[rank-1], true
}

// topQuantile returns the highest quantile at most qmax that has ten
// samples beyond it, with the quantile used; ok is false below 20
// samples.
func topQuantile(sorted []float64, qmax float64) (v, q float64, ok bool) {
	n := float64(len(sorted))
	q = math.Min(qmax, math.Floor((n-10)/n*1000)/1000)
	if q < 0.5 {
		return 0, 0, false
	}
	v, ok = quantile(sorted, q)
	return v, q, ok
}

// sortedFloats copies xs and sorts the copy.
func sortedFloats(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedFloats(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxWindows bounds how many windows windowedP99 splits samples into.
const maxWindows = 10

// windowedP99 is the p99 latency (ms) of the samples of kind k, taken
// as the median over consecutive windows of 1000 or more of them (at
// most maxWindows; one window when there are under 2000). A stall that
// hits one window moves that window's p99 only, so the figure is
// steady across runs; each window's p99 is returned for the report.
func windowedP99(ss []sample, k opKind) (float64, []float64, bool) {
	var own []sample
	for _, s := range ss {
		if s.kind == k {
			own = append(own, s)
		}
	}
	n := min(maxWindows, len(own)/1000)
	if n == 0 {
		return 0, nil, false
	}
	var ps []float64
	for w := 0; w < n; w++ {
		ms, _ := latencies(own[w*len(own)/n:(w+1)*len(own)/n], k)
		p, ok := quantile(ms, 0.99)
		if !ok {
			return 0, nil, false
		}
		ps = append(ps, p)
	}
	return median(ps), ps, true
}

// opTimeout is each op's deadline. A failed op is charged this latency,
// so it misses every latency limit.
const opTimeout = 5 * time.Second

// latencies returns the sorted latencies in ms of the samples of kind k
// (all kinds when k == numKinds) and how many of them failed.
func latencies(ss []sample, k opKind) (ms []float64, failed int) {
	for _, s := range ss {
		if k != numKinds && s.kind != k {
			continue
		}
		if !s.ok {
			failed++
			ms = append(ms, float64(opTimeout)/1e6)
			continue
		}
		ms = append(ms, float64(s.latency())/1e6)
	}
	sort.Float64s(ms)
	return ms, failed
}

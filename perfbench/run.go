package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

const (
	nconns = 2 // the host has 2 vCPUs
	// pumpQueue buffers submitted operations between a connection's sender
	// and receiver. It is larger than the wire pipeline window (64
	// frames), so a sender blocks on the window, never on this queue.
	pumpQueue = 1024
	// maxCycleWait bounds each wait of a failover cycle.
	maxCycleWait = 60 * time.Second
)

// plan is one run's settings.
type plan struct {
	w       *workload
	seed    int64
	seconds float64
	out     string // directory for data directories and span files
	rounds  int    // each on a fresh stack, seconds/rounds long
	traced  bool
}

func (p plan) roundSecs() float64 { return p.seconds / float64(p.rounds) }
func (p plan) openDur() time.Duration {
	return time.Duration(0.7 * p.roundSecs() * float64(time.Second))
}
func (p plan) warmDur() time.Duration { return p.openDur() / 6 }
func (p plan) satDur() time.Duration {
	return time.Duration(0.3 * p.roundSecs() * float64(time.Second))
}

// tally counts one connection's operations and what they acknowledged.
type tally struct {
	attempted, failed, wrong int64
	firstProblem             string
	ackQty, ackAmt, ackTxns  int64 // acknowledged effects on the totals
	unsureQty, unsureAmt     int64 // effects of writes that failed: maybe applied
	unsureTxns               int64
	acked                    []int64 // acknowledged inserted ids
}

func (t *tally) add(w *workload, r request, out outcome, why string) {
	t.attempted++
	if out != outOK {
		t.failed++
		if out == outWrong {
			t.wrong++
		}
		if t.firstProblem == "" {
			t.firstProblem = why
		}
	}
	if r.kind != opWrite {
		return
	}
	switch {
	case out == outOK && w.txn:
		t.ackAmt += r.amt
		t.ackTxns++
	case out == outOK && w.insert:
		t.acked = append(t.acked, r.uid)
	case out == outOK:
		t.ackQty++
	case w.txn:
		t.unsureAmt += r.amt
		t.unsureTxns++
	case !w.insert:
		t.unsureQty++
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstProblem == "" {
		t.firstProblem = o.firstProblem
	}
	t.ackQty += o.ackQty
	t.ackAmt += o.ackAmt
	t.ackTxns += o.ackTxns
	t.unsureQty += o.unsureQty
	t.unsureAmt += o.unsureAmt
	t.unsureTxns += o.unsureTxns
	t.acked = append(t.acked, o.acked...)
}

// frameRec is the client side of one exec frame of a traced run.
type frameRec struct {
	op         int32 // schedule index of the operation
	kind       opKind
	sent, done int64
}

// connTrace is one connection's open-loop frames, indexed from the
// connection's first exec frame; base[i] is operation i's first frame.
type connTrace struct {
	frames []frameRec
	base   []int32
}

func newConnTrace(w *workload, sched []scheduled) *connTrace {
	ct := &connTrace{base: make([]int32, len(sched))}
	n := int32(0)
	for i := range sched {
		ct.base[i] = n
		n += int32(framesOf(w, sched[i].req))
	}
	ct.frames = make([]frameRec, n)
	return ct
}

func framesOf(w *workload, r request) int {
	if w.txn && r.kind == opWrite {
		return 4
	}
	return 1
}

// loopStats is what a connection's open loop measured.
type loopStats struct {
	tally
	inflightSum, inflightN int64
}

// openLoop sends each scheduled request when it falls due, without
// waiting for earlier ones, and waits for results in order on a second
// goroutine. It returns when every sent request has completed; stop, when
// set, ends sending early.
func openLoop(c *client, sched []scheduled, stop *atomic.Bool, ct *connTrace) *loopStats {
	ls := &loopStats{}
	ch := make(chan inflight, pumpQueue)
	var completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range ch {
			var onFrame func(int)
			if ct != nil {
				b := ct.base[f.idx]
				onFrame = func(k int) { ct.frames[b+int32(k)].done = now() }
			}
			out, why := c.complete(&f, onFrame)
			sched[f.idx].done = now()
			sched[f.idx].ok = out == outOK
			completed.Add(1)
			ls.add(c.w, f.req, out, why)
		}
	}()
	for i := range sched {
		if stop != nil && stop.Load() {
			break
		}
		if d := sched[i].due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := now()
		sched[i].sent = sent
		ls.inflightSum += int64(i) - completed.Load()
		ls.inflightN++
		f := c.issue(sched[i].req)
		f.idx = i
		if ct != nil {
			for k := 0; k < f.n; k++ {
				ct.frames[ct.base[i]+int32(k)] = frameRec{op: int32(i), kind: f.req.kind, sent: sent}
			}
		}
		ch <- f
	}
	close(ch)
	wg.Wait()
	return ls
}

// satWindow is the width of the saturation phase's throughput windows.
const satWindow = 500 * time.Millisecond

// saturate keeps c's pipeline window full from start until end and counts
// the operations completed successfully in each satWindow-wide window.
func saturate(c *client, seed int64, conn int, start, end int64, t *tally) []int64 {
	s := newStream(c.w, seed, conn, phaseSat)
	ch := make(chan inflight, pumpQueue)
	okIn := make([]int64, (end-start)/int64(satWindow))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range ch {
			out, why := c.complete(&f, nil)
			if w := (now() - start) / int64(satWindow); out == outOK && w < int64(len(okIn)) {
				okIn[w]++
			}
			t.add(c.w, f.req, out, why)
		}
	}()
	for now() < end {
		ch <- c.issue(s.next())
	}
	close(ch)
	wg.Wait()
	return okIn
}

// sampler polls process and cluster gauges while the phases run. The
// heap peak is taken over the open loop only, whose work is fixed, so it
// does not follow how much the saturation phase got done.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	openDone    atomic.Bool
	heapPeak    atomic.Uint64
	lag         []int64
	checkpoints int
}

func startSampler(st *stack, traced bool) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		lastCkpt := ""
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if !s.openDone.Load() {
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > s.heapPeak.Load() {
					s.heapPeak.Store(v)
				}
			}
			if !traced {
				continue
			}
			s.lag = append(s.lag, int64(st.maxLag()))
			if st.durable != nil {
				if name, _, ok := st.durable.RecoveryLog().LatestCheckpoint(); ok && name != lastCkpt {
					if lastCkpt != "" {
						s.checkpoints++
					}
					lastCkpt = name
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// cycleTimes is what the failover cycles measured.
type cycleTimes struct {
	kills   []int64 // when each master was failed
	rejoins []int64 // Recover() to re-attachment, ns
}

// killCycles fails the master w.cycles times while the open loop runs.
// Each cycle waits for the monitor to promote a slave, recovers the old
// master and waits until the monitor has re-attached it as a slave.
func killCycles(st *stack, gap time.Duration) (*cycleTimes, error) {
	mon := st.durable.Monitor()
	ct := &cycleTimes{}
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(maxCycleWait)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("failover cycle: %s not seen after %v", what, maxCycleWait)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}
	for i := 0; i < st.w.cycles; i++ {
		time.Sleep(gap)
		old := st.ms.Master()
		f0, r0 := mon.Failovers(), mon.Rejoins()
		ct.kills = append(ct.kills, now())
		old.Fail()
		if err := waitFor("promotion", func() bool { return mon.Failovers() > f0 }); err != nil {
			return ct, err
		}
		time.Sleep(gap)
		t := now()
		old.Recover()
		if err := waitFor("rejoin", func() bool { return mon.Rejoins() > r0 }); err != nil {
			return ct, err
		}
		ct.rejoins = append(ct.rejoins, now()-t)
	}
	time.Sleep(gap)
	return ct, nil
}

// outcome of one measured run of a workload.
type runResult struct {
	setups    []float64           // seconds
	lat       [][numKinds][]int64 // per round
	late      []int64
	windows   []float64 // saturation throughput per satWindow, ops/s
	heapPeaks []float64 // bytes
	tally     tally
	lost      int64
	failovers []int64 // kill to first acknowledged write, ns
	rejoins   []int64
	problems  []string

	// Traced runs only.
	layers map[string]float64
}

// pooled returns every round's latency samples of kind k, sorted.
func (r *runResult) pooled(k opKind) []int64 {
	var all []int64
	for i := range r.lat {
		all = append(all, r.lat[i][k]...)
	}
	return sortedCopy(all)
}

// latency returns the p-quantile of kind k in ms: the median over rounds
// of each round's quantile when every round has at least minTail samples
// beyond it, otherwise the quantile of the pooled samples. ok is false
// when even the pooled samples do not support it.
func (r *runResult) latency(k opKind, p float64) (ms float64, ok bool) {
	var per []float64
	for i := range r.lat {
		if !supported(len(r.lat[i][k]), p) {
			all := r.pooled(k)
			return nsToMs(percentile(all, p)), supported(len(all), p)
		}
		per = append(per, nsToMs(percentile(sortedCopy(r.lat[i][k]), p)))
	}
	return medianFloat(per), len(per) > 0
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run measures p.rounds rounds and pools them: latency samples and
// saturation windows are pooled, set-up time and peak heap are the median
// over rounds. Each round builds a fresh stack, so state the program
// accumulates (binlogs, history rows) grows for one round only and the
// rounds are alike.
func run(p plan) (*runResult, error) {
	res := &runResult{}
	for r := 0; r < p.rounds; r++ {
		if err := runRound(p, r, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runRound builds the workload's stack, drives it through the open-loop
// and saturation phases, verifies the outcome and adds it to res.
func runRound(p plan, round int, res *runResult) error {
	dir := filepath.Join(p.out, "data", fmt.Sprintf("%s-%d-%d-%v", p.w.name, p.seed, round, p.traced))
	runtime.GC()
	t0 := time.Now()
	st, err := buildStack(p.w, dir, nconns, p.traced)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	defer st.close()
	runtime.GC()
	seed := p.seed*16 + int64(round)

	// Open loop at the fixed offered rate, each connection taking half.
	w := p.w
	openFor := p.openDur()
	if w.cycles > 0 {
		// Runs until the kill cycles end; this only bounds the schedule.
		openFor = 150 * time.Second
	}
	scheds := make([][]scheduled, nconns)
	cts := make([]*connTrace, nconns)
	for i := range scheds {
		scheds[i] = schedule(w, seed, i, w.rate/nconns, openFor)
		if p.traced {
			cts[i] = newConnTrace(w, scheds[i])
		}
	}
	before := snapshotCounters(st)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	smp := startSampler(st, p.traced)

	var stop atomic.Bool
	var cyc *cycleTimes
	var cycErr error
	var cycWG sync.WaitGroup
	// Rebase the schedules so the first request is due now.
	start := now()
	for _, sc := range scheds {
		for i := range sc {
			sc[i].due += start
		}
	}
	if w.cycles > 0 {
		cycWG.Add(1)
		go func() {
			defer cycWG.Done()
			cyc, cycErr = killCycles(st, p.warmDur())
			stop.Store(true)
		}()
	}
	loops := make([]*loopStats, nconns)
	var wg sync.WaitGroup
	for i := range st.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loops[i] = openLoop(st.clients[i], scheds[i], &stop, cts[i])
		}(i)
	}
	wg.Wait()
	smp.openDone.Store(true)
	cycWG.Wait()
	if cycErr != nil {
		res.problem("%v", cycErr)
	}

	// Saturation: both connections keep their pipeline window full.
	satStart := now()
	satEnd := satStart + int64(p.satDur())
	okIn := make([][]int64, nconns)
	satTally := make([]tally, nconns)
	for i := range st.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			okIn[i] = saturate(st.clients[i], seed, i, satStart, satEnd, &satTally[i])
		}(i)
	}
	wg.Wait()
	smp.finish()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after := snapshotCounters(st)

	for w := range okIn[0] {
		res.windows = append(res.windows, float64(okIn[0][w]+okIn[1][w])/satWindow.Seconds())
	}
	res.heapPeaks = append(res.heapPeaks, float64(smp.heapPeak.Load()))
	warmEnd := start + int64(p.warmDur())
	var rt tally
	var lat [numKinds][]int64
	for i := range loops {
		rt.merge(&loops[i].tally)
		rt.merge(&satTally[i])
		for _, s := range scheds[i] {
			if s.sent == 0 || s.due < warmEnd {
				continue
			}
			lat[s.req.kind] = append(lat[s.req.kind], s.done-s.due)
			res.late = append(res.late, s.sent-s.due)
		}
	}
	res.lat = append(res.lat, lat)
	if cyc != nil {
		fo := firstAcks(scheds, cyc.kills)
		for i := range fo {
			fmt.Fprintf(os.Stderr, "perfbench: round %d cycle %d: failover %.1f ms\n", round+1, i+1, nsToMs(fo[i]))
		}
		for i := range cyc.rejoins {
			fmt.Fprintf(os.Stderr, "perfbench: round %d cycle %d: rejoin %.1f ms\n", round+1, i+1, nsToMs(cyc.rejoins[i]))
		}
		res.failovers = append(res.failovers, fo...)
		res.rejoins = append(res.rejoins, cyc.rejoins...)
	}
	if err := verify(st, &rt, &res.lost); err != nil {
		res.problem("%v", err)
	}
	if rt.wrong > 0 {
		res.problem("%d wrong results, first: %s", rt.wrong, rt.firstProblem)
	}
	res.tally.merge(&rt)
	if p.traced {
		res.layers = layerMetrics(p, st, res, &observed{
			tally: &rt, scheds: scheds, cts: cts, warmEnd: warmEnd, loops: loops,
			before: before, after: after, ms0: &ms0, ms1: &ms1, smp: smp,
		})
		if err := writeSpans(p, st, scheds, cts); err != nil {
			res.problem("%v", err)
		}
	}
	return nil
}

// firstAcks returns, per kill, the time to the first write sent after it
// that was acknowledged.
func firstAcks(scheds [][]scheduled, kills []int64) []int64 {
	var out []int64
	for _, k := range kills {
		best := int64(-1)
		for _, sc := range scheds {
			for _, s := range sc {
				if s.req.kind == opWrite && s.ok && s.sent >= k && (best < 0 || s.done < best) {
					best = s.done
				}
			}
		}
		if best >= 0 {
			out = append(out, best-k)
		}
	}
	return out
}

// verify waits for the slaves, compares replicas and checks the totals a
// STRONG read returns against the acknowledged writes.
func verify(st *stack, t *tally, lost *int64) error {
	if err := st.waitCaughtUp(); err != nil {
		return err
	}
	if err := st.checkDivergence(); err != nil {
		return err
	}
	w := st.w
	c := st.clients[0].conn
	if _, err := c.Exec("SET CONSISTENCY STRONG"); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	resp, err := c.Exec("SELECT COUNT(*), SUM(qty) FROM items")
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 2 {
		return fmt.Errorf("verify: totals of items returned %v", resp.Rows)
	}
	count, sum := resp.Rows[0][0].Int(), resp.Rows[0][1].Int()
	base := int64(w.rows) * initialQty
	lo, hi := base+t.ackQty+t.ackAmt, base+t.ackQty+t.ackAmt+t.unsureQty+t.unsureAmt
	if count != int64(w.rows) || sum < lo || sum > hi {
		return fmt.Errorf("verify: items hold %d rows summing to %d; want %d rows summing to [%d, %d]", count, sum, w.rows, lo, hi)
	}
	if w.txn {
		resp, err := c.Exec("SELECT COUNT(*), SUM(amt) FROM history")
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 2 {
			return fmt.Errorf("verify: totals of history returned %v", resp.Rows)
		}
		n, amt := resp.Rows[0][0].Int(), resp.Rows[0][1].Int()
		if n < t.ackTxns || n > t.ackTxns+t.unsureTxns || amt != sum-base {
			return fmt.Errorf("verify: history holds %d rows summing to %d; want [%d, %d] rows summing to %d",
				n, amt, t.ackTxns, t.ackTxns+t.unsureTxns, sum-base)
		}
	}
	if w.insert {
		resp, err := c.Exec("SELECT id FROM events")
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		have := make(map[int64]bool, len(resp.Rows))
		for _, r := range resp.Rows {
			have[r[0].Int()] = true
		}
		var n int64
		for _, id := range t.acked {
			if !have[id] {
				n++
			}
		}
		*lost += n
		if n > 0 {
			return fmt.Errorf("verify: %d acknowledged inserts lost", n)
		}
	}
	return nil
}

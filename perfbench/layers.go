package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/replication"
)

// counters is a snapshot of the cumulative counters the program exposes.
type counters struct {
	admAdmitted, admQueued, admShed, admExpired uint64
	qcHits, qcMisses, qcInval, qcEvict          uint64
	parseHits, parseMisses                      uint64
	gcCommits, gcSyncs                          uint64
	applyEvents, applyBatches                   uint64
}

func snapshotCounters(st *stack) counters {
	var c counters
	if st.adm != nil {
		a := st.adm.Stats()
		c.admAdmitted, c.admQueued, c.admShed, c.admExpired = a.Admitted, a.Queued, a.ShedTotal(), a.Expired
	}
	q := st.qc.Stats()
	c.qcHits, c.qcMisses, c.qcInval, c.qcEvict = q.Hits, q.Misses, q.InvalidationEvents, q.Evictions
	c.parseHits, c.parseMisses, _ = sqlparse.CacheStats()
	if st.durable != nil && st.durable.GroupCommitter() != nil {
		c.gcCommits, c.gcSyncs = st.durable.GroupCommitter().Stats()
	}
	for _, sc := range st.subClusters() {
		for _, sl := range sc.Slaves() {
			e, b := sl.ApplyStats()
			c.applyEvents += e
			c.applyBatches += b
		}
	}
	return c
}

// observed is what a traced round recorded for layerMetrics.
type observed struct {
	tally         *tally
	scheds        [][]scheduled
	cts           []*connTrace
	warmEnd       int64 // requests due before it are warm-up
	loops         []*loopStats
	before, after counters
	ms0, ms1      *runtime.MemStats
	smp           *sampler
}

// layerMetrics derives the per-layer numbers of a traced round.
func layerMetrics(p plan, st *stack, res *runResult, o *observed) map[string]float64 {
	m := map[string]float64{}
	t, before, after, smp := o.tally, o.before, o.after, o.smp

	// wire and core: a frame's client span minus its backend span is the
	// wire's share; an operation's backend spans summed are the core's.
	var overhead []int64
	var core [numKinds][]int64
	var inflightSum, inflightN int64
	for i, ct := range o.cts {
		spans := st.tb.spans(i)
		sc := o.scheds[i]
		opCore := make(map[int32]int64)
		for j, f := range ct.frames {
			if f.sent == 0 || j >= len(spans) {
				break
			}
			if sc[f.op].due < o.warmEnd {
				continue
			}
			be := spans[j].end - spans[j].start
			overhead = append(overhead, (f.done-f.sent)-be)
			opCore[f.op] += be
		}
		for op, d := range opCore {
			core[sc[op].req.kind] = append(core[sc[op].req.kind], d)
		}
		inflightSum += o.loops[i].inflightSum
		inflightN += o.loops[i].inflightN
	}
	ov := sortedCopy(overhead)
	m["wire.overhead_us.p50"] = nsToUs(percentile(ov, 0.50))
	m["wire.overhead_us.p99"] = nsToUs(percentile(ov, 0.99))
	m["wire.inflight.mean"] = ratio(float64(inflightSum), float64(inflightN))
	rd, wr, sc := sortedCopy(core[opRead]), sortedCopy(core[opWrite]), sortedCopy(core[opScan])
	m["core.read_us.p50"] = nsToUs(percentile(rd, 0.50))
	m["core.read_us.p99"] = nsToUs(percentile(rd, 0.99))
	m["core.write_us.p50"] = nsToUs(percentile(wr, 0.50))
	m["core.write_us.p99"] = nsToUs(percentile(wr, 0.99))
	m["core.scan_us.p50"] = nsToUs(percentile(sc, 0.50))

	d := func(a, b uint64) float64 { return float64(b - a) }
	m["admission.queued_ratio"] = ratio(d(before.admQueued, after.admQueued), d(before.admAdmitted, after.admAdmitted))
	m["admission.shed"] = d(before.admShed, after.admShed)
	m["admission.expired"] = d(before.admExpired, after.admExpired)

	hits, misses := d(before.qcHits, after.qcHits), d(before.qcMisses, after.qcMisses)
	writes := float64(t.ackQty + t.ackTxns + int64(len(t.acked)))
	m["qcache.hit_ratio"] = ratio(hits, hits+misses)
	m["qcache.invalidations_per_write"] = ratio(d(before.qcInval, after.qcInval), writes)
	m["qcache.evictions"] = d(before.qcEvict, after.qcEvict)

	ph, pm := d(before.parseHits, after.parseHits), d(before.parseMisses, after.parseMisses)
	m["sqlparse.hit_ratio"] = ratio(ph, ph+pm)

	m["groupcommit.wait_us.p50"], m["groupcommit.wait_us.p99"] = 0, 0
	if st.tw != nil {
		waits := sortedCopy(st.tw.snapshot())
		m["groupcommit.wait_us.p50"] = nsToUs(percentile(waits, 0.50))
		m["groupcommit.wait_us.p99"] = nsToUs(percentile(waits, 0.99))
	}
	m["groupcommit.commits_per_sync"] = ratio(d(before.gcCommits, after.gcCommits), d(before.gcSyncs, after.gcSyncs))

	m["provision.checkpoints"] = float64(smp.checkpoints)
	m["apply.lag_events.p99"] = float64(percentile(sortedCopy(smp.lag), 0.99))
	m["apply.events_per_batch"] = ratio(d(before.applyEvents, after.applyEvents), d(before.applyBatches, after.applyBatches))
	m["monitor.promote_ms"], m["monitor.failovers"], m["monitor.rejoins"] = 0, 0, 0
	if st.w.cycles > 0 {
		mon := st.durable.Monitor()
		m["monitor.promote_ms"] = float64(mon.LastFailoverDuration()) / 1e6
		m["monitor.failovers"] = float64(mon.Failovers())
		m["monitor.rejoins"] = float64(mon.Rejoins())
	}

	ops := float64(t.attempted)
	m["runtime.gc_pause_ms.total"] = float64(o.ms1.PauseTotalNs-o.ms0.PauseTotalNs) / 1e6
	m["runtime.gc_cycles"] = float64(o.ms1.NumGC - o.ms0.NumGC)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(o.ms1.TotalAlloc-o.ms0.TotalAlloc), ops)
	m["gen.late_ms.p99"] = nsToMs(percentile(sortedCopy(res.late), 0.99))

	if err := replay(p, m); err != nil {
		res.problem("replay: %v", err)
	}
	return m
}

// engineExec adapts an engine session to loadInto.
type engineExec struct{ s *engine.Session }

func (e engineExec) Exec(sql string) error { _, err := e.s.Exec(sql); return err }

// replayStmt is one statement of a replayed operation.
type replayStmt struct {
	sql  string
	args []sqltypes.Value
}

// replayStmts renders r as the statements the server runs for it.
func replayStmts(w *workload, r request, c *client) []replayStmt {
	i := sqltypes.NewInt
	if !w.prepared {
		return []replayStmt{{sql: c.textSQL(r)}}
	}
	switch {
	case r.kind == opRead:
		return []replayStmt{{sqlRead, []sqltypes.Value{i(r.key)}}}
	case w.txn:
		return []replayStmt{{sql: "BEGIN"}, {sqlCredit, []sqltypes.Value{i(r.amt), i(r.key)}},
			{sqlLedger, []sqltypes.Value{i(r.uid), i(r.key), i(r.amt)}}, {sql: "COMMIT"}}
	case w.insert:
		return []replayStmt{{sqlEvent, []sqltypes.Value{i(r.uid), i(r.key)}}}
	default:
		return []replayStmt{{sqlUpdate, []sqltypes.Value{i(r.key)}}}
	}
}

// replay times the workload's own generated statements through the
// parser and an engine session on a standalone copy of the loaded rows,
// and times checkpoint backups of that copy.
func replay(p plan, m map[string]float64) error {
	w := p.w
	rep := replication.NewReplica(replication.ReplicaConfig{Name: "replay"})
	sess := rep.Engine().NewSession("replay")
	defer sess.Close()
	if err := loadInto(engineExec{sess}, w); err != nil {
		return err
	}

	// Draw until every kind in the mix has enough samples for its p50.
	s := newStream(w, p.seed, 0, phaseReplay)
	var reqs []request
	var count [numKinds]int
	need := func(k opKind, pm int) bool { return pm > 0 && count[k] < 200 }
	for len(reqs) < 50000 && (count[opRead] < 2000 || need(opWrite, w.writePM) || need(opScan, w.scanPM)) {
		r := s.next()
		reqs = append(reqs, r)
		count[r.kind]++
	}
	c := &client{w: w}
	type parsed struct {
		st   sqlparse.Statement
		args []sqltypes.Value
	}
	ops := make([][]parsed, len(reqs))
	var parse []int64
	for i, r := range reqs {
		for _, rs := range replayStmts(w, r, c) {
			t := now()
			st, err := sqlparse.Parse(rs.sql)
			parse = append(parse, now()-t)
			if err != nil {
				return fmt.Errorf("parse %q: %w", rs.sql, err)
			}
			ops[i] = append(ops[i], parsed{st, rs.args})
		}
	}
	var lat [numKinds][]int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, op := range ops {
		t := now()
		for _, ps := range op {
			if _, err := sess.ExecStmtArgs(ps.st, ps.args...); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		lat[reqs[i].kind] = append(lat[reqs[i].kind], now()-t)
	}
	runtime.ReadMemStats(&ms1)
	m["sqlparse.parse_us.p50"] = nsToUs(percentile(sortedCopy(parse), 0.50))
	m["engine.read_us.p50"] = nsToUs(percentile(sortedCopy(lat[opRead]), 0.50))
	m["engine.write_us.p50"] = nsToUs(percentile(sortedCopy(lat[opWrite]), 0.50))
	m["engine.scan_us.p50"] = nsToUs(percentile(sortedCopy(lat[opScan]), 0.50))
	m["engine.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(ops)))

	m["provision.checkpoint_ms"] = 0
	if w.partitioned {
		return nil // no recovery log in this topology
	}
	prov := replication.NewProvisioner()
	if w.durable {
		dir := filepath.Join(p.out, "data", fmt.Sprintf("%s-%d-replay", w.name, p.seed))
		lg, err := replication.OpenRecoveryLog(dir, replication.RecoveryLogOptions{SegmentEntries: segmentEntries, FsyncEvery: fsyncEvery})
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer lg.Close()
		prov = replication.NewProvisionerWithLog(lg)
	}
	var ckpt []float64
	for i := 0; i < 6; i++ {
		t := time.Now()
		if _, err := prov.CheckpointBackup(fmt.Sprintf("replay-%d", i), rep, replication.FaithfulBackupOptions); err != nil {
			return err
		}
		if i > 0 { // the first one also copies the whole binlog in
			ckpt = append(ckpt, float64(time.Since(t))/1e6)
		}
	}
	m["provision.checkpoint_ms"] = medianFloat(ckpt)
	return nil
}

// writeSpans writes every open-loop frame of a traced run with its
// client and backend spans, one line each.
func writeSpans(p plan, st *stack, scheds [][]scheduled, cts []*connTrace) error {
	dir := filepath.Join(p.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", p.w.name, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# workload=%s seed=%d; times in ns since the run epoch; client span = sent..done, core span = backend_start..backend_end\n", p.w.name, p.seed)
	fmt.Fprintln(bw, "conn\top\tkind\tdue\tsent\tdone\tbackend_start\tbackend_end")
	for i, ct := range cts {
		spans := st.tb.spans(i)
		for j, fr := range ct.frames {
			if fr.sent == 0 || j >= len(spans) {
				break
			}
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i, fr.op, kindNames[fr.kind],
				scheds[i][fr.op].due, fr.sent, fr.done, spans[j].start, spans[j].end)
		}
	}
	if st.tw != nil {
		fmt.Fprintln(bw, "# groupcommit waits (ns)")
		for _, w := range st.tw.snapshot() {
			fmt.Fprintf(bw, "groupcommit\t%d\n", w)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

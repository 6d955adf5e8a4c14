package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/replication"
)

const (
	dbName     = "bench"
	initialQty = 100
	loadBatch  = 500
	lagTimeout = 60 * time.Second
)

// stack is one workload's cluster served behind a loopback wire server,
// with the benchmark's client connections dialed to it.
type stack struct {
	w       *workload
	dir     string
	durable *replication.DurableCluster
	ms      *replication.MasterSlave
	pc      *replication.Partitioned
	qc      *replication.QueryCache
	adm     *replication.AdmissionController
	cluster replication.Cluster
	srv     *wire.Server
	clients []*client

	// Set only on a traced stack.
	tb *tracedBackend
	tw *timedWaiter
}

// buildStack builds the cluster repld builds for w's flags, loads the
// fixed rows, waits for every slave to apply them, starts the wire server
// and dials nconns clients. dir holds the recovery log of a durable
// workload and must not exist yet.
func buildStack(w *workload, dir string, nconns int, traced bool) (st *stack, err error) {
	st = &stack{w: w}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if w.admSlots > 0 {
		st.adm = replication.NewAdmissionController(replication.AdmissionConfig{
			Slots: w.admSlots, Queue: w.admQueue, SlowThreshold: 100 * time.Millisecond,
		})
	}
	st.qc = replication.NewQueryCache(replication.QueryCacheConfig{MaxEntries: queryCacheSize})
	cons, err := replication.ParseConsistency("session")
	if err != nil {
		return nil, err
	}
	if w.partitioned {
		parts := make([]*replication.MasterSlave, 2)
		for i := range parts {
			master := replication.NewReplica(replication.ReplicaConfig{Name: fmt.Sprintf("p%d-master", i)})
			sls := make([]*replication.Replica, w.slaves)
			for j := range sls {
				sls[j] = replication.NewReplica(replication.ReplicaConfig{Name: fmt.Sprintf("p%d-slave-%d", i, j+1)})
			}
			parts[i] = replication.NewMasterSlave(master, sls, replication.MasterSlaveConfig{
				Consistency: cons, TransparentFailover: true, QueryCache: st.qc,
			})
		}
		rules := []*replication.PartitionRule{{Table: "items", Column: "id", Strategy: replication.HashPartition}}
		if st.pc, err = replication.NewElasticPartitioned(parts, rules, 32); err != nil {
			for _, p := range parts {
				p.Close()
			}
			return nil, fmt.Errorf("partitioned cluster: %w", err)
		}
		st.pc.SetAdmission(st.adm)
		replication.NewRebalancer(st.pc, replication.RebalancerConfig{})
		st.cluster = st.pc
	} else {
		msCfg := replication.MasterSlaveConfig{
			Consistency: cons, TransparentFailover: true, QueryCache: st.qc, Admission: st.adm,
		}
		if w.twoSafe {
			msCfg.Safety = replication.TwoSafe
		}
		if w.durable {
			st.dir = dir
		}
		st.durable, err = replication.OpenDurable(replication.DurableConfig{
			Dir:               st.dir,
			Log:               replication.RecoveryLogOptions{SegmentEntries: segmentEntries, FsyncEvery: fsyncEvery},
			Slaves:            w.slaves,
			Cluster:           msCfg,
			CheckpointEvery:   checkpointEvery,
			MonitorInterval:   w.monitor,
			GroupCommitWindow: w.groupCommit,
		})
		if err != nil {
			return nil, fmt.Errorf("durable cluster: %w", err)
		}
		st.ms = st.durable.Cluster()
		st.cluster = st.ms
		if traced && st.durable.GroupCommitter() != nil {
			st.tw = &timedWaiter{inner: st.durable.GroupCommitter()}
			st.ms.SetDurability(st.tw)
		}
	}

	if err := loadRows(st.cluster, w); err != nil {
		return nil, err
	}
	if err := st.waitCaughtUp(); err != nil {
		return nil, err
	}

	var backend wire.Backend = &wire.ClusterBackend{Cluster: st.cluster}
	if traced {
		st.tb = &tracedBackend{inner: backend}
		backend = st.tb
	}
	if st.srv, err = wire.NewServer("127.0.0.1:0", backend); err != nil {
		return nil, fmt.Errorf("wire server: %w", err)
	}
	for i := 0; i < nconns; i++ {
		c, err := dialClient(st.srv.Addr(), w)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close tears the stack down and removes its data directory.
func (st *stack) close() {
	for _, c := range st.clients {
		c.conn.Close()
	}
	st.clients = nil
	if st.srv != nil {
		st.srv.Close()
	}
	if st.durable != nil {
		_ = st.durable.Close() // the data directory is removed below
	} else if st.cluster != nil {
		st.cluster.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// subClusters lists the master-slave clusters holding the data: one, or
// one per partition.
func (st *stack) subClusters() []*replication.MasterSlave {
	if st.pc != nil {
		return st.pc.Partitions()
	}
	return []*replication.MasterSlave{st.ms}
}

// maxLag is the largest number of events any slave still has to apply.
func (st *stack) maxLag() uint64 {
	var m uint64
	for _, sc := range st.subClusters() {
		for _, l := range sc.SlaveLag() {
			if l > m {
				m = l
			}
		}
	}
	return m
}

// waitCaughtUp polls until every slave has applied everything its master
// committed.
func (st *stack) waitCaughtUp() error {
	deadline := time.Now().Add(lagTimeout)
	for st.maxLag() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("slaves still %d events behind after %v", st.maxLag(), lagTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkDivergence compares every replica of every sub-cluster.
func (st *stack) checkDivergence() error {
	for _, sc := range st.subClusters() {
		reps := append([]*replication.Replica{sc.Master()}, sc.Slaves()...)
		rep, err := replication.CheckDivergence(reps, dbName)
		if err != nil {
			return fmt.Errorf("divergence check: %w", err)
		}
		if !rep.OK() {
			return fmt.Errorf("replicas diverge on %s", strings.Join(rep.Tables(), ", "))
		}
	}
	return nil
}

// schemaSQL is the DDL of a workload's tables.
func schemaSQL(w *workload) []string {
	out := []string{"CREATE TABLE items (id INT PRIMARY KEY, qty INT)"}
	if w.txn {
		out = append(out, "CREATE TABLE history (id INT PRIMARY KEY, acct INT, amt INT)")
	}
	if w.insert {
		out = append(out, "CREATE TABLE events (id INT PRIMARY KEY, v INT)")
	}
	return out
}

// insertBatches renders the fixed rows 1..w.rows as multi-row INSERTs.
func insertBatches(w *workload) []string {
	var out []string
	var b []byte
	for lo := 1; lo <= w.rows; lo += loadBatch {
		b = append(b[:0], "INSERT INTO items (id, qty) VALUES "...)
		for id := lo; id < lo+loadBatch && id <= w.rows; id++ {
			if id > lo {
				b = append(b, ',')
			}
			b = append(b, '(')
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, initialQty, 10)
			b = append(b, ')')
		}
		out = append(out, string(b))
	}
	return out
}

// execer is the one method loadRows needs from a cluster or engine
// session.
type execer interface {
	Exec(sql string) error
}

type clusterExec struct{ c core.Conn }

func (e clusterExec) Exec(sql string) error { _, err := e.c.Exec(sql); return err }

// loadRows creates the database and loads the fixed rows through an
// in-process cluster connection.
func loadRows(cl replication.Cluster, w *workload) error {
	conn, err := cl.NewConn("loader")
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	defer conn.Close()
	return loadInto(clusterExec{conn}, w)
}

func loadInto(e execer, w *workload) error {
	stmts := append([]string{"CREATE DATABASE " + dbName, "USE " + dbName}, schemaSQL(w)...)
	stmts = append(stmts, insertBatches(w)...)
	for _, s := range stmts {
		if err := e.Exec(s); err != nil {
			return fmt.Errorf("load %.40q: %w", s, err)
		}
	}
	return nil
}

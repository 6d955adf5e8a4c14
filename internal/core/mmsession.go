package core

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/qcache"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// MMSession is a client session on a multi-master cluster. Reads execute on
// a load-balanced replica; writes go through total order. Transactions run
// interactively on the session's home replica as a dry run (so reads see
// the transaction's own writes), then are rolled back and re-executed in
// total order at commit — the conservative re-execution that makes
// statement replication 1-copy-serializable when statements are
// deterministic.
type MMSession struct {
	mm   *MultiMaster
	pool *sessionPool
	user string

	home         *Replica
	db           string
	lastWriteSeq uint64
	// lastReadSeq is the monotonic-reads floor: the highest ordered
	// position any state this session already observed could reflect.
	// Mirrors MSSession.lastReadSeq — lastWriteSeq alone gives
	// read-your-writes but lets a re-routed read go backward.
	lastReadSeq uint64
	pinnedRead  *Replica
	// cons is the session's read guarantee; it defaults to the cluster
	// configuration and can be overridden per session (SET CONSISTENCY).
	cons Consistency

	// stmtTimeout is the per-statement deadline budget (SET DEADLINE); it
	// bounds admission wait, replica queueing, and read/dry-run execution.
	// Ordered commits stay bounded by CommitTimeout: aborting a transaction
	// after it has been ordered would be unsafe.
	stmtTimeout time.Duration

	inTxn   bool
	txnSQL  []string // rewritten scripts for replay
	dryRun  *engine.Session
	snapSeq uint64 // certification: home position at BEGIN
	// serializable tracks the announced isolation level; serializable
	// reads take 2PL locks and must bypass the result cache.
	serializable bool
}

// NewSession opens a session. The home replica (where transactions execute
// before ordering) is picked by the balancing policy.
func (mm *MultiMaster) NewSession(user string) (*MMSession, error) {
	home, err := mm.pickHome()
	if err != nil {
		return nil, err
	}
	return &MMSession{
		mm: mm, pool: newSessionPool(user), user: user, home: home,
		cons:         mm.cfg.Consistency,
		stmtTimeout:  mm.cfg.StatementTimeout,
		serializable: home.Engine().Profile().DefaultIsolation == engine.Serializable,
	}, nil
}

// stmtDeadline converts the session's statement-timeout budget into an
// absolute deadline for the statement starting now; zero means unbounded.
func (s *MMSession) stmtDeadline() time.Time {
	if s.stmtTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.stmtTimeout)
}

// readClass maps the session's read guarantee onto an admission class: ANY
// reads are shed first under the degradation ladder, SESSION/STRONG reads
// queue longer.
func (s *MMSession) readClass() admission.Class {
	if s.cons == ReadAny {
		return admission.ClassReadAny
	}
	return admission.ClassReadSession
}

// admit acquires an admission slot (nil slot when admission is off).
func (s *MMSession) admit(class admission.Class, deadline time.Time) (*admission.Slot, error) {
	return s.mm.cfg.Admission.Acquire(s.user, class, deadline)
}

// Home returns the session's home replica.
func (s *MMSession) Home() *Replica { return s.home }

// Close releases the session.
func (s *MMSession) Close() {
	if s.dryRun != nil {
		s.dryRun.Rollback()
		s.dryRun = nil
	}
	s.pool.closeAll()
}

// Exec parses and routes one statement with optional ? bind arguments
// (through the statement cache).
func (s *MMSession) Exec(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	st, err := sqlparse.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtArgs(st, args...)
}

// Query implements Conn; routing is decided by the statement itself.
func (s *MMSession) Query(sql string, args ...sqltypes.Value) (*engine.Result, error) {
	return s.Exec(sql, args...)
}

// ExecStmt routes a pre-parsed statement.
func (s *MMSession) ExecStmt(st sqlparse.Statement) (*engine.Result, error) {
	return s.ExecStmtArgs(st)
}

// ExecStmtArgs routes a pre-parsed statement with bind arguments. Writes
// that cross the ordering channel as SQL text (statement mode) have their
// arguments inlined as literals first: the broadcast script is re-executed
// on every replica with no access to this call's argument vector.
func (s *MMSession) ExecStmtArgs(st sqlparse.Statement, args ...sqltypes.Value) (*engine.Result, error) {
	switch stmt := st.(type) {
	case *sqlparse.UseDatabase:
		s.db = stmt.Name
		if err := s.pool.setDB(stmt.Name); err != nil {
			return nil, err
		}
		return &engine.Result{}, nil
	case *sqlparse.BeginTxn:
		// Transaction brackets hold write-class admission for their own
		// duration only; the statements inside admit individually (a slot
		// held across an interactive transaction would let one slow client
		// starve the cluster).
		slot, err := s.admit(admission.ClassWrite, s.stmtDeadline())
		if err != nil {
			return nil, err
		}
		res, err := s.begin()
		slot.Done(err)
		return res, err
	case *sqlparse.CommitTxn:
		slot, err := s.admit(admission.ClassWrite, s.stmtDeadline())
		if err != nil {
			return nil, err
		}
		res, err := s.commit()
		slot.Done(err)
		return res, err
	case *sqlparse.RollbackTxn:
		// Rollback discards local state only — never shed it: refusing a
		// rollback under overload would strand open transactions.
		return s.rollback()
	case *sqlparse.SetDeadline:
		s.stmtTimeout = stmt.D
		return &engine.Result{}, nil
	case *sqlparse.SetConsistency:
		c, err := ParseConsistency(stmt.Level)
		if err != nil {
			return nil, err
		}
		s.cons = c
		return &engine.Result{}, nil
	case *sqlparse.SetIsolation:
		// Track and propagate, as in the master-slave router: the level
		// must hold on whichever replica serves this session's reads.
		if !s.inTxn {
			s.serializable = stmt.Level == "SERIALIZABLE"
			if err := s.pool.setIsolation(stmt); err != nil {
				return nil, err
			}
			return &engine.Result{}, nil
		}
	}
	if s.inTxn {
		deadline := s.stmtDeadline()
		slot, err := s.admit(admission.ClassWrite, deadline)
		if err != nil {
			return nil, err
		}
		res, err := s.execInTxn(st, args, deadline)
		slot.Done(err)
		return res, err
	}
	if st.IsRead() {
		return s.execRead(st, args)
	}
	deadline := s.stmtDeadline()
	slot, err := s.admit(admission.ClassWrite, deadline)
	if err != nil {
		return nil, err
	}
	res, err := s.execAutocommitWrite(st, args, deadline)
	slot.Done(err)
	return res, err
}

func (s *MMSession) begin() (*engine.Result, error) {
	if s.inTxn {
		return nil, fmt.Errorf("%w: transaction already in progress", ErrTxnState)
	}
	if !s.home.Healthy() {
		// The home replica executes this session's transactions; starting
		// one against a dead home would only fail later, at first write.
		// Failing BEGIN lets pooled drivers discard the connection and
		// retry on a fresh one (homed on a healthy replica).
		return nil, ErrReplicaDown
	}
	sess, err := s.pool.get(s.home)
	if err != nil {
		return nil, err
	}
	if s.mm.cfg.Mode == CertificationMode {
		if !sess.InTxn() && sess.Isolation() != engine.Snapshot {
			if _, err := sess.Exec("SET ISOLATION LEVEL SNAPSHOT"); err != nil {
				return nil, err
			}
		}
	}
	// Session/strong guarantees extend into explicit transactions, but the
	// dry run's snapshot is taken on the home engine with no routing in
	// between — so the home must first catch up to the session's floors
	// (own writes + previously observed state). Without this wait a
	// version the session just observed through a routed read can vanish
	// inside the next BEGIN: a monotonic-reads anomaly.
	if err := s.waitHomeFloor(); err != nil {
		return nil, err
	}
	// {BEGIN, sample} under snapMu pins snapSeq to exactly the snapshot's
	// position: nothing past it is in the snapshot (certification stays
	// sound) and everything up to it is (no spurious conflict aborts, and
	// the position doubles as the session's observed floor).
	s.home.snapMu.Lock()
	_, err = sess.Exec("BEGIN")
	pos := s.home.AppliedSeq()
	s.home.snapMu.Unlock()
	if err != nil {
		return nil, err
	}
	s.snapSeq = pos
	s.bumpReadSeq(pos)
	s.inTxn = true
	s.dryRun = sess
	s.txnSQL = s.txnSQL[:0]
	return &engine.Result{}, nil
}

// isDDL reports whether the statement changes schema/catalog objects.
func isDDL(st sqlparse.Statement) bool {
	switch st.(type) {
	case *sqlparse.CreateDatabase, *sqlparse.DropDatabase,
		*sqlparse.CreateTable, *sqlparse.DropTable,
		*sqlparse.CreateSequence, *sqlparse.DropSequence,
		*sqlparse.CreateTrigger, *sqlparse.DropTrigger,
		*sqlparse.CreateProcedure, *sqlparse.DropProcedure,
		*sqlparse.CreateUser, *sqlparse.Grant:
		return true
	}
	return false
}

// execInTxn runs a statement inside the interactive transaction. In
// statement mode the write's ? arguments are inlined right here, where the
// statement text is recorded for the ordering channel, so the script is
// standalone by construction; in certification mode the argument vector
// binds at the dry run and the captured write set carries row images.
func (s *MMSession) execInTxn(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time) (*engine.Result, error) {
	if isDDL(st) {
		// DDL is non-transactional (§4.1.2) and would double-execute on
		// the home replica during script replay.
		return nil, fmt.Errorf("%w: DDL inside explicit transactions on multi-master clusters", ErrUnsupportedStatement)
	}
	exec := st
	if !st.IsRead() && s.mm.cfg.Mode == StatementMode {
		rewritten, err := s.prepareStatement(st)
		if err != nil {
			return nil, err
		}
		// The broadcast script crosses the ordering channel as SQL text and
		// re-executes standalone on every replica, which has no access to
		// this call's argument vector: bind ? placeholders before rendering.
		// The local dry run executes the same bound AST directly (no
		// re-parse), so dry run and replay see identical statements.
		bound, err := sqlparse.BindParams(rewritten, args)
		if err != nil {
			return nil, err
		}
		exec, args = bound, nil
		s.txnSQL = append(s.txnSQL, bound.SQL())
	}
	res, err := s.home.ExecStmtArgsDeadlineOn(s.dryRun, exec, st.IsRead(), args, deadline)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// prepareStatement applies the non-determinism policy (§4.3.2): time macros
// are pinned, unsafe statements are rejected or (dangerously) allowed. The
// returned statement is the (possibly rewritten) AST to execute and ship.
func (s *MMSession) prepareStatement(st sqlparse.Statement) (sqlparse.Statement, error) {
	switch sqlparse.Classify(st) {
	case sqlparse.Deterministic:
		return st, nil
	case sqlparse.RewritableNonDeterministic:
		rewritten, _ := sqlparse.RewriteTimeFuncs(st, time.Now())
		return rewritten, nil
	default:
		if s.mm.cfg.NonDeterminism == RewriteAndAllow {
			rewritten, _ := sqlparse.RewriteTimeFuncs(st, time.Now())
			return rewritten, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNonDeterministic, st.SQL()) // lint:rawsql-ok error-message rendering; text never reaches the ordering channel
	}
}

func (s *MMSession) commit() (*engine.Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("%w: no transaction in progress", ErrTxnState)
	}
	defer func() {
		s.inTxn = false
		s.dryRun = nil
		s.txnSQL = nil
	}()
	switch s.mm.cfg.Mode {
	case StatementMode:
		// Discard the dry run; re-execute the script in total order.
		s.dryRun.Rollback()
		if len(s.txnSQL) == 0 {
			return &engine.Result{}, nil // read-only transaction
		}
		return s.submitScript(s.txnSQL)
	default: // CertificationMode
		ws, _, err := s.dryRun.PendingWriteSet()
		if err != nil {
			s.dryRun.Rollback()
			return nil, err
		}
		s.dryRun.Rollback()
		if len(ws.Ops) == 0 {
			return &engine.Result{}, nil
		}
		if !s.home.Healthy() {
			// Same pre-ordering refusal as submitScript: an ordered write
			// set would commit cluster-wide while this session errors.
			return nil, ErrReplicaDown
		}
		txn := mmTxn{
			ID:       s.mm.nextTxn.Add(1),
			Origin:   s.home.Name(),
			Database: s.db,
			WS:       ws,
			Snapshot: s.snapSeq,
			User:     s.user,
		}
		res, err := s.mm.submitAndWait(s.mm.ordererFor(s.home), s.home, txn)
		if err == nil {
			s.lastWriteSeq = s.home.AppliedSeq()
			if res != nil && res.AtSeq == 0 {
				res.AtSeq = s.lastWriteSeq
			}
		}
		return res, err
	}
}

func (s *MMSession) rollback() (*engine.Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("%w: no transaction in progress", ErrTxnState)
	}
	s.dryRun.Rollback()
	s.inTxn = false
	s.dryRun = nil
	s.txnSQL = nil
	return &engine.Result{}, nil
}

// execAutocommitWrite orders a single write statement (? arguments are
// inlined below in statement mode; bound at the dry run in certification
// mode).
func (s *MMSession) execAutocommitWrite(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time) (*engine.Result, error) {
	if isDDL(st) {
		// Schema changes replicate as ordered statements in either mode:
		// write sets cannot carry DDL (§4.3.2).
		return s.submitScript([]string{st.SQL()}) // lint:rawsql-ok isDDL-guarded: DDL statements cannot carry ? placeholders (see sqlparse/bind.go)
	}
	if s.mm.cfg.Mode == CertificationMode {
		// An autocommit write is a one-statement transaction; the caller's
		// admission slot covers the whole begin/execute/commit composition.
		if _, err := s.begin(); err != nil {
			return nil, err
		}
		if _, err := s.execInTxn(st, args, deadline); err != nil {
			_, _ = s.rollback()
			return nil, err
		}
		return s.commit()
	}
	prepared, err := s.prepareStatement(st)
	if err != nil {
		return nil, err
	}
	// The ordered script re-executes standalone on every replica: inline the
	// ? arguments at the ship site so the text can never leave with unbound
	// placeholders.
	bound, err := sqlparse.BindParams(prepared, args)
	if err != nil {
		return nil, err
	}
	return s.submitScript([]string{bound.SQL()})
}

func (s *MMSession) submitScript(stmts []string) (*engine.Result, error) {
	if !s.home.Healthy() {
		// Refuse BEFORE ordering: once submitted, the script commits
		// cluster-wide even though this session (whose dead home applier
		// can never acknowledge it) would report failure — and a pooled
		// driver's retry would then double-apply a non-idempotent write.
		return nil, ErrReplicaDown
	}
	txn := mmTxn{
		ID:       s.mm.nextTxn.Add(1),
		Origin:   s.home.Name(),
		Database: s.db,
		Stmts:    append([]string(nil), stmts...),
		User:     s.user,
	}
	res, err := s.mm.submitAndWait(s.mm.ordererFor(s.home), s.home, txn)
	if err == nil {
		s.lastWriteSeq = s.home.AppliedSeq()
		if res != nil && res.AtSeq == 0 {
			res.AtSeq = s.lastWriteSeq
		}
	}
	return res, err
}

// execRead balances a read per level/policy/consistency, serving
// cache-eligible statements from the cluster's query result cache when one
// is configured (entries are tagged with the serving replica's applied
// position, so the session-consistency re-validation below applies to
// cached results exactly as it does to replicas).
// readFloor is the lowest ordered position a read may be served from;
// session consistency covers own writes and previously observed state.
func (s *MMSession) readFloor() uint64 {
	if s.cons == SessionConsistent && s.lastReadSeq > s.lastWriteSeq {
		return s.lastReadSeq
	}
	return s.lastWriteSeq
}

// bumpReadSeq advances the monotonic-reads floor to pos.
func (s *MMSession) bumpReadSeq(pos uint64) {
	if pos > s.lastReadSeq {
		s.lastReadSeq = pos
	}
}

// waitHomeFloor blocks until the home replica's applied position reaches
// the freshness floor the session's consistency level demands of a BEGIN,
// bounded by the commit timeout (a lagging or partitioned home fails the
// BEGIN so pooled drivers retry on a fresh connection).
func (s *MMSession) waitHomeFloor() error {
	var floor uint64
	switch s.cons {
	case StrongConsistent:
		floor = s.mm.head.Load()
	case SessionConsistent:
		floor = s.readFloor()
	default:
		return nil
	}
	if s.home.AppliedSeq() >= floor {
		return nil
	}
	deadline := time.Now().Add(s.mm.cfg.CommitTimeout)
	for s.home.AppliedSeq() < floor {
		if !s.home.Healthy() {
			return ErrReplicaDown
		}
		if time.Now().After(deadline) {
			// A stuck freshness wait is a deadline, not a hard failure: the
			// read never executed, so wrapping the deadline sentinel lets
			// pooled drivers back off and retry on a fresh connection
			// (likely homed on a replica that has caught up).
			return fmt.Errorf("%w: home %s stuck at position %d, session requires %d",
				ErrDeadlineExceeded, s.home.Name(), s.home.AppliedSeq(), floor)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *MMSession) execRead(st sqlparse.Statement, args []sqltypes.Value) (*engine.Result, error) {
	deadline := s.stmtDeadline()
	// Under sustained overload ANY-consistency reads shed first (ladder
	// rung 1): serve them from the cache or any healthy replica, however
	// stale, before spending a slot.
	relaxed := s.cons == ReadAny && s.mm.cfg.Admission.Shedding()
	qc := s.mm.qc
	if qc == nil || s.serializable || !engine.CacheableRead(st) {
		slot, err := s.admit(s.readClass(), deadline)
		if err != nil {
			return nil, err
		}
		res, err := s.execReadRouted(st, args, deadline, relaxed)
		slot.Done(err)
		return res, err
	}
	user := s.user
	db := s.db
	key := qcache.KeyOf(st.(*sqlparse.Select)) // CacheableRead admits only SELECTs
	minPos := s.mm.cacheMinPos(s.cons, s.readFloor())
	if relaxed {
		minPos = 0 // shedding: any cached result beats queueing for a slot
	}
	// Probe the cache BEFORE admission: hits cost no slot, so under
	// overload the cache keeps absorbing read traffic at full speed.
	if res, posHi, ok := qc.GetPos(user, db, key, args, minPos); ok {
		s.bumpReadSeq(posHi)
		return res, nil
	}
	slot, err := s.admit(s.readClass(), deadline)
	if err != nil {
		return nil, err
	}
	res, err := s.execReadCacheFill(st, args, deadline, relaxed, qc, user, db, key)
	slot.Done(err)
	return res, err
}

// execReadCacheFill routes a cache-miss read and installs the result.
func (s *MMSession) execReadCacheFill(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time, relaxed bool, qc *qcache.Scope, user, db string, key *qcache.StmtKey) (*engine.Result, error) {
	target, err := s.routeRead(relaxed)
	if err != nil {
		return nil, err
	}
	sess, err := s.pool.get(target)
	if err != nil {
		return nil, err
	}
	pos := target.AppliedSeq()
	res, err := target.ExecStmtArgsDeadlineOn(sess, st, true, args, deadline)
	if err != nil {
		return nil, err
	}
	posHi := sampleApplied(target)
	s.bumpReadSeq(posHi)
	qc.PutAt(user, db, key, args, pos, posHi, res)
	return res, nil
}

// sampleApplied reads the replica's applied position under snapMu so it is
// an exact ceiling for state a read just observed: if an applier has made a
// write set visible but not yet stored its position, the sample waits out
// the store instead of running a hair behind what was read.
func sampleApplied(r *Replica) uint64 {
	r.snapMu.Lock()
	pos := r.AppliedSeq()
	r.snapMu.Unlock()
	return pos
}

// execReadRouted executes a read on a routed replica with no caching.
func (s *MMSession) execReadRouted(st sqlparse.Statement, args []sqltypes.Value, deadline time.Time, relaxed bool) (*engine.Result, error) {
	target, err := s.routeRead(relaxed)
	if err != nil {
		return nil, err
	}
	sess, err := s.pool.get(target)
	if err != nil {
		return nil, err
	}
	res, err := target.ExecStmtArgsDeadlineOn(sess, st, true, args, deadline)
	if err != nil {
		return nil, err
	}
	s.bumpReadSeq(sampleApplied(target))
	return res, nil
}

// routeRead picks the replica for a read. As in the master-slave router, a
// connection-level pin is only honored while the pinned replica still
// satisfies the session's consistency guarantee (or the read is relaxed by
// overload shedding, which waives freshness).
func (s *MMSession) routeRead(relaxed bool) (*Replica, error) {
	floor := s.readFloor()
	if s.mm.cfg.ReadLevel == lb.ConnectionLevel && s.pinnedRead != nil && s.pinnedRead.Healthy() &&
		(relaxed || s.mm.replicaFresh(s.pinnedRead, s.cons, floor)) {
		return s.pinnedRead, nil
	}
	target, err := s.mm.pickRead(s.cons, floor, relaxed)
	if err != nil {
		return nil, err
	}
	if s.mm.cfg.ReadLevel == lb.ConnectionLevel {
		s.pinnedRead = target
	}
	return target, nil
}

// Prepare implements Conn: parse once, execute many with fresh bindings.
func (s *MMSession) Prepare(sql string) (*Stmt, error) { return newStmt(s, sql) }

// Begin implements Conn. It routes through ExecStmt so transaction
// brackets pass admission control exactly like their SQL-text form.
func (s *MMSession) Begin() error {
	_, err := s.ExecStmt(&sqlparse.BeginTxn{})
	return err
}

// Commit implements Conn.
func (s *MMSession) Commit() error {
	_, err := s.ExecStmt(&sqlparse.CommitTxn{})
	return err
}

// Rollback implements Conn.
func (s *MMSession) Rollback() error {
	_, err := s.ExecStmt(&sqlparse.RollbackTxn{})
	return err
}

// SetIsolation implements Conn, propagating the level across the session's
// whole backend pool.
func (s *MMSession) SetIsolation(level string) error {
	lv, err := normalizeIsolation(level)
	if err != nil {
		return err
	}
	_, err = s.ExecStmt(&sqlparse.SetIsolation{Level: lv})
	return err
}

// SetConsistency implements Conn: a per-session read-guarantee override.
func (s *MMSession) SetConsistency(c Consistency) error {
	s.cons = c
	return nil
}

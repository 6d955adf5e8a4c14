// Package qcache is the middleware query result cache: the headline
// read-scaling feature of the C-JDBC/Sequoia lineage the paper describes.
// It stores immutable result sets keyed on (database, normalized read
// statement, bind values) and invalidates them at table granularity from the
// committed write stream (engine.Event.Tables()); DDL and writes whose table
// footprint is unknown flush the affected database.
//
// Consistency model. Every entry is tagged with the replication position the
// producing replica had applied when the result was computed. A lookup passes
// the minimum position its session's read guarantee demands (the session's
// last-write position for session consistency, the cluster head for strong
// consistency) and an entry older than that is a miss — the same rule the
// routers apply when re-validating a pinned replica. Invalidation is
// synchronous with respect to commit acknowledgement: the routers bump the
// affected tables' invalidation positions before a write returns to the
// writing session, so a surviving entry is never staler than the guarantee
// its reader asked for.
//
// Fill race. A read executed on a lagging replica can race a concurrent
// invalidation: the result is computed, the write invalidates, and only then
// does the reader try to insert the now-stale result. Put therefore
// re-validates the entry's position against the current invalidation
// positions and refuses the insert when the entry would be born stale.
//
// Scopes. One Cache (one memory budget) can back several clusters — e.g.
// every partition of a partitioned deployment — but results from different
// clusters must never collide: the partitions of one table hold different
// rows under the same statement text. Each cluster therefore attaches a
// Scope, which namespaces keys and owns the cluster's invalidation state.
package qcache

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the number of cached result sets across all scopes
	// (rounded up to a multiple of the shard count); zero means 4096.
	MaxEntries int
	// MaxRows is the largest result set worth caching; bigger results are
	// not inserted (they would evict many small hot entries for one cold
	// scan). Zero means 4096.
	MaxRows int
}

// shardCount is the number of independent LRU shards, mirroring the
// statement cache: power of two so shard selection is a mask.
const shardCount = 16

// DefaultMaxEntries bounds a cache built from the zero Config.
const DefaultMaxEntries = 4096

// DefaultMaxRows is the per-result row bound of the zero Config.
const DefaultMaxRows = 4096

// Stats are the cache's cumulative counters.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits uint64
	// Misses counts lookups that went to a backend: absent entries plus
	// entries rejected for the caller's consistency requirement.
	Misses uint64
	// Puts counts inserted entries.
	Puts uint64
	// RejectedPuts counts inserts refused because the result was too large
	// or already stale (fill race with a concurrent invalidation).
	RejectedPuts uint64
	// InvalidationEvents counts committed write/DDL events applied to the
	// invalidation state.
	InvalidationEvents uint64
	// InvalidatedEntries counts entries dropped on lookup because a write
	// had invalidated their tables.
	InvalidatedEntries uint64
	// Evictions counts LRU evictions.
	Evictions uint64
	// Flushes counts whole-scope flushes (epoch bumps).
	Flushes uint64
}

// Cache is a sharded, bounded query result cache. Safe for concurrent use.
// Cached *engine.Result values are shared across sessions: they are
// immutable by convention, exactly like the parsed statements the statement
// cache shares.
type Cache struct {
	shards   []qshard
	mask     uint64
	perShard int
	maxRows  int
	scopeIDs atomic.Uint64

	hits         metrics.Counter
	misses       metrics.Counter
	puts         metrics.Counter
	rejectedPuts metrics.Counter
	invalEvents  metrics.Counter
	invalEntries metrics.Counter
	evictions    metrics.Counter
	flushes      metrics.Counter
}

type qshard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
}

// qentry is one cached result set.
type qentry struct {
	key string
	// tables are the lowercased db-qualified tables the result read.
	tables []string
	// dbs are the distinct lowercased databases of those tables.
	dbs []string
	// pos is the replication position the producing replica had applied
	// when the result was computed (a lower bound on its freshness).
	pos uint64
	// posHi is the producing replica's applied position observed AFTER the
	// result was computed: an upper bound on the state the result reflects.
	// Sessions enforcing monotonic reads advance their read floor to it on
	// a hit, so a later read can never be routed behind this result.
	posHi uint64
	res   *engine.Result
}

// New builds a cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxEntries < shardCount {
		cfg.MaxEntries = shardCount
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = DefaultMaxRows
	}
	c := &Cache{
		shards:   make([]qshard, shardCount),
		mask:     shardCount - 1,
		perShard: (cfg.MaxEntries + shardCount - 1) / shardCount,
		maxRows:  cfg.MaxRows,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Puts:               c.puts.Load(),
		RejectedPuts:       c.rejectedPuts.Load(),
		InvalidationEvents: c.invalEvents.Load(),
		InvalidatedEntries: c.invalEntries.Load(),
		Evictions:          c.evictions.Load(),
		Flushes:            c.flushes.Load(),
	}
}

// Len returns the number of cached entries (including entries orphaned by a
// scope flush that the LRU has not recycled yet).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// NewScope attaches a cluster to the cache: an isolated key namespace with
// its own invalidation state sharing the cache's memory budget.
func (c *Cache) NewScope() *Scope {
	return &Scope{
		c:        c,
		id:       c.scopeIDs.Add(1),
		tableSeq: make(map[string]uint64),
		dbSeq:    make(map[string]uint64),
	}
}

// Scope is one cluster's view of a Cache. Safe for concurrent use.
type Scope struct {
	c  *Cache
	id uint64

	mu sync.RWMutex
	// epoch namespaces keys; FlushAll bumps it, instantly orphaning every
	// entry of this scope (the LRU recycles them).
	epoch uint64
	// tableSeq / dbSeq / allSeq record the highest committed write position
	// known to have touched a table, a whole database, or anything at all.
	// An entry is valid only if its position is at least as fresh as every
	// one that applies to it.
	tableSeq map[string]uint64
	dbSeq    map[string]uint64
	allSeq   uint64
}

// StmtKey is a read statement's cache-key material: its normalized text
// and the tables it reads. KeyOf derives it once per parsed statement, so a
// probe neither re-renders the statement nor re-derives its tables.
type StmtKey struct {
	text   string
	tables []string
	// qual memoizes tables qualified with the last session database asked
	// for; sessions of one deployment almost always share one.
	qual atomic.Pointer[qualified]
}

type qualified struct {
	db          string
	tables, dbs []string
}

// newStmtKey builds key material from statement text and the tables the
// statement reads (unqualified names resolve against the session database).
func newStmtKey(text string, tables []string) *StmtKey {
	return &StmtKey{text: text, tables: tables}
}

// KeyOf returns sel's key material, derived once per parsed statement. The
// text is the normalized rendering of the AST, so textual variants of one
// statement share entries.
func KeyOf(sel *sqlparse.Select) *StmtKey {
	return sqlparse.Memo(sel, func(s *sqlparse.Select) *StmtKey {
		return newStmtKey(s.SQL(), s.Tables())
	})
}

// qualify returns the key's tables lowercased and qualified with db, and
// their distinct databases.
func (k *StmtKey) qualify(db string) *qualified {
	if q := k.qual.Load(); q != nil && q.db == db {
		return q
	}
	q := &qualified{db: db, tables: qualifyTables(db, k.tables)}
	q.dbs = distinctDBs(q.tables)
	k.qual.Store(q)
	return q
}

// keyBufs recycles probe-key buffers, so a lookup builds its key without
// allocating.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// appendKey appends the cache key to b. The user is part of the key: an
// entry is only ever served to the user whose own (authorized) backend
// execution produced it, so a cache hit can never bypass the engine's
// access checks — grants are only ever added, so fill-time authorization
// stays valid for the entry's lifetime.
func (s *Scope) appendKey(b []byte, epoch uint64, user, db string, k *StmtKey, binds []sqltypes.Value) []byte {
	b = append(b, 's')
	b = strconv.AppendUint(b, s.id, 10)
	b = append(b, ".e"...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, '|')
	b = append(b, user...)
	b = append(b, '|')
	// Lowercase db in place: strings.ToLower would allocate on every
	// probe of a session whose database name has upper case.
	for i := 0; i < len(db); i++ {
		c := db[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	b = append(b, '|')
	b = append(b, k.text...)
	for _, v := range binds {
		b = append(b, '|')
		b = v.AppendSQL(b)
	}
	return b
}

// staleLocked reports whether an entry at pos with the given tables/dbs has
// been invalidated. Caller holds s.mu (read or write).
func (s *Scope) staleLocked(pos uint64, tables, dbs []string) bool {
	if pos < s.allSeq {
		return true
	}
	for _, db := range dbs {
		if pos < s.dbSeq[db] {
			return true
		}
	}
	for _, t := range tables {
		if pos < s.tableSeq[t] {
			return true
		}
	}
	return false
}

// Get looks up a cached result for the given user by statement text. It is
// GetPos for callers without a parsed statement.
func (s *Scope) Get(user, db, stmt string, binds []sqltypes.Value, minPos uint64) (*engine.Result, bool) {
	res, _, ok := s.GetPos(user, db, newStmtKey(stmt, nil), binds, minPos)
	return res, ok
}

// GetPos looks up a cached result for the given user. minPos is the lowest
// replication position the caller's read guarantee accepts: entries
// produced before it are misses. It also returns the upper bound on the
// replication position the cached result reflects (the serving replica's
// applied position right after the fill read); sessions that guarantee
// monotonic reads advance their read floor to it. The returned result is
// shared and must be treated as immutable. A lookup does not allocate.
func (s *Scope) GetPos(user, db string, k *StmtKey, binds []sqltypes.Value, minPos uint64) (*engine.Result, uint64, bool) {
	s.mu.RLock()
	epoch := s.epoch
	s.mu.RUnlock()
	bp := keyBufs.Get().(*[]byte)
	b := s.appendKey((*bp)[:0], epoch, user, db, k, binds)
	c := s.c
	sh := &c.shards[sqltypes.HashBytes(b)&c.mask]

	sh.mu.Lock()
	el, ok := sh.entries[string(b)]
	var e *qentry
	if ok {
		e = el.Value.(*qentry)
	}
	sh.mu.Unlock()
	*bp = b
	keyBufs.Put(bp)
	if !ok {
		c.misses.Inc()
		return nil, 0, false
	}

	s.mu.RLock()
	stale := s.staleLocked(e.pos, e.tables, e.dbs)
	s.mu.RUnlock()
	if stale {
		sh.mu.Lock()
		if cur, ok := sh.entries[e.key]; ok && cur == el {
			sh.lru.Remove(el)
			delete(sh.entries, e.key)
			c.invalEntries.Inc()
		}
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, 0, false
	}
	if e.pos < minPos {
		// Too old for this session's guarantee, but still the freshest
		// committed state for the entry's tables — keep it for sessions
		// with weaker requirements.
		c.misses.Inc()
		return nil, 0, false
	}
	sh.mu.Lock()
	if cur, ok := sh.entries[e.key]; ok && cur == el {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	c.hits.Inc()
	return e.res, e.posHi, true
}

// Put inserts a result the given user's session produced at replication
// position pos from the given tables, by statement text. It is PutAt for
// callers without a parsed statement.
func (s *Scope) Put(user, db, stmt string, binds []sqltypes.Value, tables []string, pos uint64, res *engine.Result) {
	s.PutAt(user, db, newStmtKey(stmt, tables), binds, pos, pos, res)
}

// PutAt inserts a result the given user's session produced. pos is the
// sound lower bound on its freshness, used for invalidation and
// minimum-position checks (the replica's applied position BEFORE the fill
// read); posHi the upper bound on the state the result can reflect
// (applied position AFTER it), handed back by GetPos for monotonic-read
// floors. The insert is refused when the result is too large or when a
// concurrent invalidation has already outpaced pos (fill race).
func (s *Scope) PutAt(user, db string, k *StmtKey, binds []sqltypes.Value, pos, posHi uint64, res *engine.Result) {
	c := s.c
	if res == nil || len(res.Rows) > c.maxRows {
		c.rejectedPuts.Inc()
		return
	}
	if posHi < pos {
		posHi = pos
	}
	q := k.qualify(db)

	s.mu.RLock()
	epoch := s.epoch
	stale := s.staleLocked(pos, q.tables, q.dbs)
	s.mu.RUnlock()
	if stale {
		c.rejectedPuts.Inc()
		return
	}
	bp := keyBufs.Get().(*[]byte)
	b := s.appendKey((*bp)[:0], epoch, user, db, k, binds)
	key := string(b)
	*bp = b
	keyBufs.Put(bp)
	e := &qentry{key: key, tables: q.tables, dbs: q.dbs, pos: pos, posHi: posHi, res: res}

	sh := &c.shards[sqltypes.HashString(key)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		// Keep the freshest result for the key.
		if el.Value.(*qentry).pos <= pos {
			el.Value = e
		}
		sh.lru.MoveToFront(el)
		c.puts.Inc()
		return
	}
	sh.entries[key] = sh.lru.PushFront(e)
	c.puts.Inc()
	if sh.lru.Len() > c.perShard {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*qentry).key)
		c.evictions.Inc()
	}
}

// ApplyEvent folds one committed binlog event into the invalidation state.
// Events with a captured write set invalidate exactly the tables written;
// DDL and writes with an unknown table footprint flush the affected
// database(s) — or everything, when no database can be named.
func (s *Scope) ApplyEvent(ev engine.Event) {
	tables := ev.Tables()
	if ev.DDL || len(tables) == 0 {
		s.flushEventDBs(ev)
	} else {
		s.InvalidateTables(tables, ev.Seq)
		return
	}
	s.c.invalEvents.Inc()
}

// flushEventDBs flushes the databases an opaque (DDL or footprint-unknown)
// event can have touched: the statement's own tables and named databases
// when they parse, the session database otherwise.
func (s *Scope) flushEventDBs(ev engine.Event) {
	dbs := eventDatabases(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(dbs) == 0 {
		if ev.Seq > s.allSeq {
			s.allSeq = ev.Seq
		}
		return
	}
	for _, db := range dbs {
		if ev.Seq > s.dbSeq[db] {
			s.dbSeq[db] = ev.Seq
		}
	}
}

// InvalidateTables records that the given db-qualified tables were written
// at position seq. Tables without a database qualifier invalidate across
// every database (conservative).
func (s *Scope) InvalidateTables(tables []string, seq uint64) {
	s.mu.Lock()
	for _, t := range tables {
		t = strings.ToLower(t)
		if !strings.Contains(t, ".") {
			if seq > s.allSeq {
				s.allSeq = seq
			}
			continue
		}
		if seq > s.tableSeq[t] {
			s.tableSeq[t] = seq
		}
	}
	s.mu.Unlock()
	s.c.invalEvents.Inc()
}

// FlushDatabase invalidates everything cached from one database as of seq;
// an empty database name flushes the whole scope's contents as of seq.
func (s *Scope) FlushDatabase(db string, seq uint64) {
	s.mu.Lock()
	if db == "" {
		if seq > s.allSeq {
			s.allSeq = seq
		}
	} else {
		db = strings.ToLower(db)
		if seq > s.dbSeq[db] {
			s.dbSeq[db] = seq
		}
	}
	s.mu.Unlock()
	s.c.invalEvents.Inc()
}

// FlushAll instantly orphans every entry of this scope, independent of
// position — used at failover, where the replication position space is
// re-aligned and position comparisons stop being meaningful.
func (s *Scope) FlushAll() {
	s.mu.Lock()
	s.epoch++
	s.tableSeq = make(map[string]uint64)
	s.dbSeq = make(map[string]uint64)
	s.allSeq = 0
	s.mu.Unlock()
	s.c.flushes.Inc()
}

// Cache returns the backing cache (for stats).
func (s *Scope) Cache() *Cache { return s.c }

// qualifyTables lowercases table names and qualifies unqualified ones with
// the session database.
func qualifyTables(db string, tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		t = strings.ToLower(t)
		if !strings.Contains(t, ".") && db != "" {
			t = strings.ToLower(db) + "." + t
		}
		out = append(out, t)
	}
	return out
}

// distinctDBs extracts the distinct database prefixes of qualified tables.
func distinctDBs(tables []string) []string {
	var out []string
	for _, t := range tables {
		i := strings.IndexByte(t, '.')
		if i < 0 {
			continue
		}
		db := t[:i]
		dup := false
		for _, d := range out {
			if d == db {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, db)
		}
	}
	return out
}

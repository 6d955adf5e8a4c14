package main

import (
	"math/rand"
	"time"
)

// opKind classifies a generated request by the latency metric it feeds.
type opKind uint8

const (
	opRead  opKind = iota // point read by primary key
	opWrite               // update, insert or whole transaction
	opScan                // scattered range aggregate
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "scan"}

// scanWidth is how far past its start key a scan's id range reaches, so
// every scan covers scanWidth+1 rows.
const scanWidth = 50

// workload is one traffic mix: the stack it runs against, the rows it
// loads and the requests it sends. Row counts are fixed; the seed only
// picks the request stream.
type workload struct {
	name string

	// Stack, named after the repld flags that build the same one.
	partitioned bool          // -topology partitioned -partitions 2 -slaves 1 -elastic -buckets 32
	slaves      int           // -slaves
	durable     bool          // -data-dir
	groupCommit time.Duration // -group-commit-window
	twoSafe     bool          // -two-safe
	monitor     time.Duration // -monitor
	admSlots    int           // -admission-slots
	admQueue    int           // -admission-queue

	rows int
	zipf bool // Zipf θ=1.1 keys; uniform otherwise
	// Mix in per-mille of requests; the rest are reads.
	writePM, scanPM int
	// prepared sends reads and writes as server-side prepared statements
	// with bound arguments; otherwise as text SQL with literals.
	prepared bool
	// txn makes each write a BEGIN; UPDATE; INSERT history; COMMIT
	// transaction; insert makes it an INSERT of a fresh row.
	txn, insert bool

	// rate is the open-loop offered load in ops/s, fixed at about 40% of
	// the saturation capacity measured on a 2-vCPU host (the paper's
	// "less than 50% load" operating point, §3.4).
	rate float64
	// cycles is how many master kill/recover cycles run (failover only).
	cycles int
}

// Flush policy shared by every durable workload (repld defaults).
const (
	fsyncEvery      = 64
	checkpointEvery = 256
	segmentEntries  = 1024
	queryCacheSize  = 4096
)

var workloads = []*workload{
	// Ticket broker (§1): Zipf point reads and updates whose working set
	// fits the caches, so the middleware hot path does the work.
	{
		name:   "broker",
		slaves: 2, monitor: 10 * time.Millisecond, admSlots: 64, admQueue: 256,
		rows: 2000, zipf: true, writePM: 50, prepared: true,
		rate: 44000,
	},
	// Durable commits on uniform keys over more rows than the caches hold:
	// group-commit fsync, checkpoints and slave apply do the work.
	{
		name:   "ledger",
		slaves: 2, durable: true, groupCommit: 200 * time.Microsecond, monitor: 10 * time.Millisecond,
		admSlots: 64, admQueue: 256,
		rows: 20000, writePM: 800, prepared: true, txn: true,
		rate: 780,
	},
	// Partitioned ad-hoc SQL: literal text bypasses the prepared path and
	// the cache; parser, fan-out/merge and engine scans do the work.
	{
		name:        "scatter",
		partitioned: true, slaves: 1, admSlots: 64,
		rows: 50000, writePM: 100, scanPM: 10,
		rate: 2000,
	},
	// Availability (Fig. 3, §4.4): master kills on a two-safe durable
	// cluster; monitor promotion and provisioner rejoin do the work.
	{
		name:   "failover",
		slaves: 2, durable: true, twoSafe: true, monitor: time.Millisecond,
		rows: 20000, writePM: 200, prepared: true, insert: true,
		rate: 1000, cycles: 3,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one generated operation.
type request struct {
	kind opKind
	key  int64 // row id read or written; first id of a scan
	amt  int64 // ledger transfer amount
	uid  int64 // fresh primary key for an inserted row
}

// stream generates one connection's requests for one phase. The same
// (seed, conn, phase) always yields the same sequence.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	uid  int64
	n    int64
}

// phase numbers keep each phase's stream and inserted ids apart.
const (
	phaseOpen = iota
	phaseSat
	phaseReplay
)

func newStream(w *workload, seed int64, conn, phase int) *stream {
	src := rand.NewSource(seed*1_000_003 + int64(phase)*7_919 + int64(conn))
	s := &stream{w: w, rng: rand.New(src)}
	if w.zipf {
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(w.rows-1))
	}
	// Inserted ids live far above the loaded rows, unique per conn+phase.
	s.uid = int64(phase*4+conn+1) << 32
	return s
}

func (s *stream) key() int64 {
	if s.zipf != nil {
		return int64(s.zipf.Uint64()) + 1
	}
	return s.rng.Int63n(int64(s.w.rows)) + 1
}

func (s *stream) next() request {
	s.n++
	d := s.rng.Intn(1000)
	switch {
	case d < s.w.scanPM:
		return request{kind: opScan, key: s.rng.Int63n(int64(s.w.rows-scanWidth)) + 1}
	case d < s.w.scanPM+s.w.writePM:
		r := request{kind: opWrite, key: s.key()}
		if s.w.txn {
			r.amt = s.rng.Int63n(100) + 1
		}
		if s.w.txn || s.w.insert {
			r.uid = s.uid + s.n
		}
		return r
	default:
		return request{kind: opRead, key: s.key()}
	}
}

// gap draws an exponential inter-arrival time for an open loop offering
// rate ops/s: independent users arriving as a Poisson process.
func (s *stream) gap(rate float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
}

// scheduled is one open-loop request with its timeline, in nanoseconds
// since the run's epoch.
type scheduled struct {
	req             request
	due, sent, done int64
	ok              bool
}

// schedule pre-generates a connection's open-loop requests over dur, so
// the sending loop does no generation work and allocates nothing.
func schedule(w *workload, seed int64, conn int, rate float64, dur time.Duration) []scheduled {
	s := newStream(w, seed, conn, phaseOpen)
	out := make([]scheduled, 0, int(rate*dur.Seconds()*1.1)+16)
	for t := s.gap(rate); t < dur; t += s.gap(rate) {
		out = append(out, scheduled{req: s.next(), due: int64(t)})
	}
	return out
}

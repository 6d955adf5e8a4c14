package wire

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// This file measures what the binary protocol and pipelining buy over the
// PR-5 gob protocol: a cheaper codec (varint/raw encoders vs gob's
// reflection and per-message type info) and, with pipelining, round-trip
// overlap — a window of requests in flight per connection instead of one.

// BenchmarkWireProtocol compares one connection's PK point lookups across
// the three transports: gob (serial by construction), binary serial (codec
// win only), and binary pipelined (codec + RTT overlap, window 32). The
// binary variants report the client's write(2) calls per request as
// writes/op: 1 when serial, a fraction when pipelined frames share writes.
func BenchmarkWireProtocol(b *testing.B) {
	srv := preparedBenchServer(b)
	_, prepQ := preparedBenchQueries()

	dial := func(b *testing.B, proto string) (*Conn, *Stmt) {
		b.Helper()
		c, err := Dial(srv.Addr(), DriverConfig{User: "bench", Database: "bench", Protocol: proto})
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.Prepare(prepQ)
		if err != nil {
			b.Fatal(err)
		}
		return c, st
	}

	b.Run("gob-exec", func(b *testing.B) {
		c, st := dial(b, ProtocolGob)
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Exec(sqltypes.NewInt(int64(nextBenchKey()))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-exec", func(b *testing.B) {
		c, st := dial(b, ProtocolBinary)
		defer c.Close()
		w0 := c.writes.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Exec(sqltypes.NewInt(int64(nextBenchKey()))); err != nil {
				b.Fatal(err)
			}
		}
		reportWrites(b, c, w0)
	})
	b.Run("binary-pipelined", func(b *testing.B) {
		c, st := dial(b, ProtocolBinary)
		defer c.Close()
		const win = 32
		pend := make([]*Pending, 0, win)
		w0 := c.writes.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(pend) == win {
				if _, err := pend[0].Wait(); err != nil {
					b.Fatal(err)
				}
				pend = append(pend[:0], pend[1:]...)
			}
			p, err := st.ExecAsync(sqltypes.NewInt(int64(nextBenchKey())))
			if err != nil {
				b.Fatal(err)
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		reportWrites(b, c, w0)
	})
}

// reportWrites reports the client write(2) calls c made per op since its
// counter read w0.
func reportWrites(b *testing.B, c *Conn, w0 uint64) {
	b.ReportMetric(float64(c.writes.Load()-w0)/float64(b.N), "writes/op")
}

// wireFleetThroughput runs `clients` concurrent connections, each executing
// `ops` PK lookups via run, and returns the wall time for the whole fleet.
func wireFleetThroughput(tb testing.TB, srv *Server, clients, ops int, proto string,
	run func(st *Stmt, ops int) error) time.Duration {
	tb.Helper()
	_, prepQ := preparedBenchQueries()
	conns := make([]*Conn, clients)
	stmts := make([]*Stmt, clients)
	for i := range conns {
		c, err := Dial(srv.Addr(), DriverConfig{User: "bench", Database: "bench", Protocol: proto})
		if err != nil {
			tb.Fatal(err)
		}
		conns[i] = c
		st, err := c.Prepare(prepQ)
		if err != nil {
			tb.Fatal(err)
		}
		stmts[i] = st
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(st *Stmt) {
			defer wg.Done()
			<-start
			if err := run(st, ops); err != nil {
				errCh <- err
			}
		}(stmts[i])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		tb.Fatal(err)
	}
	return elapsed
}

func runSerial(st *Stmt, ops int) error {
	for i := 0; i < ops; i++ {
		if _, err := st.Exec(sqltypes.NewInt(int64(nextBenchKey()))); err != nil {
			return err
		}
	}
	return nil
}

func runPipelined(window int) func(st *Stmt, ops int) error {
	return func(st *Stmt, ops int) error {
		pend := make([]*Pending, 0, window)
		for i := 0; i < ops; i++ {
			if len(pend) == window {
				if _, err := pend[0].Wait(); err != nil {
					return err
				}
				pend = append(pend[:0], pend[1:]...)
			}
			p, err := st.ExecAsync(sqltypes.NewInt(int64(nextBenchKey())))
			if err != nil {
				return err
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if _, err := p.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestWirePipelinedThroughputThreshold enforces the PR-9 acceptance floor:
// at high concurrency (64 clients), the binary pipelined protocol must
// deliver at least 2x the throughput of the PR-5 gob protocol on the same
// PK-lookup workload. Best-of-three rounds on each side to shrug off
// scheduler noise.
func TestWirePipelinedThroughputThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	srv := preparedBenchServer(t)
	const (
		clients = 64
		ops     = 150
	)
	// Warm both paths: connections, statement cache, PK index.
	wireFleetThroughput(t, srv, 8, 40, ProtocolGob, runSerial)
	wireFleetThroughput(t, srv, 8, 40, ProtocolBinary, runPipelined(32))

	bestGob, bestBin := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 3; round++ {
		runtime.GC()
		gob := wireFleetThroughput(t, srv, clients, ops, ProtocolGob, runSerial)
		runtime.GC()
		bin := wireFleetThroughput(t, srv, clients, ops, ProtocolBinary, runPipelined(32))
		if gob < bestGob {
			bestGob = gob
		}
		if bin < bestBin {
			bestBin = bin
		}
	}
	speedup := float64(bestGob) / float64(bestBin)
	total := clients * ops
	t.Logf("%d clients x %d ops: gob=%v (%.0f ops/s) binary-pipelined=%v (%.0f ops/s) speedup=%.2fx (floor 2x)",
		clients, ops, bestGob, float64(total)/bestGob.Seconds(), bestBin, float64(total)/bestBin.Seconds(), speedup)
	if speedup < 2 {
		t.Fatalf("binary pipelined speedup %.2fx below the 2x floor (gob=%v binary=%v)", speedup, bestGob, bestBin)
	}
}

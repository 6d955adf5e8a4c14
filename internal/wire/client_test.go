package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// fakeServer accepts one binary-protocol connection, answers its auth
// frame, and hands the connection to serve. It returns the listen address
// and a channel closed when serve has returned.
func fakeServer(t *testing.T, serve func(conn net.Conn, fr *frameReader, fw *frameWriter)) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if !sniffBinaryHello(br) || acceptBinaryHello(br, conn) != nil {
			return
		}
		fr := newFrameReader(br)
		fw := newFrameWriter(conn)
		if _, _, id, _, err := fr.readFrame(); err != nil || answer(fw, id, &Response{}) != nil {
			return
		}
		serve(conn, fr, fw)
	}()
	return ln.Addr().String(), done
}

// answer writes one response frame.
func answer(fw *frameWriter, id uint32, resp *Response) error {
	if err := fw.writeFrame(opResult, 0, id, func(b []byte) []byte { return appendResponse(b, resp) }); err != nil {
		return err
	}
	return fw.flush()
}

// TestPendingWaitOutOfOrder waits on pipelined calls newest-first, so the
// oldest call stays unwaited while ids advance through many windows: ring
// slots are reused under it, and every call must still get its own
// response.
func TestPendingWaitOutOfOrder(t *testing.T) {
	srv, _ := newServer(t)
	const window, n = 4, 40
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop", Protocol: ProtocolBinary, PipelineWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= n; i++ {
		if _, err := c.Exec("INSERT INTO items (name) VALUES (?)", sqltypes.NewString(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type call struct {
		p    *Pending
		want string
	}
	check := func(cl call) {
		t.Helper()
		out, err := cl.p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != 1 || out.Rows[0][0].Str() != cl.want {
			t.Fatalf("got %v, want %q", out.Rows, cl.want)
		}
	}
	var pend []call
	for i := 1; i <= n; i++ {
		if len(pend) == window {
			check(pend[len(pend)-1])
			pend = pend[:len(pend)-1]
		}
		p, err := st.ExecAsync(sqltypes.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, call{p, fmt.Sprintf("v%d", i)})
	}
	for len(pend) > 0 {
		check(pend[len(pend)-1])
		pend = pend[:len(pend)-1]
	}
}

// TestNonHeadResponseIsDesync: the server answers a connection's requests
// in order, so a response carrying a registered id that is not the oldest
// in flight is a desync, not a reordering to tolerate.
func TestNonHeadResponseIsDesync(t *testing.T) {
	addr, _ := fakeServer(t, func(conn net.Conn, fr *frameReader, fw *frameWriter) {
		var ids []uint32
		for len(ids) < 2 {
			_, _, id, _, err := fr.readFrame()
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		_ = answer(fw, ids[1], &Response{})
		drainEOF(conn)
	})
	c, err := Dial(addr, DriverConfig{User: "app", Protocol: ProtocolBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p1, err := c.ExecAsync("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.ExecAsync("SELECT 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pending{p2, p1} {
		if _, err := p.Wait(); !errors.Is(err, ErrProtocolDesync) {
			t.Fatalf("err = %v, want ErrProtocolDesync", err)
		}
	}
}

// TestExecAsyncBurstCoalescesWrites: a burst of pipelined calls shares the
// writer's write(2) calls instead of paying one per frame.
func TestExecAsyncBurstCoalescesWrites(t *testing.T) {
	srv, _ := newServer(t)
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop", Protocol: ProtocolBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames = 64
	before := c.writes.Load()
	pend := make([]*Pending, 0, frames)
	for i := 0; i < frames; i++ {
		p, err := c.ExecAsync("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	writes := c.writes.Load() - before
	t.Logf("%d frames in %d writes", frames, writes)
	if writes > frames/4 {
		t.Fatalf("%d frames took %d writes, want at most %d", frames, writes, frames/4)
	}
}

// TestCloseSendsReqCloseAndStopsGoroutines: Close still says goodbye with
// a reqClose frame, and returns only once the connection's reader and
// writer goroutines are gone.
func TestCloseSendsReqCloseAndStopsGoroutines(t *testing.T) {
	ops := make(chan byte, 1)
	addr, served := fakeServer(t, func(conn net.Conn, fr *frameReader, fw *frameWriter) {
		op, _, _, _, err := fr.readFrame()
		if err == nil {
			ops <- op
		}
	})
	base := runtime.NumGoroutine() // includes the fake server's goroutine
	c, err := Dial(addr, DriverConfig{User: "app", Protocol: ProtocolBinary})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case op := <-ops:
		if op != byte(reqClose) {
			t.Fatalf("first frame after auth has op %d, want reqClose (%d)", op, reqClose)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never saw a frame after Close")
	}
	<-served
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() >= base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d, want < %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Exec("SELECT 1"); !errors.Is(err, ErrConnDead) {
		t.Fatalf("Exec after Close: err = %v, want ErrConnDead", err)
	}
}

// TestSlowPipelineSurvivesKeepAlive: the read deadline counts from the last
// response, not from the first request, so a pipeline whose responses come
// 0.8x KeepAliveTimeout apart lives well past one timeout in total.
func TestSlowPipelineSurvivesKeepAlive(t *testing.T) {
	const keepAlive = 200 * time.Millisecond
	const calls = 4
	addr, _ := fakeServer(t, func(conn net.Conn, fr *frameReader, fw *frameWriter) {
		var ids []uint32
		for len(ids) < calls {
			_, _, id, _, err := fr.readFrame()
			if err != nil {
				return
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			time.Sleep(keepAlive * 8 / 10)
			if answer(fw, id, &Response{RowsAffected: int64(id)}) != nil {
				return
			}
		}
		drainEOF(conn)
	})
	c, err := Dial(addr, DriverConfig{User: "app", Protocol: ProtocolBinary, KeepAliveTimeout: keepAlive})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	pend := make([]*Pending, calls)
	for i := range pend {
		if pend[i], err = c.ExecAsync("SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("call %d after %v: %v", i, time.Since(start), err)
		}
	}
	if elapsed := time.Since(start); elapsed < keepAlive*3 {
		t.Fatalf("pipeline took %v; the test needs it to outlast several keepalive timeouts", elapsed)
	}
}

// TestIdleConnOutlivesKeepAlive: the read deadline left armed by the last
// call fires while nothing is in flight; an idle connection must shrug it
// off and serve the next call.
func TestIdleConnOutlivesKeepAlive(t *testing.T) {
	srv, _ := newServer(t)
	const keepAlive = 40 * time.Millisecond
	c, err := Dial(srv.Addr(), DriverConfig{User: "app", Database: "shop", Protocol: ProtocolBinary, KeepAliveTimeout: keepAlive})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		time.Sleep(3 * keepAlive)
		if _, err := c.Exec("SELECT COUNT(*) FROM items"); err != nil {
			t.Fatalf("call %d after idling 3x the keepalive: %v", i, err)
		}
	}
}

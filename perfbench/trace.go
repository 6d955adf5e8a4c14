package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// epoch is the zero of every timestamp the benchmark records.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call: [start, end) in nanoseconds since epoch.
type span struct{ start, end int64 }

// tracedBackend wraps the wire backend so each backend call of a session
// — the core span of one request — is timed. The server executes a
// connection's requests serially and in order, so the n-th span of a
// session belongs to the n-th exec frame its client sent.
type tracedBackend struct {
	inner    wire.Backend
	mu       sync.Mutex
	sessions []*tracedSession // in open order, which is dial order
}

func (b *tracedBackend) Authenticate(user, password string) error {
	return b.inner.Authenticate(user, password)
}

func (b *tracedBackend) OpenSession(user, database string) (wire.SessionHandler, error) {
	h, err := b.inner.OpenSession(user, database)
	if err != nil {
		return nil, err
	}
	s := &tracedSession{inner: h}
	b.mu.Lock()
	b.sessions = append(b.sessions, s)
	b.mu.Unlock()
	return s, nil
}

// spans returns a copy of session i's spans.
func (b *tracedBackend) spans(i int) []span {
	b.mu.Lock()
	s := b.sessions[i]
	b.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.spans...)
}

type tracedSession struct {
	inner wire.SessionHandler
	mu    sync.Mutex // orders the executor's appends before the reader
	spans []span
}

func (s *tracedSession) record(start int64) {
	end := now()
	s.mu.Lock()
	s.spans = append(s.spans, span{start, end})
	s.mu.Unlock()
}

func (s *tracedSession) Exec(sql string, args []sqltypes.Value) (*wire.Response, error) {
	t := now()
	resp, err := s.inner.Exec(sql, args)
	s.record(t)
	return resp, err
}

func (s *tracedSession) Prepare(sql string) (wire.StmtHandler, error) {
	h, err := s.inner.(wire.Preparer).Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{inner: h, s: s}, nil
}

func (s *tracedSession) Close() { s.inner.Close() }

type tracedStmt struct {
	inner wire.StmtHandler
	s     *tracedSession
}

func (t *tracedStmt) Exec(args []sqltypes.Value) (*wire.Response, error) {
	start := now()
	resp, err := t.inner.Exec(args)
	t.s.record(start)
	return resp, err
}

func (t *tracedStmt) NumInput() int { return t.inner.NumInput() }
func (t *tracedStmt) Close()        { t.inner.Close() }

// timedWaiter wraps the group committer to time each commit's wait for
// its fsync.
type timedWaiter struct {
	inner core.DurabilityWaiter
	mu    sync.Mutex
	waits []int64
}

func (w *timedWaiter) WaitDurable(seq uint64) error {
	t := now()
	err := w.inner.WaitDurable(seq)
	d := now() - t
	w.mu.Lock()
	w.waits = append(w.waits, d)
	w.mu.Unlock()
	return err
}

func (w *timedWaiter) snapshot() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int64(nil), w.waits...)
}

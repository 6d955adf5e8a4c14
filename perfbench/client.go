package main

import (
	"fmt"
	"strconv"

	"repro/internal/sqltypes"
	"repro/internal/wire"
)

// Statements of the prepared workloads.
const (
	sqlRead   = "SELECT id, qty FROM items WHERE id = ?"
	sqlUpdate = "UPDATE items SET qty = qty + 1 WHERE id = ?"
	sqlCredit = "UPDATE items SET qty = qty + ? WHERE id = ?"
	sqlLedger = "INSERT INTO history (id, acct, amt) VALUES (?, ?, ?)"
	sqlEvent  = "INSERT INTO events (id, v) VALUES (?, ?)"
)

// client is one benchmark connection with its prepared statements.
// Requests on one connection run serially and in order on the server.
type client struct {
	w                 *workload
	conn              *wire.Conn
	read, write, hist *wire.Stmt
	args              [3]sqltypes.Value
	sql               []byte
}

func dialClient(addr string, w *workload) (*client, error) {
	conn, err := wire.Dial(addr, wire.DriverConfig{User: "bench", Database: dbName, Protocol: wire.ProtocolBinary})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := &client{w: w, conn: conn}
	if w.prepared {
		write := sqlUpdate
		switch {
		case w.txn:
			write = sqlCredit
		case w.insert:
			write = sqlEvent
		}
		if c.read, err = conn.Prepare(sqlRead); err == nil {
			c.write, err = conn.Prepare(write)
		}
		if err == nil && w.txn {
			c.hist, err = conn.Prepare(sqlLedger)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	return c, nil
}

// inflight is one submitted operation: up to four pipelined frames.
type inflight struct {
	idx int
	req request
	p   [4]*wire.Pending
	n   int
	err error // submit failure; frames before it still need waiting
}

// textSQL renders a request as text SQL with literals (scatter).
func (c *client) textSQL(r request) string {
	b := c.sql[:0]
	switch r.kind {
	case opRead:
		b = append(b, "SELECT id, qty FROM items WHERE id = "...)
		b = strconv.AppendInt(b, r.key, 10)
	case opWrite:
		b = append(b, "UPDATE items SET qty = qty + 1 WHERE id = "...)
		b = strconv.AppendInt(b, r.key, 10)
	case opScan:
		b = append(b, "SELECT COUNT(*), SUM(qty) FROM items WHERE id BETWEEN "...)
		b = strconv.AppendInt(b, r.key, 10)
		b = append(b, " AND "...)
		b = strconv.AppendInt(b, r.key+scanWidth, 10)
	}
	c.sql = b
	return string(b)
}

func (c *client) push(f *inflight, p *wire.Pending, err error) bool {
	if err != nil {
		f.err = err
		return false
	}
	f.p[f.n] = p
	f.n++
	return true
}

// issue submits r without waiting for its result. The wire client
// encodes the arguments before ExecAsync returns, so c.args is reused.
func (c *client) issue(r request) inflight {
	f := inflight{req: r}
	if !c.w.prepared {
		p, err := c.conn.ExecAsync(c.textSQL(r))
		c.push(&f, p, err)
		return f
	}
	a := c.args[:]
	switch {
	case r.kind == opRead:
		a[0] = sqltypes.NewInt(r.key)
		p, err := c.read.ExecAsync(a[:1]...)
		c.push(&f, p, err)
	case c.w.txn:
		a[0], a[1], a[2] = sqltypes.NewInt(r.amt), sqltypes.NewInt(r.key), sqltypes.NewInt(0)
		p, err := c.conn.ExecAsync("BEGIN")
		if !c.push(&f, p, err) {
			return f
		}
		p, err = c.write.ExecAsync(a[:2]...)
		if !c.push(&f, p, err) {
			return f
		}
		a[0], a[1], a[2] = sqltypes.NewInt(r.uid), sqltypes.NewInt(r.key), sqltypes.NewInt(r.amt)
		p, err = c.hist.ExecAsync(a[:3]...)
		if !c.push(&f, p, err) {
			return f
		}
		p, err = c.conn.ExecAsync("COMMIT")
		c.push(&f, p, err)
	case c.w.insert:
		a[0], a[1] = sqltypes.NewInt(r.uid), sqltypes.NewInt(r.key)
		p, err := c.write.ExecAsync(a[:2]...)
		c.push(&f, p, err)
	default:
		a[0] = sqltypes.NewInt(r.key)
		p, err := c.write.ExecAsync(a[:1]...)
		c.push(&f, p, err)
	}
	return f
}

// outcome of one operation.
type outcome uint8

const (
	outOK    outcome = iota
	outErr           // the server refused or failed it
	outWrong         // it succeeded with a wrong result
)

// complete waits for every frame of f in order and checks the results:
// a point read returns exactly its row, a write affects exactly one row,
// a scan counts exactly its id range. done, when non-nil, is called with
// each frame's completion.
func (c *client) complete(f *inflight, done func(frame int)) (outcome, string) {
	out, why := outOK, ""
	for i := 0; i < f.n; i++ {
		resp, err := f.p[i].Wait()
		if done != nil {
			done(i)
		}
		if out != outOK {
			continue
		}
		if err != nil {
			out, why = outErr, err.Error()
			continue
		}
		if w := c.check(f.req, i, f.n, resp); w != "" {
			out, why = outWrong, w
		}
	}
	if out == outOK && f.err != nil {
		out, why = outErr, f.err.Error()
	}
	return out, why
}

func (c *client) check(r request, frame, frames int, resp *wire.Response) string {
	switch r.kind {
	case opRead:
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 2 || resp.Rows[0][0].Int() != r.key {
			return fmt.Sprintf("read of id %d returned %v", r.key, resp.Rows)
		}
	case opScan:
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 2 || resp.Rows[0][0].Int() != scanWidth+1 {
			return fmt.Sprintf("COUNT over ids %d..%d returned %v", r.key, r.key+scanWidth, resp.Rows)
		}
	case opWrite:
		// BEGIN and COMMIT frames of a transaction affect no rows.
		if c.w.txn && (frame == 0 || frame == frames-1) {
			return ""
		}
		if resp.RowsAffected != 1 {
			return fmt.Sprintf("write to id %d affected %d rows", r.key, resp.RowsAffected)
		}
	}
	return ""
}

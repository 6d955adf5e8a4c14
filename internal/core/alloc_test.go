//go:build !race

// The race detector makes sync.Pool drop recycled items at random, so
// allocation counts are only meaningful without it.

package core

import (
	"testing"

	"repro/internal/qcache"
	"repro/internal/sqltypes"
)

// TestPreparedCachedReadAllocatesNothing: a prepared point read served
// from the query cache reuses its statement's memoized key and a recycled
// probe buffer, so the router's fixed cost per hit allocates nothing.
func TestPreparedCachedReadAllocatesNothing(t *testing.T) {
	ms, sess := newMSCluster(t, 1, MasterSlaveConfig{
		Consistency: SessionConsistent,
		QueryCache:  qcache.New(qcache.Config{}),
	})
	mustExecC(t, sess.Exec, "INSERT INTO items (id, name) VALUES (1, 'a')")
	waitCaughtUp(t, ms)
	st, err := sess.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	args := []sqltypes.Value{sqltypes.NewInt(1)}
	if _, err := st.Exec(args...); err != nil { // miss: fills the cache
		t.Fatal(err)
	}
	hits := ms.QueryCacheScope().Cache().Stats().Hits
	allocs := testing.AllocsPerRun(200, func() {
		res, err := st.Exec(args...)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("read: %v %v", res, err)
		}
	})
	if got := ms.QueryCacheScope().Cache().Stats().Hits - hits; got < 200 {
		t.Fatalf("%d cache hits in 201 reads: the reads were not served by the cache", got)
	}
	if allocs != 0 {
		t.Fatalf("cached prepared read allocates %.1f times, want 0", allocs)
	}
}

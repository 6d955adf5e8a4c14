//go:build !race

// The race detector makes sync.Pool drop recycled items at random, so
// allocation counts are only meaningful without it.

package qcache

import (
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// TestCacheHitAllocatesNothing: a hit builds its probe key in a recycled
// buffer and looks it up without converting it to a string.
func TestCacheHitAllocatesNothing(t *testing.T) {
	s := New(Config{}).NewScope()
	st, err := sqlparse.Parse("SELECT v FROM kv WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf(st.(*sqlparse.Select))
	binds := []sqltypes.Value{sqltypes.NewInt(42)}
	s.PutAt("u", "app", key, binds, 5, 5, res(1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := s.GetPos("u", "app", KeyOf(st.(*sqlparse.Select)), binds, 0); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times, want 0", allocs)
	}
}
